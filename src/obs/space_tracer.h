// SpaceTracer: records an algorithm's space over the course of a
// multi-pass run into per-pass timelines — both the self-reported
// `CurrentSpaceBytes()` and, when the algorithm exposes a memory domain,
// the allocator-measured live bytes.
//
// The stream driver (see `stream/driver.h`) owns the sampling points: it
// calls `Sample()` at every adjacency-list boundary (the model measures
// space as the state carried across list boundaries) and once more at
// each pass end, the same samples the report's peaks come from, so the
// timeline maximum equals `RunReport::reported_peak_bytes` exactly. The
// tracer itself is a passive container — single-writer, no locking — so
// only one trial per run should carry one (bench_util traces trial 0).

#ifndef CYCLESTREAM_OBS_SPACE_TRACER_H_
#define CYCLESTREAM_OBS_SPACE_TRACER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/json.h"

namespace cyclestream {
namespace obs {

/// One sample after `pairs_processed` pairs of the pass: self-reported
/// space plus allocator-audited live bytes (0 when the algorithm has no
/// memory domain).
struct SpacePoint {
  std::uint64_t pairs_processed = 0;
  std::uint64_t reported_bytes = 0;
  std::uint64_t audited_bytes = 0;
};

/// All samples taken during one pass, in stream order.
struct SpaceTimeline {
  std::size_t pass = 0;
  std::vector<SpacePoint> points;

  std::uint64_t MaxReportedBytes() const {
    std::uint64_t max = 0;
    for (const SpacePoint& p : points) {
      if (p.reported_bytes > max) max = p.reported_bytes;
    }
    return max;
  }

  std::uint64_t MaxAuditedBytes() const {
    std::uint64_t max = 0;
    for (const SpacePoint& p : points) {
      if (p.audited_bytes > max) max = p.audited_bytes;
    }
    return max;
  }
};

class SpaceTracer {
 public:
  /// Driver hooks -----------------------------------------------------

  void BeginPass(std::size_t pass) {
    timelines_.push_back(SpaceTimeline{pass, {}});
  }

  /// Records one (pairs_processed, reported, audited) point for the
  /// current pass.
  void Sample(std::uint64_t pairs_processed, std::uint64_t reported_bytes,
              std::uint64_t audited_bytes = 0) {
    if (timelines_.empty()) return;  // driver always BeginPass()es first
    timelines_.back().points.push_back(
        SpacePoint{pairs_processed, reported_bytes, audited_bytes});
  }

  /// Results ----------------------------------------------------------

  const std::vector<SpaceTimeline>& timelines() const { return timelines_; }

  /// Max self-reported space over every pass; equals
  /// RunReport::reported_peak_bytes for the run the driver traced
  /// (tested in obs_test).
  std::uint64_t MaxReportedBytes() const {
    std::uint64_t max = 0;
    for (const SpaceTimeline& t : timelines_) {
      const std::uint64_t pass_max = t.MaxReportedBytes();
      if (pass_max > max) max = pass_max;
    }
    return max;
  }

  /// Max allocator-audited live bytes over every pass (0 for unaudited
  /// algorithms); equals RunReport::audited_peak_bytes when traced.
  std::uint64_t MaxAuditedBytes() const {
    std::uint64_t max = 0;
    for (const SpaceTimeline& t : timelines_) {
      const std::uint64_t pass_max = t.MaxAuditedBytes();
      if (pass_max > max) max = pass_max;
    }
    return max;
  }

  /// [{"pass":0,"points":[[pairs,reported,audited],...]},...] — points as
  /// 3-arrays to keep long timelines compact in JSONL.
  Json ToJson() const {
    Json passes = Json::Array();
    for (const SpaceTimeline& t : timelines_) {
      Json points = Json::Array();
      for (const SpacePoint& p : t.points) {
        Json point = Json::Array();
        point.Push(Json(p.pairs_processed));
        point.Push(Json(p.reported_bytes));
        point.Push(Json(p.audited_bytes));
        points.Push(std::move(point));
      }
      Json pass = Json::Object();
      pass.Set("pass", Json(t.pass));
      pass.Set("points", std::move(points));
      passes.Push(std::move(pass));
    }
    return passes;
  }

 private:
  std::vector<SpaceTimeline> timelines_;
};

}  // namespace obs
}  // namespace cyclestream

#endif  // CYCLESTREAM_OBS_SPACE_TRACER_H_
