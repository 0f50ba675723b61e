// Prometheus-style text exposition for MetricsRegistry snapshots.
//
// Internal metric names use dots and an optional `/k=v,k2=v2` suffix
// ("service.errors_latched/shard=2"). The exposition splits the suffix
// into Prometheus labels and sanitizes the base name to [a-zA-Z0-9_:]
// (dots become underscores):
//
//   service.errors_latched/shard=2  ->  service_errors_latched{shard="2"}
//
// Counters emit `# TYPE <name> counter` + one sample; gauges likewise.
// Histograms emit the standard cumulative form: `<name>_bucket{le="..."}`
// lines (cumulative counts, ending with le="+Inf"), `<name>_sum`, and
// `<name>_count`. Output is name-sorted and deterministic for a given
// snapshot; `scripts/bench_report.py scrape` validates the format.

#ifndef CYCLESTREAM_OBS_EXPOSITION_H_
#define CYCLESTREAM_OBS_EXPOSITION_H_

#include <string>

#include "obs/metrics.h"
#include "util/status.h"

namespace cyclestream {
namespace obs {

/// Renders `snapshot` in the Prometheus text exposition format (version
/// 0.0.4). Deterministic: metrics appear in name-sorted order.
std::string PrometheusText(const Snapshot& snapshot);

/// Writes PrometheusText(snapshot) to `path` (truncating). NotFound-style
/// Status when the file cannot be opened.
Status WritePrometheusText(const Snapshot& snapshot, const std::string& path);

}  // namespace obs
}  // namespace cyclestream

#endif  // CYCLESTREAM_OBS_EXPOSITION_H_
