#include "stream/contract.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "snapshot/codec.h"
#include "util/check.h"

namespace cyclestream {
namespace stream {

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kSplitList: return "split-list";
    case ViolationKind::kInterleavedList: return "interleaved-list";
    case ViolationKind::kForeignPair: return "foreign-pair";
    case ViolationKind::kDuplicatePair: return "duplicate-pair";
    case ViolationKind::kMissingPair: return "missing-pair";
    case ViolationKind::kTruncatedPass: return "truncated-pass";
    case ViolationKind::kReplayDivergence: return "replay-divergence";
    case ViolationKind::kPermutationDivergence:
      return "permutation-divergence";
  }
  return "unknown";
}

std::string Violation::ToString() const {
  std::string out = ViolationKindName(kind);
  out += " at pass " + std::to_string(pass);
  out += " pair " + std::to_string(position);
  out += " (list " + std::to_string(list) + ")";
  if (!detail.empty()) {
    out += ": ";
    out += detail;
  }
  return out;
}

ModelContract::ModelContract(const Graph* graph, ModelDescriptor descriptor)
    : graph_(graph), descriptor_(descriptor) {
  CYCLESTREAM_CHECK(graph != nullptr);
}

void ModelContract::CountViolation(ViolationKind kind) {
  ++counters_.violations_total;
  ++counters_.violations_by_kind[static_cast<std::size_t>(kind)];
}

void ModelContract::SetFirst(Violation v) {
  if (!violation_.has_value()) violation_ = std::move(v);
}

std::size_t ModelContract::OnList(VertexId u,
                                  std::span<const VertexId> list) {
  std::size_t ok_prefix = 0;
  for (VertexId v : list) {
    // Track where ok() flips rather than deriving the prefix from the
    // violation's position: a contract may promote a violation recorded at
    // an earlier position (e.g. the adjacency model's provisional
    // missing-pair), so the position alone is not the prefix length.
    const bool was_ok = ok();
    OnPair(u, v);
    if (was_ok && ok()) ++ok_prefix;
  }
  return ok_prefix;
}

Status ModelContract::ToStatus() const {
  if (ok()) return Status::Ok();
  const Violation& v = *violation_;
  switch (v.kind) {
    case ViolationKind::kMissingPair:
    case ViolationKind::kTruncatedPass:
      return Status::DataLoss(v.ToString());
    case ViolationKind::kForeignPair:
    case ViolationKind::kDuplicatePair:
      return Status::InvalidArgument(v.ToString());
    default:
      return Status::FailedPrecondition(v.ToString());
  }
}

void ModelContract::ExportMetrics(obs::MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->GetCounter("validator.events_checked")
      .Increment(counters_.events_checked);
  metrics->GetCounter("validator.passes_checked")
      .Increment(counters_.passes_checked);
  metrics->GetCounter("validator.lists_checked")
      .Increment(counters_.lists_checked);
  metrics->GetCounter("validator.pairs_checked")
      .Increment(counters_.pairs_checked);
  metrics->GetCounter("validator.violations_total")
      .Increment(counters_.violations_total);
  for (std::size_t i = 0; i < kNumViolationKinds; ++i) {
    if (counters_.violations_by_kind[i] == 0) continue;
    metrics
        ->GetCounter(std::string("validator.violations.") +
                     ViolationKindName(static_cast<ViolationKind>(i)))
        .Increment(counters_.violations_by_kind[i]);
  }
}

namespace internal {

void WriteViolationOpt(snapshot::SnapshotWriter& w,
                       const std::optional<Violation>& v) {
  w.WriteBool(v.has_value());
  if (!v.has_value()) return;
  w.WriteU8(static_cast<std::uint8_t>(v->kind));
  w.WriteU64(static_cast<std::uint64_t>(v->pass));
  w.WriteU64(v->position);
  w.WriteU32(v->list);
  w.WriteString(v->detail);
}

std::optional<Violation> ReadViolationOpt(snapshot::SnapshotReader& r) {
  if (!r.ReadBool()) return std::nullopt;
  Violation v;
  v.kind = static_cast<ViolationKind>(r.ReadU8());
  v.pass = static_cast<int>(r.ReadU64());
  v.position = r.ReadU64();
  v.list = r.ReadU32();
  v.detail = r.ReadString();
  return v;
}

}  // namespace internal

void ModelContract::SerializeCommon(snapshot::SnapshotWriter& w) const {
  // Graph-shape and model guards: a checkpoint only resumes against the
  // same graph streamed under the same model.
  w.WriteU64(graph_->num_vertices());
  w.WriteU64(graph_->num_edges());
  w.WriteU8(static_cast<std::uint8_t>(descriptor_.model));
  w.WriteU64(descriptor_.order_seed);
  w.WriteDouble(descriptor_.epsilon);
  internal::WriteViolationOpt(w, violation_);
  w.WriteU64(counters_.events_checked);
  w.WriteU64(counters_.passes_checked);
  w.WriteU64(counters_.lists_checked);
  w.WriteU64(counters_.pairs_checked);
  w.WriteU64(counters_.violations_total);
  for (std::uint64_t count : counters_.violations_by_kind) w.WriteU64(count);
  w.WriteU64(static_cast<std::uint64_t>(pass_ + 1));  // -1-safe
  w.WriteBool(in_pass_);
  w.WriteU64(position_);
}

Status ModelContract::RestoreCommon(snapshot::SnapshotReader& r) {
  const std::uint64_t vertices = r.ReadU64();
  const std::uint64_t edges = r.ReadU64();
  if (!r.status().ok()) return r.status();
  if (vertices != graph_->num_vertices() || edges != graph_->num_edges()) {
    return Status::FailedPrecondition(
        "contract snapshot was taken against a different graph");
  }
  const auto model = static_cast<StreamModel>(r.ReadU8());
  const std::uint64_t order_seed = r.ReadU64();
  const double epsilon = r.ReadDouble();
  if (!r.status().ok()) return r.status();
  if (ModelDescriptor{model, order_seed, epsilon} != descriptor_) {
    return Status::FailedPrecondition(
        "contract snapshot was taken under a different stream model");
  }
  violation_ = internal::ReadViolationOpt(r);
  counters_.events_checked = r.ReadU64();
  counters_.passes_checked = r.ReadU64();
  counters_.lists_checked = r.ReadU64();
  counters_.pairs_checked = r.ReadU64();
  counters_.violations_total = r.ReadU64();
  for (std::uint64_t& count : counters_.violations_by_kind) count = r.ReadU64();
  const std::uint64_t pass_field = r.ReadU64();  // pass + 1
  in_pass_ = r.ReadBool();
  position_ = r.ReadU64();
  if (!r.status().ok()) return r.status();
  // Range-checked before the subtraction: the field is read from the bytes.
  constexpr std::uint64_t kMaxPassField = std::numeric_limits<int>::max();
  if (pass_field > kMaxPassField) {
    return Status::FailedPrecondition("contract snapshot pass field " +
                                      std::to_string(pass_field) +
                                      " is out of range");
  }
  pass_ = static_cast<int>(pass_field) - 1;
  return Status::Ok();
}

EdgeStreamContract::EdgeStreamContract(const Graph* graph,
                                       ModelDescriptor descriptor,
                                       const std::vector<Edge>* expected_order)
    : ModelContract(graph, descriptor), expected_order_(expected_order) {
  CYCLESTREAM_CHECK(IsEdgeModel(descriptor.model));
  if (expected_order_ != nullptr) {
    CYCLESTREAM_CHECK_EQ(expected_order_->size(), graph_->num_edges());
  }
  first_pass_keys_.reserve(graph_->num_edges());
}

void EdgeStreamContract::Report(ViolationKind kind, VertexId list,
                                std::string detail) {
  CountViolation(kind);  // every observed violation, not just the first
  Violation v;
  v.kind = kind;
  v.pass = pass_;
  v.position = position_;
  v.list = list;
  v.detail = std::move(detail);
  SetFirst(std::move(v));
}

void EdgeStreamContract::BeginPass(int pass) {
  ++counters_.events_checked;
  ++counters_.passes_checked;
  CYCLESTREAM_CHECK(!in_pass_);
  CYCLESTREAM_CHECK_EQ(pass, pass_ + 1);  // consecutive, starting at 0
  pass_ = pass;
  in_pass_ = true;
  position_ = 0;
  seen_.clear();
}

void EdgeStreamContract::BeginList(VertexId u) {
  // u-runs are packaging, not promises: the only run-level check is that
  // the run vertex is one the graph knows about.
  ++counters_.events_checked;
  ++counters_.lists_checked;
  CYCLESTREAM_CHECK(in_pass_);
  if (static_cast<std::size_t>(u) >= graph_->num_vertices()) {
    Report(ViolationKind::kForeignPair, u,
           "run of unknown vertex " + std::to_string(u));
  }
}

void EdgeStreamContract::OnPair(VertexId u, VertexId v) { CheckEdge(u, v); }

void EdgeStreamContract::CheckEdge(VertexId u, VertexId v) {
  ++counters_.events_checked;
  ++counters_.pairs_checked;
  CYCLESTREAM_CHECK(in_pass_);
  if (u == v || static_cast<std::size_t>(u) >= graph_->num_vertices() ||
      static_cast<std::size_t>(v) >= graph_->num_vertices() ||
      !graph_->HasEdge(u, v)) {
    Report(ViolationKind::kForeignPair, u,
           "element {" + std::to_string(u) + ", " + std::to_string(v) +
               "} is not an edge of the graph");
    ++position_;
    return;
  }
  const EdgeKey key = MakeEdgeKey(u, v);
  if (!seen_.insert(key).second) {
    Report(ViolationKind::kDuplicatePair, u,
           "edge {" + std::to_string(u) + ", " + std::to_string(v) +
               "} delivered twice in one pass (second copy at position " +
               std::to_string(position_) + ")");
  } else if (pass_ == 0) {
    if (expected_order_ != nullptr && ok()) {
      if (position_ >= expected_order_->size() ||
          MakeEdgeKey((*expected_order_)[position_].u,
                      (*expected_order_)[position_].v) != key) {
        std::string expected =
            position_ < expected_order_->size()
                ? "{" + std::to_string((*expected_order_)[position_].u) +
                      ", " +
                      std::to_string((*expected_order_)[position_].v) + "}"
                : "<end of stream>";
        Report(ViolationKind::kPermutationDivergence, u,
               "position " + std::to_string(position_) + " delivers edge {" +
                   std::to_string(u) + ", " + std::to_string(v) +
                   "} where the declared permutation has " + expected);
      }
    }
    first_pass_keys_.push_back(key);
  } else if (ok()) {
    if (position_ >= first_pass_keys_.size() ||
        first_pass_keys_[position_] != key) {
      Report(ViolationKind::kReplayDivergence, u,
             "pass " + std::to_string(pass_) + " delivers edge {" +
                 std::to_string(u) + ", " + std::to_string(v) +
                 "} at position " + std::to_string(position_) +
                 " where pass 0 delivered a different element");
    }
  }
  ++position_;
}

void EdgeStreamContract::EndList(VertexId u) {
  ++counters_.events_checked;
  CYCLESTREAM_CHECK(in_pass_);
  (void)u;  // no run-boundary promises to check
}

void EdgeStreamContract::EndPass(int pass) {
  ++counters_.events_checked;
  CYCLESTREAM_CHECK(in_pass_);
  CYCLESTREAM_CHECK_EQ(pass, pass_);
  const std::size_t m = graph_->num_edges();
  if (ok() && position_ < m) {
    // Exactly-once means every edge: a short pass is a dropped edge. Name
    // one for the diagnostic (O(m) scan, only on the already-failing path).
    std::string missing = "<unknown>";
    for (const Edge& e : graph_->edges()) {
      if (!seen_.contains(MakeEdgeKey(e.u, e.v))) {
        missing =
            "{" + std::to_string(e.u) + ", " + std::to_string(e.v) + "}";
        break;
      }
    }
    Report(ViolationKind::kMissingPair, 0,
           "pass delivered " + std::to_string(position_) + " of " +
               std::to_string(m) + " edges (missing edge " + missing + ")");
  } else if (ok() && pass_ > 0 && position_ != first_pass_keys_.size()) {
    Report(ViolationKind::kReplayDivergence, 0,
           "pass delivered " + std::to_string(position_) +
               " elements where pass 0 delivered " +
               std::to_string(first_pass_keys_.size()));
  }
  in_pass_ = false;
}

void EdgeStreamContract::Serialize(snapshot::SnapshotWriter& w) const {
  SerializeCommon(w);
  w.WriteBool(expected_order_ != nullptr);
  // Sorted elements make the encoding a pure function of content; the
  // bucket count travels last so Restore can fix the table geometry after
  // reinsertion (see snapshot/codec.h).
  const std::vector<EdgeKey> sorted = snapshot::SortedElements(seen_);
  w.WriteU64(sorted.size());
  for (EdgeKey key : sorted) w.WriteU64(key);
  snapshot::WriteBucketCount(w, seen_);
  snapshot::WriteVec(w, first_pass_keys_,
                     [](snapshot::SnapshotWriter& w2, EdgeKey key) {
                       w2.WriteU64(key);
                     });
}

Status EdgeStreamContract::Restore(snapshot::SnapshotReader& r) {
  Status common = RestoreCommon(r);
  if (!common.ok()) return common;
  const bool had_expected = r.ReadBool();
  if (!r.status().ok()) return r.status();
  if (had_expected != (expected_order_ != nullptr)) {
    return Status::FailedPrecondition(
        "contract snapshot disagrees about the declared permutation");
  }
  const std::uint64_t seen_count = r.ReadU64();
  if (!r.status().ok()) return r.status();
  // The CRC vouches for the bytes, not for this count: one the payload
  // cannot hold (8 bytes per key) would otherwise size the reservation.
  if (seen_count > r.remaining() / 8) {
    return Status::DataLoss("contract snapshot claims " +
                            std::to_string(seen_count) +
                            " seen edges but holds " +
                            std::to_string(r.remaining()) + " bytes");
  }
  seen_.clear();
  seen_.reserve(seen_count);
  for (std::uint64_t i = 0; i < seen_count && r.status().ok(); ++i) {
    seen_.insert(r.ReadU64());
  }
  snapshot::RestoreBucketCount(r, seen_);
  first_pass_keys_.clear();
  first_pass_keys_.shrink_to_fit();
  snapshot::ReadVec(r, first_pass_keys_,
                    [](snapshot::SnapshotReader& r2) { return r2.ReadU64(); });
  return r.status();
}

}  // namespace stream
}  // namespace cyclestream
