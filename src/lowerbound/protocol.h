// Communication-protocol simulation over the Figure 1 gadgets.
//
// The reductions of Section 5.1 turn a streaming algorithm into a protocol:
// each player inserts the adjacency lists of their vertices, then ships the
// algorithm's working state to the next player. This module executes that
// construction literally — the gadget's lists are streamed grouped by player
// and the algorithm's CurrentSpaceBytes() at each player boundary is the
// message size. One pass of a c-pass algorithm crosses (players - 1)
// boundaries; total communication = Σ message sizes, and the protocol output
// is derived from the final estimate (> promised/2 → "1").
//
// Delivery goes through the driver's one sink (`internal::RunSink` under the
// trusting contract `stream::RunPasses` uses), not a hand-rolled OnPair
// loop, so protocol runs get the same metering and the same batch fast path
// (one devirtualized OnListBatch per list when given a concrete algorithm)
// as `RunPasses`. Space is sampled at list boundaries only, with no extra
// sample after EndPass (messages between passes are read directly).

#ifndef CYCLESTREAM_LOWERBOUND_PROTOCOL_H_
#define CYCLESTREAM_LOWERBOUND_PROTOCOL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/triangle_distinguisher.h"
#include "lowerbound/gadget.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/algorithm.h"
#include "stream/driver.h"
#include "util/check.h"
#include "util/status.h"

namespace cyclestream {
namespace lowerbound {

/// Outcome of running a streaming algorithm as a communication protocol.
struct ProtocolRun {
  /// State size at every player boundary, in stream order across all passes.
  std::vector<std::size_t> message_bytes;
  /// Largest single message (the one-way communication cost per round).
  std::size_t max_message_bytes = 0;
  /// Sum over all boundaries and passes (the multi-round total).
  std::size_t total_message_bytes = 0;
  /// Peak self-reported working space of the algorithm anywhere in the run.
  std::size_t reported_peak_bytes = 0;
  /// Peak allocator-measured live bytes at the same sample points (0 when
  /// the algorithm exposes no memory domain).
  std::size_t audited_peak_bytes = 0;
  /// Largest |audited - reported| over all samples (0 when unaudited).
  std::size_t max_divergence_bytes = 0;
};

/// Builds the player-grouped adjacency-list stream for a gadget: all of
/// Alice's lists, then Bob's, then (if present) Charlie's; order within each
/// player and within each list shuffled from `seed`.
stream::AdjacencyListStream MakeProtocolStream(const Gadget& gadget,
                                               std::uint64_t seed);

namespace internal {

// Copies the metered peaks and tallies max/total over the recorded boundary
// messages.
inline void FinishProtocolRun(const stream::RunReport& report,
                              ProtocolRun* run) {
  run->reported_peak_bytes = report.reported_peak_bytes;
  run->audited_peak_bytes = report.audited_peak_bytes;
  run->max_divergence_bytes = report.max_divergence_bytes;
  for (std::size_t bytes : run->message_bytes) {
    run->max_message_bytes = std::max(run->max_message_bytes, bytes);
    run->total_message_bytes += bytes;
  }
}

}  // namespace internal

/// Runs all passes of `algorithm` over the gadget's player-grouped stream,
/// recording the message sizes. The caller reads the estimate from the
/// concrete algorithm afterwards. Like `stream::RunPasses`, `AlgoT` is
/// deduced: a concrete algorithm pointer takes the devirtualized batch path,
/// a `stream::StreamAlgorithm*` the virtual one — bit-identical results.
/// The run is uninstrumented: its sink never ends a pass, so it could close
/// no pass span.
template <typename AlgoT>
ProtocolRun RunProtocol(const Gadget& gadget, AlgoT* algorithm,
                        std::uint64_t seed) {
  static_assert(std::is_base_of_v<stream::StreamAlgorithm, AlgoT>);
  CYCLESTREAM_CHECK(algorithm != nullptr);
  stream::AdjacencyListStream protocol_stream =
      MakeProtocolStream(gadget, seed);
  const std::vector<VertexId>& order = protocol_stream.list_order();

  ProtocolRun run;
  stream::RunReport report;
  report.passes_requested = algorithm->passes();
  stream::internal::TrustingContract trusting;
  stream::internal::RunSink<AlgoT, stream::internal::TrustingContract> sink(
      algorithm, &trusting, &report, {});
  for (int pass = 0; pass < report.passes_requested; ++pass) {
    sink.BeginPass(pass);
    algorithm->BeginPass(pass);
    int current_player =
        order.empty() ? kAlice : gadget.player_of[order.front()];
    for (VertexId u : order) {
      if (gadget.player_of[u] != current_player) {
        // Player boundary: the algorithm state is the message.
        run.message_bytes.push_back(algorithm->CurrentSpaceBytes());
        current_player = gadget.player_of[u];
      }
      sink.BeginList(u);
      sink.OnList(u, protocol_stream.ListOf(u));
      sink.EndList(u);  // samples space, exactly as the old per-list max
    }
    algorithm->EndPass(pass);
    // No sink.EndPass(): the protocol's peak is defined over list
    // boundaries only; pass-end state is measured by the message below.
    if (pass + 1 < report.passes_requested) {
      // Multi-pass: the last player sends the state back to the first.
      run.message_bytes.push_back(algorithm->CurrentSpaceBytes());
    }
  }
  internal::FinishProtocolRun(report, &run);
  return run;
}

/// The reduction made fully literal: each player is a SEPARATE algorithm
/// instance; at every boundary the current player's state is serialized into
/// a snapshot envelope and the next player resumes from those bytes alone.
/// message_bytes are the actual envelope sizes (payload plus the fixed
/// snapshot::kEnvelopeBytes framing) — the same bytes the crash-recovery
/// checkpoints ship. The final player's instance is written to
/// *final_player, whose result must be identical to a monolithic RunProtocol
/// with the same options and seeds — asserted in tests.
///
/// `Algo` must implement the snapshot contract Serialize()/Restore()
/// (stream/algorithm.h; e.g. core::TriangleDistinguisher,
/// core::TwoPassTriangleCounter) and be constructible from `Options`.
/// Restore failures are CHECKed: the wire was produced in-process, so a bad
/// envelope is a programming error, not input corruption.
template <typename Algo, typename Options>
ProtocolRun RunSerializedProtocol(const Gadget& gadget, const Options& options,
                                  std::uint64_t seed,
                                  std::unique_ptr<Algo>* final_player) {
  stream::AdjacencyListStream protocol_stream =
      MakeProtocolStream(gadget, seed);
  const std::vector<VertexId>& order = protocol_stream.list_order();

  ProtocolRun run;
  // Contiguous per-player segments of the list order.
  std::vector<std::pair<std::size_t, std::size_t>> segments;  // [begin, end)
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= order.size(); ++i) {
    if (i == order.size() ||
        gadget.player_of[order[i]] != gadget.player_of[order[begin]]) {
      segments.push_back({begin, i});
      begin = i;
    }
  }

  const int passes = Algo(options).passes();
  // One report across all players: each player's sink accumulates the
  // global peak (max over every list-boundary sample) into it.
  stream::RunReport report;
  stream::internal::TrustingContract trusting;
  report.passes_requested = passes;
  std::vector<std::uint8_t> wire;
  bool first_segment = true;
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& [seg_begin, seg_end] : segments) {
      // A brand-new player knowing only the public options and the wire.
      auto player = std::make_unique<Algo>(options);
      if (!first_segment) {
        StatusOr<snapshot::SnapshotReader> reader =
            snapshot::SnapshotReader::Open(wire);
        CYCLESTREAM_CHECK(reader.ok());
        CYCLESTREAM_CHECK(player->Restore(*reader).ok());
        CYCLESTREAM_CHECK(reader->Final().ok());
      }
      stream::internal::RunSink<Algo, stream::internal::TrustingContract>
          sink(player.get(), &trusting, &report, {});
      if (seg_begin == 0) sink.BeginPass(pass);
      if (seg_begin == 0) player->BeginPass(pass);
      for (std::size_t i = seg_begin; i < seg_end; ++i) {
        VertexId u = order[i];
        sink.BeginList(u);
        sink.OnList(u, protocol_stream.ListOf(u));
        sink.EndList(u);
      }
      if (seg_end == order.size()) player->EndPass(pass);
      bool last_overall = pass + 1 == passes && seg_end == order.size();
      if (!last_overall) {
        snapshot::SnapshotWriter writer;
        player->Serialize(writer);
        wire = std::move(writer).Finish();
        run.message_bytes.push_back(wire.size());
      } else {
        *final_player = std::move(player);
      }
      first_segment = false;
    }
  }
  internal::FinishProtocolRun(report, &run);
  return run;
}

/// Convenience wrapper over RunSerializedProtocol for the two-pass
/// distinguisher (kept for the benches' C-style call sites).
ProtocolRun RunSerializedDistinguisherProtocol(
    const Gadget& gadget, const core::TriangleDistinguisherOptions& options,
    std::uint64_t seed, core::TriangleDistinguisherResult* result);

}  // namespace lowerbound
}  // namespace cyclestream

#endif  // CYCLESTREAM_LOWERBOUND_PROTOCOL_H_
