// Flight recorder: a lock-free, per-thread ring buffer of recent service
// events, for post-mortem context the Chrome trace cannot give (the trace
// is written at clean shutdown; the flight recorder is dumpable at any
// instant, including from the middle of a crash path).
//
// Design:
//   * Each writer thread owns one fixed-size ring (registered on first
//     Record() through a thread-local cache, like MetricsRegistry's
//     shards). Recording is wait-free: one global sequence fetch_add plus
//     a handful of relaxed atomic stores into the thread's next slot.
//   * Slots are seqlocked: an odd `version` marks a slot mid-write.
//     `Collect()` (any thread, any time) reads every slot, re-checks the
//     version, and drops torn reads — a best-effort snapshot, which is
//     exactly what a post-mortem wants. No reader ever blocks a writer.
//   * Events are numeric-only (kind + shard + two 64-bit args); the dump
//     resolves kind names. No strings on the record path.
//
// Dump triggers (see service.cc): a typed Status latched on a stream, a
// chaos KillShard, or an explicit DumpToEnvPath() call — each writes every
// ring, merged in global sequence order, as JSONL to the path named by the
// `CYCLESTREAM_FLIGHT_DUMP` environment variable (or any explicit path).

#ifndef CYCLESTREAM_OBS_FLIGHT_RECORDER_H_
#define CYCLESTREAM_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace cyclestream {
namespace obs {

/// Service event classes recorded in flight. Values appear in dumps;
/// append only.
enum class FlightEventKind : std::uint8_t {
  kEnqueue = 0,     // mailbox push (a = stream id, b = op kind byte)
  kDrain = 1,       // one drain batch (a = batch size, b = list pairs in it)
  kCreate = 2,      // stream created (a = stream id)
  kList = 3,        // adjacency list applied (a = stream id, b = pairs)
  kEndPass = 4,     // pass boundary applied (a = stream id, b = new pass)
  kQuery = 5,       // query answered (a = stream id, b = 1 if error reply)
  kCheckpoint = 6,  // shard checkpoint taken (a = streams, b = bytes)
  kRestore = 7,     // shard restore attempted (a = 1 ok / 0 failed)
  kKill = 8,        // shard killed — chaos crash point (a = streams lost)
  kError = 9,       // typed Status latched (a = stream id, b = status code)
};

/// "enqueue", "drain", ... (stable names used in dumps).
const char* FlightEventKindName(FlightEventKind kind);

/// One collected event (a consistent snapshot of a slot).
struct FlightEvent {
  std::uint64_t seq = 0;    // global submission order across all threads
  std::uint64_t t_ns = 0;   // nanoseconds since recorder construction
  FlightEventKind kind = FlightEventKind::kEnqueue;
  std::uint32_t shard = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t thread = 0;  // ring id (dense, per recording thread)
};

class FlightRecorder {
 public:
  /// `capacity` slots per writer thread, rounded up to a power of two
  /// (>= 2). Older events are overwritten — each thread keeps its most
  /// recent `capacity` events.
  explicit FlightRecorder(std::size_t capacity = 256);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Wait-free, callable from any thread concurrently with Collect().
  void Record(FlightEventKind kind, std::uint32_t shard, std::uint64_t a = 0,
              std::uint64_t b = 0);

  /// Best-effort snapshot of every thread's ring, merged and sorted by
  /// global sequence. Slots mid-write are skipped, never blocked on.
  std::vector<FlightEvent> Collect() const;

  /// Collect() as JSONL, one event object per line (seq order):
  /// {"seq":..,"t_ns":..,"kind":"drain","shard":..,"a":..,"b":..,
  ///  "thread":..}
  std::string DumpText() const;

  /// Writes DumpText() to `path`. NotFound-style Status when the file
  /// cannot be opened.
  Status WriteTo(const std::string& path) const;

  /// Writes the dump to the path named by the `CYCLESTREAM_FLIGHT_DUMP`
  /// environment variable. No-op (OK) when the variable is unset; used by
  /// the service's fatal-Status and chaos crash hooks so every run is
  /// dump-ready without plumbing a path.
  Status DumpToEnvPath() const;

  /// Total events recorded (including ones already overwritten).
  std::uint64_t recorded() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot;
  struct Ring;

  Ring* LocalRing();

  const std::size_t capacity_;  // power of two
  const std::uint64_t id_;      // thread-local cache key (never reused)
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<std::uint64_t> next_seq_{0};
  mutable std::mutex rings_mu_;  // guards ring registration/iteration only
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace obs
}  // namespace cyclestream

#endif  // CYCLESTREAM_OBS_FLIGHT_RECORDER_H_
