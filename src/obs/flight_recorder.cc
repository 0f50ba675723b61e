#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "obs/json.h"

namespace cyclestream {
namespace obs {
namespace {

std::uint64_t NextRecorderId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::size_t RoundUpPow2(std::size_t v) {
  std::size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kEnqueue: return "enqueue";
    case FlightEventKind::kDrain: return "drain";
    case FlightEventKind::kCreate: return "create";
    case FlightEventKind::kList: return "list";
    case FlightEventKind::kEndPass: return "end_pass";
    case FlightEventKind::kQuery: return "query";
    case FlightEventKind::kCheckpoint: return "checkpoint";
    case FlightEventKind::kRestore: return "restore";
    case FlightEventKind::kKill: return "kill";
    case FlightEventKind::kError: return "error";
  }
  return "unknown";
}

// Seqlocked slot: `version` is odd while the owning thread writes. All
// fields are relaxed atomics so concurrent Collect() reads are race-free;
// consistency comes from the version re-check, not from ordering between
// the payload fields themselves. The ordering needs fences (Boehm, "Can
// Seqlocks Get Along with Programming Language Memory Models?", MSPC 2012):
// a release store of the odd version would not keep the later payload
// stores after it, nor an acquire re-read of the version the earlier
// payload loads before it. Record's release fence and Collect's acquire
// fence do, so a reader that sees the same even version on both sides read
// no half-written payload.
struct FlightRecorder::Slot {
  std::atomic<std::uint64_t> version{0};
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> t_ns{0};
  std::atomic<std::uint32_t> kind_shard{0};  // kind in the low byte
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
};

struct FlightRecorder::Ring {
  explicit Ring(std::size_t capacity, std::uint32_t id)
      : id(id), slots(capacity) {}

  const std::uint32_t id;
  std::vector<Slot> slots;
  std::size_t next = 0;  // writer-only cursor
};

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(RoundUpPow2(capacity)),
      id_(NextRecorderId()),
      origin_(std::chrono::steady_clock::now()) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::Ring* FlightRecorder::LocalRing() {
  // Keyed by recorder id, not pointer, so a destroyed recorder's cache
  // entries can never alias a new recorder at the same address (the same
  // trick as MetricsRegistry::LocalShard).
  thread_local std::unordered_map<std::uint64_t, Ring*> cache;
  auto it = cache.find(id_);
  if (it != cache.end()) return it->second;
  std::lock_guard<std::mutex> lock(rings_mu_);
  auto ring = std::make_unique<Ring>(
      capacity_, static_cast<std::uint32_t>(rings_.size()));
  Ring* raw = ring.get();
  rings_.push_back(std::move(ring));
  cache.emplace(id_, raw);
  return raw;
}

void FlightRecorder::Record(FlightEventKind kind, std::uint32_t shard,
                            std::uint64_t a, std::uint64_t b) {
  Ring* ring = LocalRing();
  Slot& slot = ring->slots[ring->next & (capacity_ - 1)];
  ring->next++;
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const auto delta = std::chrono::steady_clock::now() - origin_;
  const std::uint64_t t_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(delta).count());
  const std::uint64_t v = slot.version.load(std::memory_order_relaxed);
  slot.version.store(v + 1, std::memory_order_relaxed);  // odd: mid-write
  std::atomic_thread_fence(std::memory_order_release);
  slot.seq.store(seq, std::memory_order_relaxed);
  slot.t_ns.store(t_ns, std::memory_order_relaxed);
  slot.kind_shard.store(static_cast<std::uint32_t>(kind) | (shard << 8),
                        std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.version.store(v + 2, std::memory_order_release);  // even: published
}

std::vector<FlightEvent> FlightRecorder::Collect() const {
  std::vector<FlightEvent> out;
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (const auto& ring : rings_) {
    for (const Slot& slot : ring->slots) {
      const std::uint64_t v1 = slot.version.load(std::memory_order_acquire);
      if (v1 == 0 || (v1 & 1) != 0) continue;  // empty or mid-write
      FlightEvent event;
      event.seq = slot.seq.load(std::memory_order_relaxed);
      event.t_ns = slot.t_ns.load(std::memory_order_relaxed);
      const std::uint32_t ks =
          slot.kind_shard.load(std::memory_order_relaxed);
      event.kind = static_cast<FlightEventKind>(ks & 0xff);
      event.shard = ks >> 8;
      event.a = slot.a.load(std::memory_order_relaxed);
      event.b = slot.b.load(std::memory_order_relaxed);
      event.thread = ring->id;
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t v2 = slot.version.load(std::memory_order_relaxed);
      if (v1 != v2) continue;  // torn: the writer lapped us
      out.push_back(event);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              return x.seq < y.seq;
            });
  return out;
}

std::string FlightRecorder::DumpText() const {
  std::string out;
  for (const FlightEvent& event : Collect()) {
    Json row = Json::Object();
    row.Set("seq", Json(event.seq));
    row.Set("t_ns", Json(event.t_ns));
    row.Set("kind", Json(FlightEventKindName(event.kind)));
    row.Set("shard", Json(event.shard));
    row.Set("a", Json(event.a));
    row.Set("b", Json(event.b));
    row.Set("thread", Json(event.thread));
    out += row.Dump();
    out += '\n';
  }
  return out;
}

Status FlightRecorder::WriteTo(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::NotFound("flight recorder: cannot open '" + path +
                            "' for writing");
  }
  const std::string text = DumpText();
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  return Status::Ok();
}

Status FlightRecorder::DumpToEnvPath() const {
  const char* path = std::getenv("CYCLESTREAM_FLIGHT_DUMP");
  if (path == nullptr || path[0] == '\0') return Status::Ok();
  return WriteTo(path);
}

}  // namespace obs
}  // namespace cyclestream
