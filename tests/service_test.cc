// The service layer's determinism contract: a sharded, multi-threaded
// EstimatorService must produce estimates, RunReports, and checkpoint bytes
// bit-identical to running each stream through the single-stream driver
// sequentially — for ANY (streams, shards, threads) configuration — and a
// shard killed mid-ingest and restored from its last checkpoint must finish
// indistinguishable from an uninterrupted run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "service/estimator_host.h"
#include "service/mailbox.h"
#include "service/service.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"
#include "stream/random_order_stream.h"
#include "test_util.h"
#include "util/status.h"

namespace cyclestream {
namespace service {
namespace {

using testing_util::ExpectReportsEqual;
using testing_util::GeneratorFamilies;
using testing_util::GraphFamily;

// ---------------------------------------------------------------------------
// Mailbox.

// The smallest op the mailbox takes: a payload plus the arena slice Push
// fills in.
struct TestOp {
  int value = 0;
  std::size_t list_begin = 0;
  std::size_t list_size = 0;
};
using TestMailbox = Mailbox<TestOp, VertexId>;

std::vector<int> Values(const std::vector<TestOp>& ops) {
  std::vector<int> values;
  for (const TestOp& op : ops) values.push_back(op.value);
  return values;
}

std::vector<VertexId> ListOf(const TestOp& op,
                             const std::vector<VertexId>& arena) {
  const auto first =
      arena.begin() + static_cast<std::ptrdiff_t>(op.list_begin);
  return std::vector<VertexId>(
      first, first + static_cast<std::ptrdiff_t>(op.list_size));
}

TEST(Mailbox, SingleProducerIsFifoAcrossTakes) {
  TestMailbox box;
  std::vector<TestOp> ops;
  std::vector<VertexId> arena;
  for (int i = 0; i < 5; ++i) box.Push({i});
  ASSERT_TRUE(box.TakeAll(&ops, &arena));
  EXPECT_EQ(Values(ops), (std::vector<int>{0, 1, 2, 3, 4}));
  box.Push({5});
  box.Push({6});
  ASSERT_TRUE(box.TakeAll(&ops, &arena));
  EXPECT_EQ(Values(ops), (std::vector<int>{5, 6}));
  EXPECT_FALSE(box.TakeAll(&ops, &arena));
}

TEST(Mailbox, PushSchedulesOncePerIdlePeriod) {
  TestMailbox box;
  std::vector<TestOp> ops;
  std::vector<VertexId> arena;
  EXPECT_TRUE(box.Push({0}));   // idle shard: this caller submits the drain
  EXPECT_FALSE(box.Push({1}));  // that drain is already owed
  ASSERT_TRUE(box.TakeAll(&ops, &arena));
  EXPECT_FALSE(box.Push({2}));  // the drain owns the shard until a take is empty
  ASSERT_TRUE(box.TakeAll(&ops, &arena));
  EXPECT_EQ(Values(ops), (std::vector<int>{2}));
  EXPECT_FALSE(box.TakeAll(&ops, &arena));
  EXPECT_TRUE(box.Push({3}));  // the next idle period
  EXPECT_FALSE(box.Push({4}));
}

TEST(Mailbox, EmptyTakeAllReleasesTheShardAndClearsTheBuffers) {
  TestMailbox box;
  std::vector<TestOp> ops;
  std::vector<VertexId> arena;
  const std::vector<VertexId> list = {7, 8};
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(box.Push({round}, list));
    ASSERT_TRUE(box.TakeAll(&ops, &arena));
    EXPECT_EQ(arena, list);
    EXPECT_FALSE(box.TakeAll(&ops, &arena));
    EXPECT_TRUE(ops.empty());
    EXPECT_TRUE(arena.empty());
  }
}

TEST(Mailbox, OpsAndArenaStayAlignedAcrossSwaps) {
  TestMailbox box;
  std::vector<TestOp> ops;
  std::vector<VertexId> arena;
  // Rounds of lists of 0-3 elements, so the two buffer pairs trade places
  // several times at different fill levels.
  int next = 0;
  for (int round = 0; round < 4; ++round) {
    std::vector<std::vector<VertexId>> sent;
    for (int i = 0; i < 5 + round; ++i, ++next) {
      std::vector<VertexId> list;
      for (int j = 0; j < next % 4; ++j) {
        list.push_back(static_cast<VertexId>(100 * next + j));
      }
      box.Push({next}, list);
      sent.push_back(std::move(list));
    }
    ASSERT_TRUE(box.TakeAll(&ops, &arena));
    ASSERT_EQ(ops.size(), sent.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(ListOf(ops[i], arena), sent[i])
          << "round " << round << " op " << i;
    }
  }
}

TEST(Mailbox, DestructorFreesPendingOps) {
  // ASan would flag the leak if the destructor dropped them.
  struct OwningOp {
    std::unique_ptr<std::string> text;
    std::size_t list_begin = 0;
    std::size_t list_size = 0;
  };
  Mailbox<OwningOp, VertexId> box;
  const std::vector<VertexId> list = {1, 2, 3};
  box.Push({std::make_unique<std::string>("left")}, list);
  box.Push({std::make_unique<std::string>("behind")});
}

TEST(Mailbox, ConcurrentProducersKeepTheirOrderAndLists) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  TestMailbox box;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const VertexId list[] = {static_cast<VertexId>(p),
                                 static_cast<VertexId>(i)};
        box.Push({p * kPerProducer + i}, list);
      }
    });
  }
  // Take while the producers push; check after they are joined.
  std::vector<TestOp> taken;
  std::vector<std::vector<VertexId>> lists;
  std::vector<TestOp> ops;
  std::vector<VertexId> arena;
  while (taken.size() < static_cast<std::size_t>(kProducers * kPerProducer)) {
    if (!box.TakeAll(&ops, &arena)) continue;
    for (const TestOp& op : ops) {
      taken.push_back(op);
      lists.push_back(ListOf(op, arena));
    }
  }
  for (std::thread& t : producers) t.join();
  std::vector<int> next(kProducers, 0);
  for (std::size_t k = 0; k < taken.size(); ++k) {
    const int p = taken[k].value / kPerProducer;
    const int i = taken[k].value % kPerProducer;
    EXPECT_EQ(i, next[p]++) << "producer " << p;
    EXPECT_EQ(lists[k], (std::vector<VertexId>{static_cast<VertexId>(p),
                                               static_cast<VertexId>(i)}));
  }
}

// ---------------------------------------------------------------------------
// Estimator host.

TEST(EstimatorHost, EveryKindConstructsAndSpecRoundTrips) {
  for (int k = 0; k < kEstimatorKinds; ++k) {
    EstimatorSpec spec;
    spec.kind = static_cast<EstimatorKind>(k);
    spec.slots = 9;
    spec.seed = 77;
    StatusOr<HostedEstimator> hosted = MakeHosted(spec);
    ASSERT_TRUE(hosted.ok()) << KindName(spec.kind);
    EXPECT_NE(hosted->algo, nullptr);
    EXPECT_NE(hosted->estimate, nullptr);
    EXPECT_GE(hosted->algo->passes(), 1);

    snapshot::SnapshotWriter w;
    SerializeSpec(spec, w);
    std::vector<std::uint8_t> bytes = std::move(w).Finish();
    StatusOr<snapshot::SnapshotReader> r = snapshot::SnapshotReader::Open(bytes);
    ASSERT_TRUE(r.ok());
    StatusOr<EstimatorSpec> back = RestoreSpec(*r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, spec);
  }
}

TEST(EstimatorHost, UnknownKindIsInvalidArgument) {
  EstimatorSpec spec;
  spec.kind = static_cast<EstimatorKind>(99);
  StatusOr<HostedEstimator> hosted = MakeHosted(spec);
  ASSERT_FALSE(hosted.ok());
  EXPECT_EQ(hosted.status().code(), StatusCode::kInvalidArgument);

  snapshot::SnapshotWriter w;
  SerializeSpec(spec, w);
  std::vector<std::uint8_t> bytes = std::move(w).Finish();
  StatusOr<snapshot::SnapshotReader> r = snapshot::SnapshotReader::Open(bytes);
  ASSERT_TRUE(r.ok());
  StatusOr<EstimatorSpec> back = RestoreSpec(*r);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Sharding.

TEST(ShardOf, StableInRangeAndLeavesNoShardEmpty) {
  for (int shards : {1, 2, 4, 8}) {
    std::set<int> hit;
    for (StreamId id = 0; id < 10000; ++id) {
      const int s = EstimatorService::ShardOf(id, shards);
      EXPECT_EQ(s, EstimatorService::ShardOf(id, shards));
      ASSERT_GE(s, 0);
      ASSERT_LT(s, shards);
      hit.insert(s);
    }
    EXPECT_EQ(hit.size(), static_cast<std::size_t>(shards));
  }
}

// ---------------------------------------------------------------------------
// Bit-identity versus the single-stream driver.

// One hosted stream's full client-side event tape plus its driver-computed
// reference (estimate + report), so the same tape can be replayed against
// any service configuration.
struct Workload {
  StreamId id = 0;
  EstimatorSpec spec;
  // Event tape: one entry per adjacency list in pass order; `end_pass`
  // entries carry no list.
  struct Event {
    bool end_pass = false;
    VertexId u = 0;
    std::vector<VertexId> list;
  };
  std::vector<Event> events;
  double want_estimate = 0.0;
  stream::RunReport want_report;
};

// Builds one workload per (estimator kind, generator family): the stream id
// spreads over shards, the reference runs through stream::RunPasses with
// the exact same estimator options (via MakeHosted).
std::vector<Workload> BuildWorkloads(std::uint64_t seed) {
  std::vector<Workload> out;
  StreamId next_id = 1000;
  for (const GraphFamily& family : GeneratorFamilies()) {
    Graph g = family.make(seed);
    stream::AdjacencyListStream stream(&g, seed);
    for (int k = 0; k < kEstimatorKinds; ++k) {
      Workload w;
      w.id = next_id++;
      w.spec.kind = static_cast<EstimatorKind>(k);
      w.spec.slots = 8 + static_cast<std::uint64_t>(k);
      w.spec.seed = seed + static_cast<std::uint64_t>(k) + 1;

      StatusOr<HostedEstimator> ref = MakeHosted(w.spec);
      EXPECT_TRUE(ref.ok());
      if (w.spec.kind == EstimatorKind::kRandomOrderTriangle) {
        // This kind declares the random-order model: its reference run and
        // tape come from a RandomOrderStream's u-runs — the service itself
        // is model-agnostic and replays whatever grammar the tape carries.
        stream::RandomOrderStream ro(&g, seed);
        w.want_report = stream::RunPasses(ro, ref->algo.get());
        w.want_estimate = ref->estimate(*ref->algo);
        for (int pass = 0; pass < ref->algo->passes(); ++pass) {
          struct Tape {
            std::vector<Workload::Event>* events;
            void BeginList(VertexId u) { events->push_back({false, u, {}}); }
            void OnPair(VertexId, VertexId v) {
              events->back().list.push_back(v);
            }
            void EndList(VertexId) {}
          } tape{&w.events};
          ro.ReplayPass(tape);
          w.events.push_back({true, 0, {}});
        }
        out.push_back(std::move(w));
        continue;
      }
      w.want_report = stream::RunPasses(stream, ref->algo.get());
      w.want_estimate = ref->estimate(*ref->algo);

      for (int pass = 0; pass < ref->algo->passes(); ++pass) {
        for (VertexId u : stream.list_order()) {
          auto span = stream.ListOf(u);
          w.events.push_back(
              {false, u, std::vector<VertexId>(span.begin(), span.end())});
        }
        w.events.push_back({true, 0, {}});
      }
      out.push_back(std::move(w));
    }
  }
  return out;
}

void CreateAll(EstimatorService& svc, const std::vector<Workload>& work) {
  std::vector<std::future<Status>> created;
  created.reserve(work.size());
  for (const Workload& w : work) created.push_back(svc.Create(w.id, w.spec));
  for (auto& f : created) EXPECT_TRUE(f.get().ok());
}

// Replays event index k of every stream before index k+1 of any — maximal
// cross-stream interleaving while preserving each stream's own order.
void FeedInterleaved(EstimatorService& svc, const std::vector<Workload>& work,
                     std::size_t from, std::size_t to) {
  std::size_t longest = 0;
  for (const Workload& w : work) longest = std::max(longest, w.events.size());
  for (std::size_t k = from; k < std::min(to, longest); ++k) {
    for (const Workload& w : work) {
      if (k >= w.events.size()) continue;
      const Workload::Event& e = w.events[k];
      if (e.end_pass) {
        svc.EndPass(w.id);
      } else {
        svc.Append(w.id, e.u, e.list);
      }
    }
  }
}

void ExpectMatchesReferences(EstimatorService& svc,
                             const std::vector<Workload>& work) {
  for (const Workload& w : work) {
    SCOPED_TRACE("stream " + std::to_string(w.id) + " (" +
                 KindName(w.spec.kind) + ")");
    StatusOr<StreamView> view = svc.Query(w.id).get();
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view->spec, w.spec);
    EXPECT_TRUE(view->finished);
    EXPECT_EQ(view->pass, view->passes_requested);
    EXPECT_EQ(view->estimate, w.want_estimate);
    ExpectReportsEqual(view->report, w.want_report);
  }
}

TEST(ServiceBitIdentity, AnyShardsThreadsConfigMatchesTheDriver) {
  const std::vector<Workload> work = BuildWorkloads(7);
  struct Config {
    int shards;
    int threads;
    std::size_t drain_budget;
  };
  // Includes more-threads-than-shards, fewer-threads-than-shards, a single
  // worker, and a tiny drain budget (forces mid-tape drain re-submission).
  for (const Config& cfg : std::vector<Config>{
           {1, 1, 1024}, {4, 2, 1024}, {8, 8, 1024}, {3, 5, 1024}, {4, 4, 3}}) {
    SCOPED_TRACE("shards=" + std::to_string(cfg.shards) +
                 " threads=" + std::to_string(cfg.threads) +
                 " budget=" + std::to_string(cfg.drain_budget));
    ServiceOptions options;
    options.shards = cfg.shards;
    options.threads = cfg.threads;
    options.drain_budget = cfg.drain_budget;
    EstimatorService svc(options);
    EXPECT_EQ(svc.shards(), cfg.shards);
    EXPECT_EQ(svc.threads(), cfg.threads);
    CreateAll(svc, work);
    FeedInterleaved(svc, work, 0, SIZE_MAX);
    ExpectMatchesReferences(svc, work);
  }
}

TEST(ServiceBitIdentity, MeteredAndUnmeteredRunsAgree) {
  const std::vector<Workload> work = BuildWorkloads(11);
  obs::MetricsRegistry metrics;
  ServiceOptions options;
  options.shards = 4;
  options.metrics = &metrics;
  EstimatorService svc(options);
  CreateAll(svc, work);
  FeedInterleaved(svc, work, 0, SIZE_MAX);
  ExpectMatchesReferences(svc, work);
  svc.Flush();

  obs::Snapshot snap = metrics.Read();
  EXPECT_GT(snap.counters["service.ops"], 0u);
  EXPECT_GT(snap.counters["service.lists"], 0u);
  EXPECT_GT(snap.counters["service.pairs"], 0u);
  EXPECT_GT(snap.counters["service.queries"], 0u);
  EXPECT_GT(snap.counters["service.drains"], 0u);
  EXPECT_GT(snap.histograms["service.queue_depth"].count, 0u);
  EXPECT_GT(snap.histograms["service.op_latency_seconds"].count, 0u);
  EXPECT_GT(snap.histograms["service.shard_occupancy"].count, 0u);
}

// ---------------------------------------------------------------------------
// Request tracing + profiling.

TEST(ServiceTracing, TracedProfiledRunIsBitIdenticalWithOneFlowPerStream) {
  const std::vector<Workload> work = BuildWorkloads(17);
  obs::MetricsRegistry metrics;
  obs::TraceSession trace;
  obs::Profiler prof;
  ServiceOptions options;
  options.shards = 4;
  options.metrics = &metrics;
  options.trace = &trace;
  options.prof = &prof;
  EstimatorService svc(options);
  CreateAll(svc, work);
  FeedInterleaved(svc, work, 0, SIZE_MAX);
  // Telemetry never touches estimator inputs: the fully instrumented run
  // still matches the bare single-stream driver bit for bit.
  ExpectMatchesReferences(svc, work);
  svc.Flush();

  // Each drain batch ran under the "service.drain" ProfScope.
  const auto aggregates = prof.Read();
  ASSERT_EQ(aggregates.count("service.drain"), 1u);
  EXPECT_GT(aggregates.at("service.drain").count, 0u);

  // Latency attribution trio: queue wait, whole-batch drain, per-op compute.
  obs::Snapshot snap = metrics.Read();
  EXPECT_GT(snap.histograms["service.op_latency_seconds"].count, 0u);
  EXPECT_GT(snap.histograms["service.drain_batch_seconds"].count, 0u);
  EXPECT_GT(snap.histograms["service.op_process_seconds"].count, 0u);

  // The scrape surface carries the profiler's gauges (ScrapeMetrics
  // refreshes them), including the fallback flag for downstream tooling.
  const std::string scrape = svc.ScrapeMetrics();
  EXPECT_NE(scrape.find("prof_fallback"), std::string::npos);
  EXPECT_NE(scrape.find("prof_task_clock_seconds"), std::string::npos);
  EXPECT_NE(scrape.find("service_drain_batch_seconds"), std::string::npos);
  EXPECT_NE(scrape.find("service_op_process_seconds"), std::string::npos);

  // Flow structure: every stream's requests form one arrow chain — exactly
  // one start ('s', the Create), exactly one end ('f', the Query), steps
  // in between — and producer/consumer slices both exist for the chain to
  // bind to.
  const obs::Json doc = trace.ToJson();
  const obs::Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, int> starts, steps, ends;
  bool saw_enqueue = false, saw_drain = false, saw_query = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const obs::Json& e = events->at(i);
    const std::string ph = e.Find("ph")->AsString();
    const std::string name = e.Find("name")->AsString();
    if (ph == "s") ++starts[e.Find("id")->AsString()];
    if (ph == "t") ++steps[e.Find("id")->AsString()];
    if (ph == "f") ++ends[e.Find("id")->AsString()];
    if (ph == "X" && name.rfind("service.enqueue", 0) == 0) saw_enqueue = true;
    if (ph == "X" && name == "service.drain") saw_drain = true;
    if (ph == "X" && name == "service.query") saw_query = true;
  }
  EXPECT_TRUE(saw_enqueue);
  EXPECT_TRUE(saw_drain);
  EXPECT_TRUE(saw_query);
  EXPECT_EQ(starts.size(), work.size());  // one chain per stream
  for (const auto& [id, n] : starts) EXPECT_EQ(n, 1) << id;
  for (const auto& [id, n] : ends) {
    EXPECT_EQ(n, 1) << id;
    EXPECT_EQ(starts.count(id), 1u) << id;  // every end closes a start
  }
  EXPECT_EQ(ends.size(), work.size());  // every stream was queried once
  for (const auto& [id, n] : steps) EXPECT_EQ(starts.count(id), 1u) << id;
}

TEST(ServiceTracing, TwoServicesSharingOneSessionKeepFlowChainsDisjoint) {
  // Sweep harnesses create a fresh service per configuration but reuse
  // stream ids; without a per-instance salt every config's chains would
  // merge into one tangled arrow. Same ids, same session, two services:
  // the flow ids must not collide.
  obs::TraceSession trace;
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kExactStreamTriangle;
  spec.seed = 5;
  for (int round = 0; round < 2; ++round) {
    ServiceOptions options;
    options.shards = 2;
    options.trace = &trace;
    EstimatorService svc(options);
    EXPECT_TRUE(svc.Create(77, spec).get().ok());
    svc.Append(77, 0, std::vector<VertexId>{1, 2});
    svc.EndPass(77);
    EXPECT_TRUE(svc.Query(77).get().ok());
  }
  const obs::Json doc = trace.ToJson();
  const obs::Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, int> starts;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const obs::Json& e = events->at(i);
    if (e.Find("ph")->AsString() == "s") ++starts[e.Find("id")->AsString()];
  }
  ASSERT_EQ(starts.size(), 2u);  // distinct chain per service instance
  for (const auto& [id, n] : starts) EXPECT_EQ(n, 1) << id;
}

TEST(ServiceTracing, UntracedServiceStampsNoTraceContexts) {
  // With no TraceSession the request path must not pay for tracing: no
  // trace events exist anywhere to assert on, so probe the contract from
  // the outside — a service without a session behaves identically and
  // Query still works (the TraceContext stays all-zero internally).
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kExactStreamTriangle;
  spec.seed = 5;
  ServiceOptions options;
  options.shards = 1;
  EstimatorService svc(options);
  EXPECT_TRUE(svc.Create(1, spec).get().ok());
  svc.Append(1, 0, std::vector<VertexId>{1, 2});
  svc.EndPass(1);
  StatusOr<StreamView> view = svc.Query(1).get();
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->finished);
}

// ---------------------------------------------------------------------------
// Checkpoint / kill / restore.

TEST(ServiceChaos, KillAndRestoreAtAnyBatchBoundaryIsBitIdentical) {
  const std::vector<Workload> work = BuildWorkloads(13);
  std::size_t longest = 0;
  for (const Workload& w : work) longest = std::max(longest, w.events.size());

  // Uninterrupted control run, kept alive to compare final checkpoints.
  ServiceOptions options;
  options.shards = 4;
  EstimatorService control(options);
  CreateAll(control, work);
  FeedInterleaved(control, work, 0, SIZE_MAX);
  ExpectMatchesReferences(control, work);

  // Split the tape at several boundaries, including mid-pass ones (the
  // two-pass estimators' first pass ends mid-tape).
  for (std::size_t split : {std::size_t{1}, longest / 3, longest / 2,
                            longest - 1}) {
    SCOPED_TRACE("split=" + std::to_string(split));
    EstimatorService svc(options);
    CreateAll(svc, work);
    FeedInterleaved(svc, work, 0, split);
    svc.Flush();

    // Checkpoint every shard, then crash every shard.
    std::vector<std::vector<std::uint8_t>> manifests;
    for (int s = 0; s < svc.shards(); ++s) {
      StatusOr<std::vector<std::uint8_t>> m = svc.CheckpointShard(s).get();
      ASSERT_TRUE(m.ok()) << m.status().ToString();
      manifests.push_back(std::move(m).value());
    }
    std::size_t lost = 0;
    for (int s = 0; s < svc.shards(); ++s) lost += svc.KillShard(s).get();
    EXPECT_EQ(lost, work.size());
    // Dead streams answer kNotFound until restored.
    EXPECT_EQ(svc.Query(work[0].id).get().status().code(),
              StatusCode::kNotFound);

    for (int s = 0; s < svc.shards(); ++s) {
      Status restored = svc.RestoreShard(s, manifests[static_cast<std::size_t>(s)]).get();
      ASSERT_TRUE(restored.ok()) << restored.ToString();
    }
    FeedInterleaved(svc, work, split, SIZE_MAX);
    ExpectMatchesReferences(svc, work);

    // Strongest form: the final whole-shard checkpoints are byte-identical
    // to the uninterrupted service's.
    for (int s = 0; s < svc.shards(); ++s) {
      StatusOr<std::vector<std::uint8_t>> a = control.CheckpointShard(s).get();
      StatusOr<std::vector<std::uint8_t>> b = svc.CheckpointShard(s).get();
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(*a, *b) << "shard " << s;
    }
  }
}

TEST(ServiceChaos, RestoreRejectsForeignAndCorruptManifests) {
  ServiceOptions options;
  options.shards = 2;
  EstimatorService svc(options);

  // Park one stream on each shard.
  StreamId on_shard0 = 0;
  StreamId on_shard1 = 0;
  for (StreamId id = 1;; ++id) {
    if (on_shard0 == 0 && EstimatorService::ShardOf(id, 2) == 0) on_shard0 = id;
    if (on_shard1 == 0 && EstimatorService::ShardOf(id, 2) == 1) on_shard1 = id;
    if (on_shard0 != 0 && on_shard1 != 0) break;
  }
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kExactStreamTriangle;
  ASSERT_TRUE(svc.Create(on_shard0, spec).get().ok());
  ASSERT_TRUE(svc.Create(on_shard1, spec).get().ok());
  Graph g = testing_util::Triangle();
  stream::AdjacencyListStream stream(&g, 3);
  for (VertexId u : stream.list_order()) {
    svc.Append(on_shard0, u, stream.ListOf(u));
    svc.Append(on_shard1, u, stream.ListOf(u));
  }
  svc.EndPass(on_shard0);
  svc.EndPass(on_shard1);

  StatusOr<std::vector<std::uint8_t>> manifest = svc.CheckpointShard(0).get();
  ASSERT_TRUE(manifest.ok());

  // Foreign: shard 0's manifest holds ids that hash to shard 0 only.
  Status foreign = svc.RestoreShard(1, *manifest).get();
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.code(), StatusCode::kFailedPrecondition);

  // Corrupt: flip a payload byte; every corruption class is a typed error.
  std::vector<std::uint8_t> bad = *manifest;
  bad[bad.size() / 2] ^= 0x40;
  Status corrupt = svc.RestoreShard(0, bad).get();
  EXPECT_FALSE(corrupt.ok());

  // Truncated.
  std::vector<std::uint8_t> cut(manifest->begin(), manifest->end() - 5);
  Status truncated = svc.RestoreShard(0, cut).get();
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.code(), StatusCode::kDataLoss);

  // Failed restores must leave the shard's pre-restore state untouched.
  StatusOr<StreamView> view = svc.Query(on_shard0).get();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->estimate, 1.0);  // the triangle
  EXPECT_TRUE(view->finished);
}

TEST(ServiceChaos, RestoreRejectsAHugePassCountAndTheShardKeepsDraining) {
  // A nested per-pass count no payload could hold, resealed under valid
  // CRCs, must fail the restore with kDataLoss rather than throw on the
  // shard's drain task: the shard keeps its streams and answers later ops.
  ServiceOptions options;
  options.shards = 1;
  auto svc = std::make_unique<EstimatorService>(options);
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kExactStreamTriangle;
  const StreamId id = 7;
  ASSERT_TRUE(svc->Create(id, spec).get().ok());
  Graph g = testing_util::Triangle();
  stream::AdjacencyListStream stream(&g, 3);
  for (VertexId u : stream.list_order()) svc->Append(id, u, stream.ListOf(u));
  svc->EndPass(id);
  StatusOr<StreamView> before = svc->Query(id).get();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  StatusOr<std::vector<std::uint8_t>> manifest =
      svc->CheckpointShard(0).get();
  ASSERT_TRUE(manifest.ok());

  // Find the stream's RunReport in its nested envelope by its encoding and
  // patch the per-pass count after its five scalars.
  snapshot::SnapshotWriter w;
  stream::internal::SerializeReport(before->report, w);
  const std::vector<std::uint8_t> sealed = std::move(w).Finish();
  const std::span<const std::uint8_t> report_bytes =
      std::span<const std::uint8_t>(sealed).subspan(
          20, sealed.size() - snapshot::kEnvelopeBytes);
  std::vector<std::uint8_t> bad = *manifest;
  const auto report_at = std::search(bad.begin(), bad.end(),
                                     report_bytes.begin(), report_bytes.end());
  ASSERT_NE(report_at, bad.end());
  testing_util::PatchU64(
      bad, static_cast<std::size_t>(report_at - bad.begin()) + 5 * 8,
      std::uint64_t{1} << 50);
  // Reseal the nested envelope (the manifest's second magic), then the
  // manifest around it.
  const std::string magic = "CYSNAPSH";
  const auto nested_at =
      std::search(bad.begin() + 1, bad.end(), magic.begin(), magic.end());
  ASSERT_NE(nested_at, bad.end());
  const std::size_t nested = static_cast<std::size_t>(nested_at - bad.begin());
  std::uint64_t payload = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    payload |= std::uint64_t{bad[nested + 12 + i]} << (8 * i);
  }
  testing_util::Reseal(std::span<std::uint8_t>(bad).subspan(
      nested, payload + snapshot::kEnvelopeBytes));
  testing_util::Reseal(bad);

  std::future<Status> restore = svc->RestoreShard(0, bad);
  std::future<StatusOr<StreamView>> query = svc->Query(id);
  if (query.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    // The shard's drain died mid-restore; ~EstimatorService would wait on
    // it forever in Flush(), so leave the service behind and fail.
    (void)svc.release();
    FAIL() << "the shard stopped draining after the restore";
  }
  Status restored = restore.get();
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kDataLoss) << restored.ToString();
  StatusOr<StreamView> after = query.get();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectReportsEqual(after->report, before->report);
  EXPECT_EQ(after->estimate, before->estimate);
}

TEST(ServiceChaos, RestoreRejectsAZeroGeneratorStateAndTheShardKeepsServing) {
  // Wedge sampling's generator words, zeroed in a manifest resealed under
  // valid CRCs, must fail the restore with kDataLoss rather than abort the
  // process from the shard's drain task; the shard keeps its streams.
  ServiceOptions options;
  options.shards = 1;
  EstimatorService svc(options);
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kWedgeSamplingTriangle;
  spec.slots = 12;
  spec.seed = 3;
  const StreamId id = 7;
  ASSERT_TRUE(svc.Create(id, spec).get().ok());
  const Graph g = gen::ErdosRenyiGnp(40, 0.3, 7);
  stream::AdjacencyListStream stream(&g, 7);
  for (VertexId u : stream.list_order()) svc.Append(id, u, stream.ListOf(u));
  svc.EndPass(id);
  StatusOr<StreamView> before = svc.Query(id).get();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  StatusOr<std::vector<std::uint8_t>> manifest = svc.CheckpointShard(0).get();
  ASSERT_TRUE(manifest.ok());

  // The estimator's section opens with its options (reservoir size, seed),
  // then the four generator words. The spec carries the same two numbers
  // earlier, so take the last copy.
  snapshot::SnapshotWriter w;
  w.WriteU64(spec.slots);
  w.WriteU64(spec.seed);
  const std::vector<std::uint8_t> sealed = std::move(w).Finish();
  std::vector<std::uint8_t> bad = *manifest;
  const auto options_at = std::find_end(bad.begin(), bad.end(),
                                        sealed.begin() + 20, sealed.end() - 4);
  ASSERT_NE(options_at, bad.end());
  const std::size_t rng_at =
      static_cast<std::size_t>(options_at - bad.begin()) + 2 * 8;
  ASSERT_NE(testing_util::PeekU64(bad, rng_at), 0u);
  std::fill(bad.begin() + rng_at, bad.begin() + rng_at + 4 * 8, 0);
  // Reseal the nested envelope (the manifest's second magic), then the
  // manifest around it.
  const std::string magic = "CYSNAPSH";
  const auto nested_at =
      std::search(bad.begin() + 1, bad.end(), magic.begin(), magic.end());
  ASSERT_NE(nested_at, bad.end());
  const std::size_t nested = static_cast<std::size_t>(nested_at - bad.begin());
  const std::uint64_t payload = testing_util::PeekU64(bad, nested + 12);
  testing_util::Reseal(std::span<std::uint8_t>(bad).subspan(
      nested, payload + snapshot::kEnvelopeBytes));
  testing_util::Reseal(bad);

  Status restored = svc.RestoreShard(0, bad).get();
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kDataLoss) << restored.ToString();
  StatusOr<StreamView> after = svc.Query(id).get();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectReportsEqual(after->report, before->report);
  EXPECT_EQ(after->estimate, before->estimate);
}

// ---------------------------------------------------------------------------
// API misuse surfaces as typed errors, never wrong answers.

TEST(ServiceErrors, UnknownDuplicateAndMisusedStreams) {
  ServiceOptions options;
  options.shards = 2;
  EstimatorService svc(options);

  EXPECT_EQ(svc.Query(404).get().status().code(), StatusCode::kNotFound);

  EstimatorSpec spec;
  spec.kind = EstimatorKind::kOnePassTriangle;
  spec.slots = 4;
  spec.seed = 5;
  ASSERT_TRUE(svc.Create(1, spec).get().ok());
  Status dup = svc.Create(1, spec).get();
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kFailedPrecondition);

  Status bad_kind = svc.Create(2, EstimatorSpec{static_cast<EstimatorKind>(42),
                                                1, 1})
                        .get();
  ASSERT_FALSE(bad_kind.ok());
  EXPECT_EQ(bad_kind.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.Query(2).get().status().code(), StatusCode::kNotFound);

  // Feeding a finished stream latches an error every later Query returns.
  Graph g = testing_util::Triangle();
  stream::AdjacencyListStream stream(&g, 1);
  for (VertexId u : stream.list_order()) {
    svc.Append(1, u, stream.ListOf(u));
  }
  svc.EndPass(1);
  ASSERT_TRUE(svc.Query(1).get().ok());
  svc.EndPass(1);  // one pass too many
  StatusOr<StreamView> latched = svc.Query(1).get();
  ASSERT_FALSE(latched.ok());
  EXPECT_EQ(latched.status().code(), StatusCode::kFailedPrecondition);
  // Latched errors survive checkpoints.
  const int shard = EstimatorService::ShardOf(1, 2);
  StatusOr<std::vector<std::uint8_t>> manifest =
      svc.CheckpointShard(shard).get();
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(svc.KillShard(shard).get() >= 1);
  ASSERT_TRUE(svc.RestoreShard(shard, *manifest).get().ok());
  StatusOr<StreamView> still = svc.Query(1).get();
  ASSERT_FALSE(still.ok());
  EXPECT_EQ(still.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServiceErrors, LatchedStatusShowsInScrapeCountersAndFlightDump) {
  // A typed error latched in one shard must be visible from the outside:
  // the per-shard `service_errors_latched` counter moves in that shard
  // only, and the flight recorder holds a kError event naming the stream.
  obs::MetricsRegistry metrics;
  obs::FlightRecorder flight(256);
  ServiceOptions options;
  options.shards = 2;
  options.metrics = &metrics;
  options.flight = &flight;
  EstimatorService svc(options);

  EstimatorSpec spec;
  spec.kind = EstimatorKind::kOnePassTriangle;
  spec.slots = 4;
  spec.seed = 5;
  const StreamId id = 1;
  const int bad_shard = EstimatorService::ShardOf(id, options.shards);
  const int clean_shard = 1 - bad_shard;
  ASSERT_TRUE(svc.Create(id, spec).get().ok());

  Graph g = testing_util::Triangle();
  stream::AdjacencyListStream stream(&g, 1);
  for (VertexId u : stream.list_order()) {
    svc.Append(id, u, stream.ListOf(u));
  }
  svc.EndPass(id);
  ASSERT_TRUE(svc.Query(id).get().ok());
  svc.EndPass(id);  // one pass too many — latches kFailedPrecondition
  ASSERT_EQ(svc.Query(id).get().status().code(),
            StatusCode::kFailedPrecondition);

  // Scrape: the bad shard's counter reads 1, the clean shard's reads 0
  // (materialized at construction so absence can't be mistaken for health).
  const std::string scrape = svc.ScrapeMetrics();
  EXPECT_NE(scrape.find("service_errors_latched{shard=\"" +
                        std::to_string(bad_shard) + "\"} 1"),
            std::string::npos)
      << scrape;
  EXPECT_NE(scrape.find("service_errors_latched{shard=\"" +
                        std::to_string(clean_shard) + "\"} 0"),
            std::string::npos)
      << scrape;

  // Flight recorder: a kError event tagged with the shard, carrying the
  // stream id (a) and the status code (b).
  ASSERT_EQ(svc.flight_recorder(), &flight);
  bool saw_error_event = false;
  for (const obs::FlightEvent& e : flight.Collect()) {
    if (e.kind != obs::FlightEventKind::kError) continue;
    saw_error_event = true;
    EXPECT_EQ(e.shard, static_cast<std::uint32_t>(bad_shard));
    EXPECT_EQ(e.a, id);
    EXPECT_EQ(e.b,
              static_cast<std::uint64_t>(StatusCode::kFailedPrecondition));
  }
  EXPECT_TRUE(saw_error_event);
  EXPECT_NE(flight.DumpText().find("\"kind\":\"error\""), std::string::npos);
}

TEST(ServiceFlightRecorder, ControlOpsLeaveOneEventWithTheirOutcome) {
  // The flight recorder is the service's op record: every control op leaves
  // one event carrying what the caller got back. One shard on one worker,
  // so the events arrive in submission order.
  obs::FlightRecorder flight(256);
  ServiceOptions options;
  options.shards = 1;
  options.threads = 1;
  options.flight = &flight;
  EstimatorService svc(options);

  EstimatorSpec spec;
  spec.kind = EstimatorKind::kExactStreamTriangle;
  const StreamId id = 9;
  ASSERT_TRUE(svc.Create(id, spec).get().ok());
  Graph g = testing_util::Triangle();
  stream::AdjacencyListStream stream(&g, 3);
  for (VertexId u : stream.list_order()) svc.Append(id, u, stream.ListOf(u));
  svc.EndPass(id);
  StatusOr<std::vector<std::uint8_t>> manifest = svc.CheckpointShard(0).get();
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(svc.RestoreShard(0, *manifest).get().ok());
  std::vector<std::uint8_t> bad = *manifest;
  bad[bad.size() / 2] ^= 0x40;
  const Status corrupt = svc.RestoreShard(0, bad).get();
  ASSERT_FALSE(corrupt.ok());
  const std::size_t lost = svc.KillShard(0).get();
  EXPECT_EQ(lost, 1u);

  std::vector<obs::FlightEvent> control;
  for (const obs::FlightEvent& e : flight.Collect()) {
    if (e.kind == obs::FlightEventKind::kCreate ||
        e.kind == obs::FlightEventKind::kCheckpoint ||
        e.kind == obs::FlightEventKind::kRestore ||
        e.kind == obs::FlightEventKind::kKill) {
      control.push_back(e);
    }
  }
  struct Want {
    obs::FlightEventKind kind;
    std::uint64_t a, b;
  };
  const Want want[] = {
      {obs::FlightEventKind::kCreate, id, 0},
      {obs::FlightEventKind::kCheckpoint, 1, manifest->size()},
      {obs::FlightEventKind::kRestore, 1, 0},
      {obs::FlightEventKind::kRestore, 0,
       static_cast<std::uint64_t>(corrupt.code())},
      {obs::FlightEventKind::kKill, lost, 0},
  };
  ASSERT_EQ(control.size(), std::size(want));
  for (std::size_t i = 0; i < control.size(); ++i) {
    SCOPED_TRACE(obs::FlightEventKindName(want[i].kind));
    EXPECT_EQ(control[i].kind, want[i].kind);
    EXPECT_EQ(control[i].shard, 0u);
    EXPECT_EQ(control[i].a, want[i].a);
    EXPECT_EQ(control[i].b, want[i].b);
  }
}

TEST(ServiceFlightRecorder, DataOpsLeaveListEndPassAndQueryEvents) {
  // Each applied list, pass boundary and query answer leaves one event:
  // kList{stream, pairs}, kEndPass{stream, new pass}, kQuery{stream, 1 if
  // the reply is an error}. One shard on one worker keeps submission order.
  obs::FlightRecorder flight(256);
  ServiceOptions options;
  options.shards = 1;
  options.threads = 1;
  options.flight = &flight;
  EstimatorService svc(options);

  EstimatorSpec spec;
  spec.kind = EstimatorKind::kTwoPassTriangle;
  spec.slots = 4;
  spec.seed = 5;
  const StreamId id = 4;
  const StreamId unknown = 77;
  ASSERT_TRUE(svc.Create(id, spec).get().ok());
  Graph g = testing_util::TwoTrianglesSharedEdge();
  stream::AdjacencyListStream stream(&g, 2);
  struct Want {
    obs::FlightEventKind kind;
    std::uint64_t a, b;
  };
  std::vector<Want> want;
  for (int pass = 1; pass <= 2; ++pass) {
    for (VertexId u : stream.list_order()) {
      svc.Append(id, u, stream.ListOf(u));
      want.push_back(
          {obs::FlightEventKind::kList, id, stream.ListOf(u).size()});
    }
    svc.EndPass(id);
    want.push_back({obs::FlightEventKind::kEndPass, id,
                    static_cast<std::uint64_t>(pass)});
  }
  ASSERT_TRUE(svc.Query(id).get().ok());
  want.push_back({obs::FlightEventKind::kQuery, id, 0});
  ASSERT_EQ(svc.Query(unknown).get().status().code(), StatusCode::kNotFound);
  want.push_back({obs::FlightEventKind::kQuery, unknown, 1});

  std::vector<obs::FlightEvent> data;
  for (const obs::FlightEvent& e : flight.Collect()) {
    if (e.kind == obs::FlightEventKind::kList ||
        e.kind == obs::FlightEventKind::kEndPass ||
        e.kind == obs::FlightEventKind::kQuery) {
      data.push_back(e);
    }
  }
  ASSERT_EQ(data.size(), want.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(data[i].kind, want[i].kind);
    EXPECT_EQ(data[i].shard, 0u);
    EXPECT_EQ(data[i].a, want[i].a);
    EXPECT_EQ(data[i].b, want[i].b);
  }
}

TEST(ServiceFlightRecorder, DrainEventsAccountForEveryEnqueuedOpAndPair) {
  // Every enqueued op is drained in exactly one batch, so the drain events'
  // batch sizes sum to the enqueue events, and their list pairs to the
  // pairs appended. Flush's barriers are ops too, drained last.
  obs::FlightRecorder flight(4096);
  ServiceOptions options;
  options.shards = 3;
  options.threads = 2;
  options.flight = &flight;
  EstimatorService svc(options);

  EstimatorSpec spec;
  spec.kind = EstimatorKind::kExactStreamTriangle;
  Graph g = testing_util::Square();
  stream::AdjacencyListStream stream(&g, 8);
  std::uint64_t ops = 0, pairs = 0;
  for (StreamId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(svc.Create(id, spec).get().ok());
    for (VertexId u : stream.list_order()) {
      svc.Append(id, u, stream.ListOf(u));
      pairs += stream.ListOf(u).size();
      ++ops;
    }
    svc.EndPass(id);
    ops += 2;  // the create and the pass boundary
  }
  svc.Flush();
  ops += static_cast<std::uint64_t>(options.shards);

  std::uint64_t enqueued = 0, drained = 0, drained_pairs = 0;
  for (const obs::FlightEvent& e : flight.Collect()) {
    if (e.kind == obs::FlightEventKind::kEnqueue) ++enqueued;
    if (e.kind == obs::FlightEventKind::kDrain) {
      EXPECT_GT(e.a, 0u);
      drained += e.a;
      drained_pairs += e.b;
    }
  }
  EXPECT_EQ(enqueued, ops);
  EXPECT_EQ(drained, ops);
  EXPECT_EQ(drained_pairs, pairs);
}

TEST(ServiceFlightRecorder, StreamEventsCarryTheirStreamsShard) {
  // A post-mortem attributes an event to a shard by its shard field: every
  // event that names a stream carries the shard that stream hashes to.
  obs::FlightRecorder flight(1024);
  ServiceOptions options;
  options.shards = 4;
  options.threads = 2;
  options.flight = &flight;
  EstimatorService svc(options);

  EstimatorSpec spec;
  spec.kind = EstimatorKind::kExactStreamTriangle;
  Graph g = testing_util::Triangle();
  stream::AdjacencyListStream stream(&g, 6);
  for (StreamId id = 10; id < 18; ++id) {
    ASSERT_TRUE(svc.Create(id, spec).get().ok());
    for (VertexId u : stream.list_order()) svc.Append(id, u, stream.ListOf(u));
    svc.EndPass(id);
    ASSERT_TRUE(svc.Query(id).get().ok());
  }

  std::set<std::uint32_t> shards_seen;
  std::size_t checked = 0;
  for (const obs::FlightEvent& e : flight.Collect()) {
    if (e.kind != obs::FlightEventKind::kCreate &&
        e.kind != obs::FlightEventKind::kList &&
        e.kind != obs::FlightEventKind::kEndPass &&
        e.kind != obs::FlightEventKind::kQuery) {
      continue;
    }
    SCOPED_TRACE(obs::FlightEventKindName(e.kind));
    EXPECT_EQ(e.shard, static_cast<std::uint32_t>(EstimatorService::ShardOf(
                           static_cast<StreamId>(e.a), options.shards)));
    shards_seen.insert(e.shard);
    ++checked;
  }
  // Create, three lists, the pass boundary and the query, per stream.
  EXPECT_EQ(checked, 8u * 6u);
  EXPECT_GT(shards_seen.size(), 1u);
}

// ---------------------------------------------------------------------------
// Queries mid-stream.

TEST(ServiceQuery, UnfinishedMultiPassStreamHasNaNEstimate) {
  // A multi-pass estimator has no result before its last pass ends: the
  // view reports the pass cursor and a NaN estimate instead of aborting.
  ServiceOptions options;
  options.shards = 2;
  EstimatorService svc(options);
  Graph g = testing_util::Triangle();
  stream::AdjacencyListStream stream(&g, 1);
  const VertexId first = stream.list_order().front();
  for (EstimatorKind kind :
       {EstimatorKind::kTriangleDistinguisher, EstimatorKind::kTwoPassTriangle,
        EstimatorKind::kTwoPassFourCycle}) {
    SCOPED_TRACE(KindName(kind));
    const StreamId id = static_cast<StreamId>(kind);
    EstimatorSpec spec;
    spec.kind = kind;
    spec.slots = 4;
    spec.seed = 5;
    ASSERT_TRUE(svc.Create(id, spec).get().ok());
    svc.Append(id, first, stream.ListOf(first));
    StatusOr<StreamView> mid = svc.Query(id).get();
    ASSERT_TRUE(mid.ok()) << mid.status().ToString();
    EXPECT_FALSE(mid->finished);
    EXPECT_EQ(mid->pass, 0);
    EXPECT_EQ(mid->passes_requested, 2);
    EXPECT_TRUE(std::isnan(mid->estimate));

    for (int pass = 0; pass < 2; ++pass) {
      for (VertexId u : stream.list_order()) {
        if (pass == 0 && u == first) continue;
        svc.Append(id, u, stream.ListOf(u));
      }
      svc.EndPass(id);
    }
    StatusOr<StreamView> done = svc.Query(id).get();
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    EXPECT_TRUE(done->finished);
    EXPECT_FALSE(std::isnan(done->estimate));
  }
}

// ---------------------------------------------------------------------------
// Drain scheduling.

TEST(ServiceWakeup, AppendThenQueryNeverStrandsAnOp) {
  // One shard on one worker, and nothing but these pushes to start its
  // drains. Each Query lands just as the drain for the previous one may be
  // giving the shard up; a push that finds the shard still marked
  // scheduled after that drain has decided to stop would wait forever, and
  // no other op comes along to restart the drain.
  ServiceOptions options;
  options.shards = 1;
  options.threads = 1;
  EstimatorService svc(options);
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kExactStreamTriangle;
  ASSERT_TRUE(svc.Create(1, spec).get().ok());
  const std::vector<VertexId> list = {1, 2};
  for (int i = 0; i < 100000; ++i) {
    svc.Append(1, 0, list);
    std::future<StatusOr<StreamView>> view = svc.Query(1);
    ASSERT_EQ(view.wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "query " << i << " was stranded";
    ASSERT_TRUE(view.get().ok());
  }
}

}  // namespace
}  // namespace service
}  // namespace cyclestream
