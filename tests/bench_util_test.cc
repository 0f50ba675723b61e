// Tests for the bench support library: flag parsing, Summarize (median
// semantics matching core::Median, empty-batch safety), MinimalSample,
// FormatBytes, the Table/Cell dual table/CSV emitter, the manifest record
// builders the benches and micro_substrate share, and the batch record
// RunBatch writes.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include <gtest/gtest.h>

#include "core/one_pass_triangle.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "json_parse.h"
#include "stream/adjacency_stream.h"

namespace cyclestream {
namespace {

char** MakeArgv(std::vector<const char*>& storage) {
  return const_cast<char**>(storage.data());
}

TEST(BenchFlagsTest, HasFlagAndFlagValue) {
  std::vector<const char*> args = {"prog", "--full", "--threads", "6"};
  char** argv = MakeArgv(args);
  int argc = static_cast<int>(args.size());
  EXPECT_TRUE(bench::HasFlag(argc, argv, "--full"));
  EXPECT_FALSE(bench::HasFlag(argc, argv, "--csv"));
  EXPECT_EQ(bench::FlagValue(argc, argv, "--threads", 1), 6);
  EXPECT_EQ(bench::FlagValue(argc, argv, "--missing", 3), 3);
}

TEST(BenchFlagsTest, FlagValueRejectsNonPositive) {
  std::vector<const char*> args = {"prog", "--threads", "0"};
  char** argv = MakeArgv(args);
  EXPECT_EQ(bench::FlagValue(static_cast<int>(args.size()), argv, "--threads",
                             4),
            4);
}

TEST(SummarizeTest, EmptyBatchYieldsZerosWithoutDividing) {
  bench::TrialStats s = bench::Summarize({}, 10.0, 0.25);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.median, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.median_rel_error, 0.0);
  EXPECT_EQ(s.frac_within, 0.0);
}

TEST(SummarizeTest, EvenSizeMedianAveragesMiddlePair) {
  // Median of {1,2,3,4} must be 2.5 (matching core::Median), not 3.
  bench::TrialStats s = bench::Summarize({4.0, 1.0, 3.0, 2.0}, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.median, core::Median({4.0, 1.0, 3.0, 2.0}));
  // Relative errors vs truth 2: {1, 0.5, 0.5, 0} -> median 0.5.
  EXPECT_DOUBLE_EQ(s.median_rel_error, 0.5);
}

TEST(SummarizeTest, OddSizeMedianAndFracWithin) {
  bench::TrialStats s = bench::Summarize({8.0, 10.0, 13.0}, 10.0, 0.25);
  EXPECT_DOUBLE_EQ(s.median, 10.0);
  EXPECT_DOUBLE_EQ(s.mean, 31.0 / 3.0);
  EXPECT_NEAR(s.frac_within, 2.0 / 3.0, 1e-12);  // 13 is 30% off
}

TEST(SummarizeTest, SingleElementHasZeroStddev) {
  bench::TrialStats s = bench::Summarize({5.0}, 5.0, 0.25);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.frac_within, 1.0);
}

TEST(MinimalSampleTest, FindsFirstGridPointReachingTarget) {
  std::vector<std::size_t> probed;
  std::size_t found = bench::MinimalSample(
      4, 2.0, 1000, 0.8, [&](std::size_t m) {
        probed.push_back(m);
        return m >= 30 ? 1.0 : 0.0;
      });
  EXPECT_EQ(found, 32u);
  EXPECT_EQ(probed, (std::vector<std::size_t>{4, 8, 16, 32}));
}

TEST(MinimalSampleTest, CapsAtMaxValue) {
  std::size_t found =
      bench::MinimalSample(4, 2.0, 20, 0.8, [](std::size_t) { return 0.0; });
  EXPECT_EQ(found, 20u);
}

TEST(FormatBytesTest, PicksUnits) {
  EXPECT_EQ(bench::FormatBytes(512), "512B");
  EXPECT_EQ(bench::FormatBytes(2048), "2.0KiB");
  EXPECT_EQ(bench::FormatBytes(3 * 1024 * 1024), "3.0MiB");
}

TEST(TableTest, TableModeAlignsAndCsvModeJoins) {
  bench::BenchOptions table_opts;  // csv = false
  bench::BenchOptions csv_opts;
  csv_opts.csv = true;
  std::vector<bench::Column> columns = {{"T", 6, bench::kColInt},
                                        {"ratio", 8, 2},
                                        {"space", 8, bench::kColStr}};
  bench::Table table(table_opts, columns);
  bench::Table csv(csv_opts, columns);

  EXPECT_EQ(table.FormatHeader(), "     T    ratio    space");
  EXPECT_EQ(csv.FormatHeader(), "T,ratio,space");

  EXPECT_EQ(table.FormatRow({std::size_t{1200}, 1.5, "3.1KiB"}),
            "  1200     1.50   3.1KiB");
  EXPECT_EQ(csv.FormatRow({std::size_t{1200}, 1.5, "3.1KiB"}),
            "1200,1.50,3.1KiB");
}

TEST(TableTest, ValuesIdenticalAcrossModes) {
  // The CSV cells must be exactly the table cells (same precision), so
  // table output and CSV output describe the same run.
  bench::BenchOptions table_opts;
  bench::BenchOptions csv_opts;
  csv_opts.csv = true;
  std::vector<bench::Column> columns = {{"a", 10, 3}, {"b", 10, bench::kColInt}};
  bench::Table table(table_opts, columns);
  bench::Table csv(csv_opts, columns);
  std::string aligned = table.FormatRow({0.123456, std::size_t{42}});
  std::string joined = csv.FormatRow({0.123456, std::size_t{42}});
  // Strip alignment spaces from the table row and compare.
  std::string stripped;
  for (char c : aligned) {
    if (c != ' ') stripped += c;
    else if (!stripped.empty() && stripped.back() != ',') stripped += ',';
  }
  EXPECT_EQ(stripped, joined);
}

TEST(TableTest, IntColumnFormatsDoublesAsIntegers) {
  bench::BenchOptions opts;
  opts.csv = true;
  bench::Table table(opts, {{"n", 6, bench::kColInt}});
  EXPECT_EQ(table.FormatRow({7.0}), "7");
  EXPECT_EQ(table.FormatRow({std::size_t{9}}), "9");
}

TEST(CsvEscapeTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(bench::CsvEscape("plain"), "plain");
  EXPECT_EQ(bench::CsvEscape(""), "");
  EXPECT_EQ(bench::CsvEscape("has space"), "has space");
  EXPECT_EQ(bench::CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(bench::CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(bench::CsvEscape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(bench::CsvEscape("cr\rhere"), "\"cr\rhere\"");
}

TEST(TableTest, CsvModeQuotesFieldsWithCommasAndQuotes) {
  // A generator label like "chung-lu, gamma=2.5" must stay one CSV column.
  bench::BenchOptions opts;
  opts.csv = true;
  bench::Table table(
      opts, {{"graph", 24, bench::kColStr}, {"T", 8, bench::kColInt}});
  EXPECT_EQ(table.FormatRow({"chung-lu, gamma=2.5", std::size_t{12}}),
            "\"chung-lu, gamma=2.5\",12");
  EXPECT_EQ(table.FormatRow({"said \"ok\"", std::size_t{1}}),
            "\"said \"\"ok\"\"\",1");
  // Header fields are escaped too.
  bench::Table weird(opts, {{"a,b", 6, bench::kColInt}});
  EXPECT_EQ(weird.FormatHeader(), "\"a,b\"");
  // Table (aligned) mode is untouched by escaping.
  bench::BenchOptions aligned;
  bench::Table plain(aligned,
                     {{"graph", 21, bench::kColStr}, {"T", 4, bench::kColInt}});
  EXPECT_EQ(plain.FormatRow({"chung-lu, gamma=2.5", std::size_t{12}}),
            "  chung-lu, gamma=2.5   12");
}

TEST(BenchManifestTest, RunRecordNamesTheBinaryAndKeepsItsArguments) {
  std::vector<const char*> args = {"build/bench/bench_table1", "--full",
                                   "--threads=2"};
  const obs::Json run =
      bench::RunRecord(static_cast<int>(args.size()), MakeArgv(args));
  EXPECT_EQ(run.Find("record")->AsString(), "run");
  EXPECT_EQ(run.Find("bench")->AsString(), "bench_table1");
  ASSERT_NE(run.Find("git"), nullptr);
  ASSERT_NE(run.Find("build_info"), nullptr);
  EXPECT_TRUE(run.Find("build_info")->is_object());
  const obs::Json* argv_json = run.Find("argv");
  ASSERT_NE(argv_json, nullptr);
  ASSERT_EQ(argv_json->size(), 2u);
  EXPECT_EQ(argv_json->at(0).AsString(), "--full");
  EXPECT_EQ(argv_json->at(1).AsString(), "--threads=2");

  std::vector<const char*> bare = {"micro_substrate"};
  EXPECT_EQ(bench::BenchName(1, MakeArgv(bare)), "micro_substrate");
  EXPECT_EQ(bench::BenchName(0, nullptr), "unknown");
}

TEST(BenchManifestTest, ProfRecordsHoldOneRecordPerScope) {
  obs::Profiler::Options prof_options;
  prof_options.backend = obs::ProfBackend::kRusage;
  obs::Profiler prof(prof_options);
  EXPECT_TRUE(bench::ProfRecords(prof).empty());
  obs::ProfCounters delta;
  delta.cycles = 300;
  delta.instructions = 600;
  prof.Accumulate("driver.pass/pass=0", delta);
  prof.Accumulate("driver.pass/pass=0", delta);
  prof.Accumulate("trial", delta);
  const std::vector<obs::Json> records = bench::ProfRecords(prof);
  ASSERT_EQ(records.size(), 2u);
  for (const obs::Json& record : records) {
    for (const char* field :
         {"record", "scope", "backend", "fallback", "count", "cycles",
          "instructions", "cache_references", "cache_misses", "branch_misses",
          "task_clock_ns", "ipc"}) {
      ASSERT_NE(record.Find(field), nullptr) << field;
    }
    EXPECT_EQ(record.Find("record")->AsString(), "prof");
    EXPECT_EQ(record.Find("backend")->AsString(), "rusage");
    EXPECT_FALSE(record.Find("fallback")->AsBool());
  }
  // Scopes come in name order.
  EXPECT_EQ(records[0].Find("scope")->AsString(), "driver.pass/pass=0");
  EXPECT_EQ(records[0].Find("count")->AsUint64(), 2u);
  EXPECT_EQ(records[0].Find("cycles")->AsDouble(), 600.0);
  EXPECT_EQ(records[0].Find("instructions")->AsDouble(), 1200.0);
  EXPECT_EQ(records[0].Find("ipc")->AsDouble(), 2.0);
  EXPECT_EQ(records[1].Find("scope")->AsString(), "trial");
  EXPECT_EQ(records[1].Find("count")->AsUint64(), 1u);
}

TEST(BenchManifestTest, RunEndRecordCountsEveryLineIncludingItself) {
  const std::string path =
      ::testing::TempDir() + "/bench_util_run_end.jsonl";
  std::vector<const char*> args = {"bench_table1"};
  {
    auto writer = obs::ManifestWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    writer->Write(bench::RunRecord(1, MakeArgv(args)));
    writer->Write(obs::MakeRecord("batch"));
    const obs::Json end = bench::RunEndRecord(*writer, 1.5);
    EXPECT_EQ(end.Find("record")->AsString(), "run_end");
    EXPECT_EQ(end.Find("records")->AsUint64(), 3u);
    EXPECT_EQ(end.Find("wall_seconds")->AsDouble(), 1.5);
    writer->Write(end);
  }
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3u);
  std::remove(path.c_str());
}

// A batch row keeps its trial's reported and audited peaks and divergence as
// the driver reported them. Space over time rides on the Chrome trace's
// spans, so the manifest holds no per-list `timeline` record and its
// metrics no per-list space histograms. Configures the process-wide
// Observability directly: ParseOptions would also register atexit hooks.
TEST(BenchManifestTest, BatchRowsCarryEachTrialsPeaksAndNoTimeline) {
  const std::string path = ::testing::TempDir() + "/bench_util_batch.jsonl";
  bench::BenchOptions opts;
  opts.metrics_out = path;
  std::vector<const char*> args = {"bench_util_test"};
  bench::internal::RunnerSlot() = std::make_unique<runtime::TrialRunner>(2);
  bench::internal::Observability& ob = bench::internal::Observability::Get();
  ob.Configure(opts, 1, MakeArgv(args));
  ASSERT_TRUE(ob.enabled());

  const Graph g = gen::ErdosRenyiGnp(150, 0.1, 4);
  constexpr std::size_t kTrials = 3;
  constexpr std::uint64_t kBaseSeed = 17;
  std::vector<stream::RunReport> reports(kTrials);
  bench::RunBatch("er", kTrials, kBaseSeed, [&](const bench::TrialCtx& ctx) {
    stream::AdjacencyListStream s(&g, ctx.seed);
    core::OnePassTriangleOptions options;
    options.sample_size = 32;
    options.seed = ctx.seed;
    core::OnePassTriangleCounter counter(options);
    reports[ctx.index] = ctx.Run(s, &counter);
    return ctx.Result(counter.Estimate(), 0.0, reports[ctx.index]);
  });
  ob.Finish();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<obs::Json> records;
  std::vector<std::string> types;
  std::string line;
  while (std::getline(in, line)) {
    auto parsed = testing_util::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    types.push_back(parsed->Find("record")->AsString());
    EXPECT_EQ(parsed->Find("schema_version")->AsUint64(),
              static_cast<std::uint64_t>(obs::kManifestSchemaVersion));
    records.push_back(std::move(*parsed));
  }
  std::remove(path.c_str());
  ASSERT_EQ(types, (std::vector<std::string>{"run", "batch", "metrics",
                                             "run_end"}));

  const obs::Json* rows = records[1].Find("results");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->size(), kTrials);
  for (std::size_t i = 0; i < kTrials; ++i) {
    SCOPED_TRACE(i);
    const obs::Json& row = rows->at(i);
    EXPECT_EQ(row.Find("trial")->AsUint64(), i);
    EXPECT_EQ(row.Find("seed")->AsUint64(),
              runtime::TrialSeed(kBaseSeed, i));
    EXPECT_EQ(row.Find("reported_peak_bytes")->AsUint64(),
              reports[i].reported_peak_bytes);
    EXPECT_EQ(row.Find("audited_peak_bytes")->AsUint64(),
              reports[i].audited_peak_bytes);
    EXPECT_EQ(row.Find("max_divergence_bytes")->AsUint64(),
              reports[i].max_divergence_bytes);
    EXPECT_GT(reports[i].reported_peak_bytes, 0u);
    EXPECT_GT(reports[i].audited_peak_bytes, 0u);
  }

  const obs::Json* histograms =
      records[2].Find("metrics")->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  EXPECT_NE(histograms->Find("bench.trial_wall_seconds"), nullptr);
  EXPECT_EQ(histograms->Find("bench.list_space_bytes"), nullptr);
  EXPECT_EQ(histograms->Find("bench.list_size_pairs"), nullptr);
}

}  // namespace
}  // namespace cyclestream
