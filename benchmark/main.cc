// cyclebench: runs one benchmark workload and prints its metrics.
//
//   cyclebench --workload W --seed S --seconds T [--trace FILE]
//
// Prints one "metric <workload> <name> <value> <unit>" line per measured
// value, then a JSON summary {"correct", "attempted", "failed", "metrics"}
// as the last line. With --trace the run also measures every layer (see
// ledger.cc) and writes the benchmark's own spans to FILE as a Chrome
// trace. Exits 1 when any check against a reference failed.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

using namespace cyclestream::benchmark;

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Results&);
};

constexpr Workload kWorkloads[] = {
    {"checked_small_state", &RunCheckedSmallState},
    {"amplified_large_state", &RunAmplifiedLargeState},
    {"service_ingest", &RunServiceIngest},
};

int Usage() {
  std::fprintf(stderr,
               "usage: cyclebench --workload W --seed S --seconds T "
               "[--trace FILE]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      config.trace = true;
      config.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) return Usage();
  for (const Workload& w : kWorkloads) {
    if (workload != w.name) continue;
    Results results(workload);
    w.run(config, results);
    results.Print();
    return results.failed() == 0 && results.attempted() > 0 ? 0 : 1;
  }
  return Usage();
}
