// loadbench — the diffcd benchmark program.
//
//   loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Generates the workload from the seed, computes reference verdicts,
// then either runs the untraced closed loop (--trace 0: end-to-end
// metrics) or the traced per-layer replay (--trace 1: per-layer metrics).
// Prints machine facts, every metric with its unit, and as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1,
// with "correct": false, when a reply disagrees with the reference or
// fails its certificate check, or when any operation failed (the workloads
// are built so that none does); 2 on bad arguments.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace loadbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') a->seconds = 0;
    } else if (flag == "--trace") {
      a->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--spans") {
      a->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && have_seed && a->seconds > 0 &&
         a->trace >= 0;
}

// Single-thread and all-thread wall times of a fixed spin loop; their
// ratio times the thread count is the parallelism the machine delivers,
// which can sit well below `nproc` on a shared host.
double EffectiveParallelism(unsigned threads) {
  auto spin = [] { Spin(20'000'000); };
  std::uint64_t start = NowNs();
  spin();
  const double one = static_cast<double>(NowNs() - start);
  start = NowNs();
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(spin);
  }
  const double all = static_cast<double>(NowNs() - start);
  return threads * one / all;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

}  // namespace
}  // namespace loadbench

int main(int argc, char** argv) {
  using namespace loadbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <path>]\n");
    return 2;
  }

  // One malloc arena. The process runs on one CPU, so per-thread arenas
  // spare no lock contention; they only make peak RSS depend on which
  // threads happened to allocate first (up to +-8% between runs).
  mallopt(M_ARENA_MAX, 1);

  const unsigned nproc = std::thread::hardware_concurrency();
  const double parallelism = EffectiveParallelism(nproc == 0 ? 1 : nproc);
  const int cpu = PinToQuietestCpu();
  std::printf("{\"machine\": {\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
              "\"effective_parallelism\": %.3f, \"pinned_cpu\": %d, "
              "\"thread_scaling\": \"not measured\"}}\n",
              LOADBENCH_BUILD_TYPE, JsonEscape(__VERSION__).c_str(), nproc, parallelism, cpu);

  std::uint64_t start = NowNs();
  diffc::Result<Workload> w = MakeWorkload(args.workload, args.seed);
  if (!w.ok()) {
    std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
    return 2;
  }
  std::size_t goals = 0;
  std::size_t implied = 0;
  for (const Batch& b : w->batches) {
    goals += b.goals.size();
    for (bool v : b.implied) implied += v ? 1 : 0;
  }
  std::printf("workload %s: seed %llu, n=%d, %zu premise sets, %zu batches, %zu goals "
              "(%.1f%% implied), %d client(s); generated and referenced in %.2fs\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed), w->n,
              w->sets.size(), w->batches.size(), goals, 100.0 * implied / goals, w->clients,
              static_cast<double>(NowNs() - start) / 1e9);
  std::fflush(stdout);

  RunCounters rc;
  const std::vector<Metric> metrics =
      args.trace == 1 ? RunTraced(*w, args.seed, args.seconds, args.spans, &rc)
                      : RunEndToEnd(*w, args.seed, args.seconds, &rc);

  for (const Metric& m : metrics) {
    std::printf("%-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!rc.first_problem.empty()) {
    std::fprintf(stderr, "first problem: %s\n", rc.first_problem.c_str());
  }
  const bool correct = rc.mismatches == 0 && rc.failed == 0 && !metrics.empty();
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rc.attempted) +
                     ", \"failed\": " + std::to_string(rc.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
