// Experiment E11 — the two semantics of Remark 3.6: density-based (the
// paper's, coNP-complete) vs differential-based (the earlier work's,
// reducible to exact linear algebra over F(S) and hence polynomial in
// 2^n·|C|). The paper: "the relationship between these two implication
// problems is not yet well-understood." The table measures, on random
// instances, how often the two deciders agree and in which direction they
// diverge, plus their costs.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "core/differential_semantics.h"
#include "core/implication.h"
#include "util/random.h"

namespace diffc {
namespace {

void PrintSemanticsGapTable() {
  std::printf("=== E11: density vs differential semantics (Remark 3.6) ===\n");
  std::printf("%4s %6s %8s %10s %14s %14s\n", "n", "|C|", "agree", "dens-only",
              "diff-only", "queries");
  for (int n : {4, 5, 6}) {
    for (int count : {1, 2, 4}) {
      Rng rng(n * 100 + count);
      int agree = 0, density_only = 0, diff_only = 0, total = 0;
      for (int iter = 0; iter < 100; ++iter) {
        ConstraintSet premises;
        for (int i = 0; i < count; ++i) premises.push_back(bench::RandomConstraint(rng, n, 2, 0.3, 0.35));
        DifferentialConstraint goal = bench::RandomConstraint(rng, n, 2, 0.3, 0.35);
        bool density = CheckImplicationSat(n, premises, goal)->implied;
        bool differential =
            CheckImplicationDifferentialSemantics(n, premises, goal)->implied;
        ++total;
        if (density == differential) {
          ++agree;
        } else if (density) {
          ++density_only;
        } else {
          ++diff_only;
        }
      }
      std::printf("%4d %6d %8d %10d %14d %14d\n", n, count, agree, density_only,
                  diff_only, total);
    }
  }
  std::printf("(dens-only: implied under the paper's density semantics but not the\n"
              " differential one; diff-only: the converse. Across all sampled\n"
              " instances diff-only stays at 0 — empirical support for the\n"
              " conjecture that differential-semantics implication entails\n"
              " density-semantics implication, while the converse clearly fails;\n"
              " the paper calls this relationship not yet well-understood)\n\n");
}

void BM_DensityImplication(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(n);
  ConstraintSet premises;
  for (int i = 0; i < 4; ++i) premises.push_back(bench::RandomConstraint(rng, n, 2, 0.3, 0.35));
  DifferentialConstraint goal = bench::RandomConstraint(rng, n, 2, 0.3, 0.35);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckImplicationSat(n, premises, goal)->implied);
  }
}
BENCHMARK(BM_DensityImplication)->Arg(6)->Arg(8)->Arg(10);

void BM_DifferentialImplication(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(n);
  ConstraintSet premises;
  for (int i = 0; i < 4; ++i) premises.push_back(bench::RandomConstraint(rng, n, 2, 0.3, 0.35));
  DifferentialConstraint goal = bench::RandomConstraint(rng, n, 2, 0.3, 0.35);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CheckImplicationDifferentialSemantics(n, premises, goal)->implied);
  }
}
BENCHMARK(BM_DifferentialImplication)->Arg(6)->Arg(8)->Arg(10);

}  // namespace
}  // namespace diffc

int main(int argc, char** argv) {
  diffc::PrintSemanticsGapTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
