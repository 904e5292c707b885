// Experiment F1 — regenerates the content of the paper's FIGURE 1: the
// inference system {triviality, augmentation, addition, elimination} is
// sound and complete.
//
// The table verifies, on thousands of random instances per rule, that
// every rule application is semantically sound (premises imply conclusion,
// checked with the SAT decision procedure), and that semantic implication
// and derivability coincide (completeness, Theorem 4.8). The registered
// benchmarks measure the validators and the soundness checks.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "core/implication.h"
#include "core/inference.h"
#include "util/random.h"

namespace diffc {
namespace {

struct RuleStats {
  const char* rule;
  int instances = 0;
  int unsound = 0;
};

void PrintFigure1Table() {
  const int n = 6;
  const int kInstances = 400;
  Rng rng(2005);
  RuleStats rows[4] = {{"triviality"}, {"augmentation"}, {"addition"}, {"elimination"}};

  for (int i = 0; i < kInstances; ++i) {
    // Triviality.
    {
      ItemSet lhs(rng.RandomMask(n, 0.5) | 1);
      DifferentialConstraint c(lhs,
                               SetFamily({ItemSet(rng.RandomNonemptySubsetOf(lhs.bits()))}));
      ++rows[0].instances;
      if (!CheckImplicationSat(n, {}, c)->implied) ++rows[0].unsound;
    }
    // Augmentation.
    {
      DifferentialConstraint p = bench::RandomConstraint(rng, n, 2, 0.25, 0.3);
      DifferentialConstraint c(p.lhs().Union(ItemSet(rng.RandomMask(n, 0.3))), p.rhs());
      ++rows[1].instances;
      if (!CheckImplicationSat(n, {p}, c)->implied) ++rows[1].unsound;
    }
    // Addition.
    {
      DifferentialConstraint p = bench::RandomConstraint(rng, n, 2, 0.25, 0.3);
      DifferentialConstraint c(p.lhs(), p.rhs().WithMember(ItemSet(rng.RandomMask(n, 0.3))));
      ++rows[2].instances;
      if (!CheckImplicationSat(n, {p}, c)->implied) ++rows[2].unsound;
    }
    // Elimination.
    {
      DifferentialConstraint conclusion = bench::RandomConstraint(rng, n, 2, 0.25, 0.3);
      ItemSet z(rng.RandomMask(n, 0.3));
      DifferentialConstraint p1(conclusion.lhs(), conclusion.rhs().WithMember(z));
      DifferentialConstraint p2(conclusion.lhs().Union(z), conclusion.rhs());
      ++rows[3].instances;
      if (!CheckImplicationSat(n, {p1, p2}, conclusion)->implied) ++rows[3].unsound;
    }
  }

  std::printf("=== Figure 1: soundness of the inference system (n=%d) ===\n", n);
  std::printf("%-14s %10s %10s\n", "rule", "instances", "unsound");
  for (const RuleStats& r : rows) {
    std::printf("%-14s %10d %10d\n", r.rule, r.instances, r.unsound);
  }

  // Completeness: derivability agrees with semantic implication.
  int agree = 0, total = 0;
  for (int i = 0; i < 150; ++i) {
    ConstraintSet premises;
    int count = static_cast<int>(rng.UniformInt(1, 3));
    for (int j = 0; j < count; ++j) premises.push_back(bench::RandomConstraint(rng, n, 2, 0.25, 0.3));
    DifferentialConstraint goal = bench::RandomConstraint(rng, n, 2, 0.25, 0.3);
    bool implied = CheckImplicationSat(n, premises, goal)->implied;
    Result<Derivation> d = DeriveImplied(n, premises, goal);
    bool derivable = d.ok() && ValidateDerivation(n, premises, *d).ok();
    ++total;
    if (implied == derivable) ++agree;
  }
  std::printf("\ncompleteness (derivable == implied): %d/%d instances agree\n\n", agree,
              total);
}

void BM_ValidateElimination(benchmark::State& state) {
  Rng rng(1);
  const int n = 8;
  DifferentialConstraint conclusion = bench::RandomConstraint(rng, n, 3, 0.25, 0.3);
  ItemSet z(rng.RandomMask(n, 0.3));
  DifferentialConstraint p1(conclusion.lhs(), conclusion.rhs().WithMember(z));
  DifferentialConstraint p2(conclusion.lhs().Union(z), conclusion.rhs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsValidElimination(p1, p2, conclusion));
  }
}
BENCHMARK(BM_ValidateElimination);

void BM_RuleSoundnessCheck(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  DifferentialConstraint p = bench::RandomConstraint(rng, n, 2, 0.25, 0.3);
  DifferentialConstraint c(p.lhs().Union(ItemSet(rng.RandomMask(n, 0.3))), p.rhs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckImplicationSat(n, {p}, c)->implied);
  }
}
BENCHMARK(BM_RuleSoundnessCheck)->Arg(8)->Arg(16)->Arg(32);

void BM_ValidateFullDerivation(benchmark::State& state) {
  const int n = 5;
  Rng rng(3);
  ConstraintSet premises{bench::RandomConstraint(rng, n, 2, 0.25, 0.3), bench::RandomConstraint(rng, n, 2, 0.25, 0.3)};
  Result<Derivation> d = Status::NotFound("");
  DifferentialConstraint goal = bench::RandomConstraint(rng, n, 2, 0.25, 0.3);
  // Look for an implied goal with a non-degenerate proof.
  while (!d.ok() || d->size() < 4) {
    goal = bench::RandomConstraint(rng, n, 2, 0.25, 0.3);
    d = DeriveImplied(n, premises, goal);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateDerivation(n, premises, *d).ok());
  }
  state.counters["steps"] = d->size();
}
BENCHMARK(BM_ValidateFullDerivation);

}  // namespace
}  // namespace diffc

int main(int argc, char** argv) {
  diffc::PrintFigure1Table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
