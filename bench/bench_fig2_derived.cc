// Experiment F2 — regenerates the content of the paper's FIGURE 2: the
// five derived rules (chain, projection, transitivity, separation, union)
// are derivable from the base system. For random instantiations of each
// rule pattern the proof generator produces an explicit base-rule
// derivation, which is machine-validated; the table reports success rates
// and proof sizes, the benchmarks the derivation cost per rule.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>

#include "core/inference.h"
#include "util/random.h"

namespace diffc {
namespace {

struct RuleInstance {
  ConstraintSet premises;
  DifferentialConstraint conclusion{ItemSet(), SetFamily()};
};

ItemSet NonemptySet(Rng& rng, int n) {
  return ItemSet(rng.RandomNonemptySubsetOf(FullMask(n)));
}

SetFamily RandomRest(Rng& rng, int n) {
  Mask m = rng.RandomMask(n, 0.3);
  if (m == 0) m = Mask{1} << rng.UniformInt(0, n - 1);
  return SetFamily({ItemSet(m)});
}

RuleInstance MakeChain(Rng& rng, int n) {
  ItemSet x(rng.RandomMask(n, 0.25)), y = NonemptySet(rng, n), z = NonemptySet(rng, n);
  SetFamily rest = RandomRest(rng, n);
  return {{DifferentialConstraint(x, rest.WithMember(y)),
           DifferentialConstraint(x.Union(y), rest.WithMember(z))},
          DifferentialConstraint(x, rest.WithMember(y.Union(z)))};
}

RuleInstance MakeProjection(Rng& rng, int n) {
  ItemSet x(rng.RandomMask(n, 0.25)), y = NonemptySet(rng, n);
  ItemSet z(rng.RandomMask(n, 0.3));
  SetFamily rest = RandomRest(rng, n);
  return {{DifferentialConstraint(x, rest.WithMember(y.Union(z)))},
          DifferentialConstraint(x, rest.WithMember(y))};
}

RuleInstance MakeTransitivity(Rng& rng, int n) {
  ItemSet x(rng.RandomMask(n, 0.25)), y = NonemptySet(rng, n), z = NonemptySet(rng, n);
  SetFamily rest = RandomRest(rng, n);
  return {{DifferentialConstraint(x, rest.WithMember(y)),
           DifferentialConstraint(y, rest.WithMember(z))},
          DifferentialConstraint(x, rest.WithMember(z))};
}

RuleInstance MakeSeparation(Rng& rng, int n) {
  ItemSet x(rng.RandomMask(n, 0.25)), y = NonemptySet(rng, n), z = NonemptySet(rng, n);
  SetFamily rest = RandomRest(rng, n);
  return {{DifferentialConstraint(x, rest.WithMember(y.Union(z)))},
          DifferentialConstraint(x, rest.WithMember(y).WithMember(z))};
}

RuleInstance MakeUnion(Rng& rng, int n) {
  ItemSet x(rng.RandomMask(n, 0.25)), y = NonemptySet(rng, n), z = NonemptySet(rng, n);
  SetFamily rest = RandomRest(rng, n);
  return {{DifferentialConstraint(x, rest.WithMember(y)),
           DifferentialConstraint(x, rest.WithMember(z))},
          DifferentialConstraint(x, rest.WithMember(y.Union(z)))};
}

using Maker = std::function<RuleInstance(Rng&, int)>;

struct Row {
  const char* rule;
  Maker make;
};

const Row kRows[] = {
    {"chain", MakeChain},           {"projection", MakeProjection},
    {"transitivity", MakeTransitivity}, {"separation", MakeSeparation},
    {"union", MakeUnion},
};

void PrintFigure2Table() {
  const int n = 6;
  const int kInstances = 100;
  std::printf("=== Figure 2: derived rules, machine-derived from Figure 1 (n=%d) ===\n",
              n);
  std::printf("%-14s %10s %10s %12s %12s\n", "rule", "instances", "derived", "avg steps",
              "max steps");
  for (std::size_t r = 0; r < std::size(kRows); ++r) {
    const Row& row = kRows[r];
    Rng rng(1 + r);
    int derived = 0;
    long total_steps = 0, max_steps = 0;
    for (int i = 0; i < kInstances; ++i) {
      RuleInstance inst = row.make(rng, n);
      Result<Derivation> d = DeriveImplied(n, inst.premises, inst.conclusion);
      if (d.ok() && ValidateDerivation(n, inst.premises, *d).ok() &&
          d->conclusion() == inst.conclusion) {
        ++derived;
        total_steps += d->size();
        max_steps = std::max<long>(max_steps, d->size());
      }
    }
    std::printf("%-14s %10d %10d %12.1f %12ld\n", row.rule, kInstances, derived,
                derived ? static_cast<double>(total_steps) / derived : 0.0, max_steps);
  }
  std::printf("\n");
}

void BM_DeriveRule(benchmark::State& state) {
  const Row& row = kRows[state.range(0)];
  const int n = 5;
  Rng rng(11 + state.range(0));
  RuleInstance inst = row.make(rng, n);
  while (inst.conclusion.IsTrivial()) inst = row.make(rng, n);  // Non-degenerate.
  for (auto _ : state) {
    Result<Derivation> d = DeriveImplied(n, inst.premises, inst.conclusion);
    benchmark::DoNotOptimize(d.ok());
  }
  state.SetLabel(row.rule);
}
BENCHMARK(BM_DeriveRule)->DenseRange(0, 4);

}  // namespace
}  // namespace diffc

int main(int argc, char** argv) {
  diffc::PrintFigure2Table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
