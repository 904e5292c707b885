// Experiment E5 — witness sets and lattice decompositions (Definitions
// 2.5/2.6): minimal-transversal enumeration cost and the size statistics
// of L(X, Y) as the right-hand family's shape varies. Lattice
// decompositions are the paper's central syntactic object; their interval
// covers (built from minimal witness sets) are the compressed form.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "lattice/decomposition.h"
#include "lattice/hitting_set.h"
#include "util/random.h"

namespace diffc {
namespace {

SetFamily RandomFamily(Rng& rng, int n, int members, double density) {
  std::vector<ItemSet> out;
  for (int i = 0; i < members; ++i) {
    Mask m = rng.RandomMask(n, density);
    if (m == 0) m = Mask{1} << rng.UniformInt(0, n - 1);
    out.push_back(ItemSet(m));
  }
  return SetFamily(std::move(out));
}

void PrintWitnessTable() {
  std::printf("=== E5: witness sets & lattice decompositions (n=16) ===\n");
  std::printf("%8s %9s %12s %12s %14s %12s\n", "members", "density", "witnesses",
              "min.wit.", "|L(X,Y)|", "intervals");
  const int n = 16;
  for (int members : {2, 4, 6}) {
    for (double density : {0.15, 0.3}) {
      Rng rng(members * 100 + static_cast<int>(density * 100));
      double avg_wit = 0, avg_min = 0, avg_l = 0, avg_iv = 0;
      const int kTrials = 10;
      for (int t = 0; t < kTrials; ++t) {
        SetFamily fam = RandomFamily(rng, n, members, density);
        ItemSet x;
        Result<std::vector<ItemSet>> all = AllWitnessSets(fam);
        Result<std::vector<ItemSet>> mins = MinimalWitnessSets(fam);
        Result<std::uint64_t> l_size = CountDecomposition(n, x, fam);
        Result<std::vector<Interval>> cover = DecompositionIntervalCover(n, x, fam);
        if (all.ok()) avg_wit += static_cast<double>(all->size()) / kTrials;
        if (mins.ok()) avg_min += static_cast<double>(mins->size()) / kTrials;
        if (l_size.ok()) avg_l += static_cast<double>(*l_size) / kTrials;
        if (cover.ok()) avg_iv += static_cast<double>(cover->size()) / kTrials;
      }
      std::printf("%8d %9.2f %12.1f %12.1f %14.1f %12.1f\n", members, density, avg_wit,
                  avg_min, avg_l, avg_iv);
    }
  }
  std::printf("(|L| out of 2^16 = 65536; intervals = compressed cover size)\n\n");
}

void BM_MinimalWitnessSets(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  Rng rng(members);
  SetFamily fam = RandomFamily(rng, 20, members, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinimalWitnessSets(fam));
  }
}
BENCHMARK(BM_MinimalWitnessSets)->Arg(2)->Arg(4)->Arg(8);

// The mask-native core into buffers kept across calls, as interval cover
// runs it inline: no allocation once the buffers have grown.
void BM_MinimalWitnessMasks(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  Rng rng(members);
  SetFamily fam = RandomFamily(rng, 20, members, 0.25);
  WitnessScratch scratch;
  WitnessSearchStats stats;
  if (!MinimalWitnessMasks(fam, 1 << 20, &scratch, &stats).ok()) {
    state.SkipWithError("search failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinimalWitnessMasks(fam, 1 << 20, &scratch));
  }
  state.counters["leaves"] = static_cast<double>(stats.candidates);
}
BENCHMARK(BM_MinimalWitnessMasks)->Arg(2)->Arg(4)->Arg(8);

void BM_DecompositionMembership(benchmark::State& state) {
  const int n = 32;
  Rng rng(3);
  SetFamily fam = RandomFamily(rng, n, 8, 0.2);
  ItemSet x(rng.RandomMask(n, 0.1));
  ItemSet u(rng.RandomMask(n, 0.5) | x.bits());
  for (auto _ : state) {
    benchmark::DoNotOptimize(InDecomposition(n, x, fam, u));
  }
}
BENCHMARK(BM_DecompositionMembership);

void BM_EnumerateDecomposition(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(n);
  SetFamily fam = RandomFamily(rng, n, 3, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateDecomposition(n, ItemSet(), fam));
  }
}
BENCHMARK(BM_EnumerateDecomposition)->Arg(12)->Arg(16)->Arg(20);

void BM_IntervalCover(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(n + 5);
  SetFamily fam = RandomFamily(rng, n, 4, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecompositionIntervalCover(n, ItemSet(), fam));
  }
}
BENCHMARK(BM_IntervalCover)->Arg(16)->Arg(32)->Arg(64);

}  // namespace
}  // namespace diffc

int main(int argc, char** argv) {
  diffc::PrintWitnessTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
