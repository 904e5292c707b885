// Experiment E9 — the paper's open problem (end of Section 7): do the
// Simpson-function results carry over to Shannon functions? This probe
// measures, over random probabilistic relations, how often density-based
// satisfaction of the Shannon complement function g(X) = H(S) - H(X)
// agrees with the boolean-dependency semantics, broken down by the
// right-hand family size: order 1 (FDs — provably agrees) and order 2
// (conditional mutual information — provably one-sided) vs order >= 3
// (interaction information can go negative; agreement is empirical).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <set>

#include "bench_util.h"
#include "core/function_ops.h"
#include "relational/boolean_dependency.h"
#include "relational/entropy.h"
#include "relational/simpson.h"
#include "util/random.h"

namespace diffc {
namespace {

Relation RandomRelation(Rng& rng, int attrs, int tuples, int domain) {
  std::vector<std::vector<int>> rows;
  std::set<std::vector<int>> seen;
  while (static_cast<int>(rows.size()) < tuples) {
    std::vector<int> row(attrs);
    for (int a = 0; a < attrs; ++a) row[a] = static_cast<int>(rng.UniformInt(0, domain - 1));
    if (seen.insert(row).second) rows.push_back(row);
  }
  return *Relation::Make(attrs, rows);
}

void PrintOpenProblemTable() {
  const int n = 5;
  std::printf("=== E9: open-problem probe — Shannon vs boolean dependencies ===\n");
  std::printf("%10s %10s %10s %12s %12s\n", "|Y|", "queries", "agree", "shannon-only",
              "boolean-only");
  Rng rng(1905);
  for (int members : {1, 2, 3}) {
    int agree = 0, shannon_only = 0, boolean_only = 0, total = 0;
    for (int r_iter = 0; r_iter < 40; ++r_iter) {
      Relation r = RandomRelation(rng, n, static_cast<int>(rng.UniformInt(2, 10)), 2);
      Distribution p = *Distribution::Uniform(r.size());
      SetFunction<double> density = Density(*ShannonComplementFunction(r, p));
      for (int c_iter = 0; c_iter < 20; ++c_iter) {
        DifferentialConstraint c = bench::RandomConstraint(rng, n, members, 0.3, 0.4);
        bool shannon = SatisfiesWithDensity(density, c, 1e-9);
        bool boolean = SatisfiesBooleanDependency(r, c);
        ++total;
        if (shannon == boolean) {
          ++agree;
        } else if (shannon) {
          ++shannon_only;
        } else {
          ++boolean_only;
        }
      }
    }
    std::printf("%10d %10d %10d %12d %12d\n", members, total, agree, shannon_only,
                boolean_only);
  }
  std::printf("(Simpson functions agree on 100%% of queries by Proposition 7.3;\n"
              " any 'shannon-only'/'boolean-only' rows quantify the open gap)\n\n");

  // Sanity row: the Simpson face on the same instance stream.
  Rng rng2(1906);
  int agree = 0, total = 0;
  for (int r_iter = 0; r_iter < 20; ++r_iter) {
    Relation r = RandomRelation(rng2, n, static_cast<int>(rng2.UniformInt(2, 8)), 2);
    Distribution p = *Distribution::Uniform(r.size());
    SetFunction<Rational> density = Density(*SimpsonFunction(r, p));
    for (int c_iter = 0; c_iter < 20; ++c_iter) {
      DifferentialConstraint c = bench::RandomConstraint(rng2, n, 3, 0.3, 0.4);
      ++total;
      if (SatisfiesWithDensity(density, c) == SatisfiesBooleanDependency(r, c)) ++agree;
    }
  }
  std::printf("control (Simpson, |Y|=3): %d/%d agree\n\n", agree, total);
}

void BM_ShannonFunction(benchmark::State& state) {
  Rng rng(3);
  Relation r = RandomRelation(rng, static_cast<int>(state.range(0)), 40, 3);
  Distribution p = *Distribution::Uniform(r.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShannonFunction(r, p)->at(Mask{0}));
  }
}
BENCHMARK(BM_ShannonFunction)->Arg(6)->Arg(8)->Arg(10);

void BM_InformationDependency(benchmark::State& state) {
  Rng rng(4);
  Relation r = RandomRelation(rng, 8, 60, 3);
  Distribution p = *Distribution::Uniform(r.size());
  SetFunction<double> h = *ShannonFunction(r, p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SatisfiesInformationDependency(h, ItemSet{0, 1}, ItemSet{2}));
  }
}
BENCHMARK(BM_InformationDependency);

}  // namespace
}  // namespace diffc

int main(int argc, char** argv) {
  diffc::PrintOpenProblemTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
