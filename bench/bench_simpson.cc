// Experiment E8 — the relational side (Section 7): cost of computing
// Simpson functions (exact rational arithmetic over all 2^n attribute
// sets) and of checking positive boolean dependencies (O(|r|^2) tuple
// pairs), plus the Proposition 7.3 agreement rate between the two
// satisfaction routes on random relations.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <set>

#include "bench_util.h"
#include "core/function_ops.h"
#include "relational/boolean_dependency.h"
#include "relational/distribution.h"
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

void PrintSimpsonTable() {
  std::printf("=== E8: Simpson functions & boolean dependencies ===\n");
  std::printf("%8s %8s %16s %16s %10s\n", "attrs", "tuples", "simpson(ms)",
              "booldep(us)", "agree");
  for (int attrs : {6, 8, 10}) {
    for (int tuples : {20, 100}) {
      Rng rng(attrs * 100 + tuples);
      Relation r = RandomRelation(rng, attrs, tuples, 3);
      Distribution p = *Distribution::Uniform(r.size());

      auto t0 = std::chrono::steady_clock::now();
      SetFunction<Rational> simpson = *SimpsonFunction(r, p);
      auto t1 = std::chrono::steady_clock::now();
      SetFunction<Rational> density = Density(simpson);

      std::vector<DifferentialConstraint> goals;
      for (int i = 0; i < 40; ++i) goals.push_back(bench::RandomConstraint(rng, attrs, 2, 0.3, 0.35));
      auto t2 = std::chrono::steady_clock::now();
      for (const DifferentialConstraint& g : goals) {
        benchmark::DoNotOptimize(SatisfiesBooleanDependency(r, g));
      }
      auto t3 = std::chrono::steady_clock::now();

      bool agree = true;
      for (const DifferentialConstraint& g : goals) {
        if (SatisfiesBooleanDependency(r, g) != SatisfiesWithDensity(density, g)) {
          agree = false;
        }
      }
      std::printf("%8d %8d %16.2f %16.2f %10s\n", attrs, tuples,
                  std::chrono::duration<double, std::milli>(t1 - t0).count(),
                  std::chrono::duration<double, std::micro>(t3 - t2).count() / 40,
                  agree ? "yes" : "NO");
    }
  }
  std::printf("\n");
}

void BM_SimpsonFunction(benchmark::State& state) {
  const int attrs = static_cast<int>(state.range(0));
  const int tuples = static_cast<int>(state.range(1));
  Rng rng(attrs + tuples);
  Relation r = RandomRelation(rng, attrs, tuples, 3);
  Distribution p = *Distribution::Uniform(r.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimpsonFunction(r, p)->at(Mask{0}));
  }
}
BENCHMARK(BM_SimpsonFunction)->Args({6, 50})->Args({8, 50})->Args({10, 50})->Args({8, 200});

void BM_SimpsonDensityDirect(benchmark::State& state) {
  const int attrs = 6;
  const int tuples = static_cast<int>(state.range(0));
  Rng rng(tuples);
  Relation r = RandomRelation(rng, attrs, tuples, 3);
  Distribution p = *Distribution::Uniform(r.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimpsonDensityDirect(r, p)->at(Mask{0}));
  }
}
BENCHMARK(BM_SimpsonDensityDirect)->Arg(10)->Arg(30)->Arg(100);

void BM_BooleanDependency(benchmark::State& state) {
  const int attrs = 12;
  const int tuples = static_cast<int>(state.range(0));
  Rng rng(tuples + 1);
  Relation r = RandomRelation(rng, attrs, tuples, 3);
  DifferentialConstraint c = bench::RandomConstraint(rng, attrs, 2, 0.3, 0.35);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SatisfiesBooleanDependency(r, c));
  }
}
BENCHMARK(BM_BooleanDependency)->Arg(50)->Arg(200)->Arg(800);

}  // namespace
}  // namespace diffc

int main(int argc, char** argv) {
  diffc::PrintSimpsonTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
