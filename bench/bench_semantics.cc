// Experiment E7 — the equivalence of implication semantics
// (Propositions 6.3/6.4, Theorem 8.1): the same queries decided over
// F(S) (lattice containment), over support functions (basket-list
// counterexamples), and propositionally (minset entailment), with relative
// costs. The equivalence is what lets the cheap SAT procedure answer the
// semantic question for every function class at once.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "core/closure.h"
#include "core/implication.h"
#include "fis/basket.h"
#include "fis/disjunctive.h"
#include "prop/implication_constraint.h"
#include "prop/minterm.h"
#include "util/random.h"

namespace diffc {
namespace {

// Support-function semantics by exhaustive one-basket counterexample
// search (the witness class from Proposition 6.4's proof).
bool SupportImplication(int n, const ConstraintSet& c, const DifferentialConstraint& g) {
  for (Mask u = 0; u < (Mask{1} << n); ++u) {
    BasketList b = *BasketList::Make(n, {u});
    bool premises_ok = true;
    for (const DifferentialConstraint& p : c) {
      if (!SatisfiesDisjunctive(b, p)) {
        premises_ok = false;
        break;
      }
    }
    if (premises_ok && !SatisfiesDisjunctive(b, g)) return false;
  }
  return true;
}

bool PropositionalImplication(int n, const ConstraintSet& c,
                              const DifferentialConstraint& g) {
  std::vector<prop::FormulaPtr> premises;
  for (const DifferentialConstraint& p : c) {
    premises.push_back(prop::ImplicationConstraintFormula(p.lhs(), p.rhs()));
  }
  return *prop::Entails(premises, *prop::ImplicationConstraintFormula(g.lhs(), g.rhs()),
                        n);
}

void PrintSemanticsTable() {
  const int n = 10;
  const int kQueries = 30;
  std::printf("=== E7: four faces of the implication problem (n=%d, %d queries) ===\n",
              n, kQueries);
  Rng rng(81);
  ConstraintSet premises;
  for (int i = 0; i < 4; ++i) premises.push_back(bench::RandomConstraint(rng, n, 2, 0.25, 0.3));
  std::vector<DifferentialConstraint> goals;
  for (int i = 0; i < kQueries; ++i) goals.push_back(bench::RandomConstraint(rng, n, 2, 0.25, 0.3));

  struct Face {
    const char* name;
    std::function<bool(const DifferentialConstraint&)> decide;
  };
  std::vector<Face> faces{
      {"lattice (exhaustive)",
       [&](const DifferentialConstraint& g) {
         return CheckImplicationExhaustive(n, premises, g)->implied;
       }},
      {"SAT / coNP",
       [&](const DifferentialConstraint& g) {
         return CheckImplicationSat(n, premises, g)->implied;
       }},
      {"support functions",
       [&](const DifferentialConstraint& g) { return SupportImplication(n, premises, g); }},
      {"propositional minsets",
       [&](const DifferentialConstraint& g) {
         return PropositionalImplication(n, premises, g);
       }},
  };

  std::vector<std::vector<bool>> answers(faces.size());
  std::printf("%-24s %12s %8s\n", "face", "total ms", "implied");
  for (std::size_t f = 0; f < faces.size(); ++f) {
    auto t0 = std::chrono::steady_clock::now();
    int implied = 0;
    for (const DifferentialConstraint& g : goals) {
      bool r = faces[f].decide(g);
      answers[f].push_back(r);
      if (r) ++implied;
    }
    auto t1 = std::chrono::steady_clock::now();
    std::printf("%-24s %12.2f %8d\n", faces[f].name,
                std::chrono::duration<double, std::milli>(t1 - t0).count(), implied);
  }
  bool all_agree = true;
  for (std::size_t f = 1; f < faces.size(); ++f) {
    if (answers[f] != answers[0]) all_agree = false;
  }
  std::printf("all faces agree on all %d queries: %s\n\n", kQueries,
              all_agree ? "yes" : "NO");
}

void BM_FaceSat(benchmark::State& state) {
  const int n = 10;
  Rng rng(82);
  ConstraintSet premises;
  for (int i = 0; i < 4; ++i) premises.push_back(bench::RandomConstraint(rng, n, 2, 0.25, 0.3));
  DifferentialConstraint goal = bench::RandomConstraint(rng, n, 2, 0.25, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckImplicationSat(n, premises, goal)->implied);
  }
}
BENCHMARK(BM_FaceSat);

void BM_FaceSupport(benchmark::State& state) {
  const int n = 10;
  Rng rng(82);
  ConstraintSet premises;
  for (int i = 0; i < 4; ++i) premises.push_back(bench::RandomConstraint(rng, n, 2, 0.25, 0.3));
  DifferentialConstraint goal = bench::RandomConstraint(rng, n, 2, 0.25, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SupportImplication(n, premises, goal));
  }
}
BENCHMARK(BM_FaceSupport);

void BM_FacePropositional(benchmark::State& state) {
  const int n = 10;
  Rng rng(82);
  ConstraintSet premises;
  for (int i = 0; i < 4; ++i) premises.push_back(bench::RandomConstraint(rng, n, 2, 0.25, 0.3));
  DifferentialConstraint goal = bench::RandomConstraint(rng, n, 2, 0.25, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PropositionalImplication(n, premises, goal));
  }
}
BENCHMARK(BM_FacePropositional);

}  // namespace
}  // namespace diffc

int main(int argc, char** argv) {
  diffc::PrintSemanticsTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
