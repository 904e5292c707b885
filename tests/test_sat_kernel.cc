// The `sat` procedure's mask-native counterexample search
// (`engine/sat_kernel.h`): seeded differential checks against the
// exhaustive Theorem 3.5 oracle and the Proposition 5.4 CNF + DPLL
// procedure with every counterexample certified, the search started from
// witness-set intervals and its Σ 2^−|W| ≤ 1 guard, the adversarial
// Proposition 5.5 families (pigeonhole, random DNF tautologies), universe
// and premise edge cases, the node budget, and cooperative stops.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/counterexample.h"
#include "core/implication.h"
#include "engine/prepared_premises.h"
#include "engine/sat_kernel.h"
#include "lattice/hitting_set.h"
#include "obs/metrics.h"
#include "prop/tautology.h"
#include "test_helpers.h"
#include "util/deadline.h"
#include "util/random.h"

namespace diffc {
namespace {

constexpr std::uint64_t kUnbounded = std::uint64_t{1} << 40;

Result<ImplicationOutcome> Search(int n, const ConstraintSet& premises,
                                  const DifferentialConstraint& goal,
                                  std::uint64_t max_nodes = kUnbounded,
                                  StopCheck* stop = nullptr,
                                  prop::SolverStats* stats = nullptr,
                                  std::span<const Mask> seeds = {}) {
  return SearchCounterexample(n, PremiseMasks::Compile(premises), goal, max_nodes, stop,
                              stats, seeds);
}

// The witness sets W of the goal family's nonempty intervals [X, S∖W]
// (W ∩ X = ∅): together they hold every counterexample (Definition 2.6).
std::vector<Mask> IntervalSeeds(const DifferentialConstraint& goal) {
  Result<std::vector<ItemSet>> witnesses = MinimalWitnessSets(goal.rhs());
  EXPECT_TRUE(witnesses.ok());
  std::vector<Mask> seeds;
  if (!witnesses.ok()) return seeds;
  for (const ItemSet& w : *witnesses) {
    if ((w.bits() & goal.lhs().bits()) == 0) seeds.push_back(w.bits());
  }
  return seeds;
}

// The unseeded search's node bound: one full binary tree over the goal's
// f = n − |X| free attributes.
std::uint64_t NodeBound(int n, const DifferentialConstraint& goal) {
  return (std::uint64_t{2} << (n - goal.lhs().size())) - 1;
}

// The Theorem 3.5 certificate of a not-implied verdict: U inside the
// universe, U ⊇ X, no goal member inside U, and U ∉ L(C).
void ExpectCertified(int n, const ConstraintSet& premises, const DifferentialConstraint& goal,
                     const ImplicationOutcome& out, const char* where) {
  ASSERT_TRUE(out.counterexample.has_value()) << where;
  const ItemSet& u = *out.counterexample;
  EXPECT_TRUE(u.IsSubsetOf(ItemSet(FullMask(n)))) << where;
  EXPECT_TRUE(goal.lhs().IsSubsetOf(u)) << where;
  EXPECT_FALSE(goal.rhs().SomeMemberSubsetOf(u)) << where;
  EXPECT_FALSE(InConstraintLattice(premises, u)) << where;
  EXPECT_TRUE(IsValidCounterexample(n, premises, goal, u)) << where;
}

// A random premise set mixing the shapes the engine sees: sparse and dense
// left-hand sides, families of zero to four members, and occasional
// premises `X -> {}`.
ConstraintSet RandomPremises(Rng& rng, int n) {
  ConstraintSet out;
  const int count = rng.UniformInt(0, 10);
  for (int i = 0; i < count; ++i) {
    const int members = rng.UniformInt(0, 4);
    out.push_back(testing::RandomConstraint(rng, n, rng.UniformInt(0, 1) ? 0.15 : 0.35,
                                            members, rng.UniformInt(0, 1) ? 0.2 : 0.4));
  }
  return out;
}

TEST(SatKernelTest, AgreesWithExhaustiveAndDpllAndCertifiesEveryCounterexample) {
  Rng rng(20261016);
  int implied = 0;
  int not_implied = 0;
  int within_guard = 0;
  for (int i = 0; i < 3000; ++i) {
    const int n = 1 + i % 12;
    const ConstraintSet premises = RandomPremises(rng, n);
    const DifferentialConstraint goal =
        testing::RandomConstraint(rng, n, 0.2, rng.UniformInt(0, 3), 0.3);
    Result<ImplicationOutcome> kernel = Search(n, premises, goal);
    Result<ImplicationOutcome> exhaustive = CheckImplicationExhaustive(n, premises, goal);
    Result<ImplicationOutcome> dpll = CheckImplicationSat(n, premises, goal);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    ASSERT_TRUE(exhaustive.ok());
    ASSERT_TRUE(dpll.ok());
    ASSERT_EQ(kernel->implied, exhaustive->implied) << "instance " << i;
    ASSERT_EQ(kernel->implied, dpll->implied) << "instance " << i;
    // The canonical arena of the prepared artifact gives the same verdict.
    Result<std::shared_ptr<const PreparedPremises>> prepared =
        PreparedPremises::Build(n, premises);
    ASSERT_TRUE(prepared.ok());
    Result<ImplicationOutcome> canonical = SearchCounterexample(
        n, (*prepared)->masks(), goal, kUnbounded, nullptr, nullptr);
    ASSERT_TRUE(canonical.ok());
    ASSERT_EQ(canonical->implied, kernel->implied) << "instance " << i;
    // Started from every nonempty interval: the same verdict, within the
    // unseeded node bound whichever path the guard picks.
    const std::vector<Mask> seeds = IntervalSeeds(goal);
    prop::SolverStats seeded_stats;
    Result<ImplicationOutcome> seeded =
        Search(n, premises, goal, kUnbounded, nullptr, &seeded_stats, seeds);
    ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
    ASSERT_EQ(seeded->implied, kernel->implied) << "instance " << i;
    EXPECT_LE(seeded_stats.decisions, NodeBound(n, goal)) << "instance " << i;
    std::uint64_t kraft = 0;  // Σ 2^(12−|W|): the guard holds iff ≤ 2^12.
    for (const Mask w : seeds) kraft += std::uint64_t{1} << (12 - Popcount(w));
    if (!seeds.empty() && kraft <= (std::uint64_t{1} << 12)) ++within_guard;
    if (kernel->implied) {
      ++implied;
      EXPECT_FALSE(kernel->counterexample.has_value());
    } else {
      ++not_implied;
      ExpectCertified(n, premises, goal, *kernel, "raw");
      ExpectCertified(n, premises, goal, *canonical, "canonical");
      ExpectCertified(n, premises, goal, *seeded, "seeded");
    }
  }
  // Both verdicts and both search paths are well represented, or the
  // agreement is vacuous.
  EXPECT_GT(implied, 300);
  EXPECT_GT(not_implied, 300);
  EXPECT_GT(within_guard, 300);
}

TEST(SatKernelTest, SeedsWithinTheGuardSearchOnlyTheirIntervals) {
  // C -> {AB} has the witness sets A and B: Σ 2^−|W| = 1, the guard's
  // boundary, so the search is seeded. D -> {ABC} and C -> {AB, D} imply
  // it. Unseeded, the search branches on D at the root and refutes both
  // children (3 nodes); seeded, each interval starts with its W outside U
  // and conflicts at its root (2 nodes).
  const int n = 4;
  const DifferentialConstraint goal(ItemSet{2}, SetFamily({ItemSet{0, 1}}));
  const ConstraintSet premises{
      DifferentialConstraint(ItemSet{3}, SetFamily({ItemSet{0, 1, 2}})),
      DifferentialConstraint(ItemSet{2}, SetFamily({ItemSet{0, 1}, ItemSet{3}}))};
  const std::vector<Mask> seeds = IntervalSeeds(goal);
  ASSERT_EQ(seeds, (std::vector<Mask>{0b0001, 0b0010}));
  prop::SolverStats unseeded_stats;
  prop::SolverStats seeded_stats;
  Result<ImplicationOutcome> unseeded =
      Search(n, premises, goal, kUnbounded, nullptr, &unseeded_stats);
  Result<ImplicationOutcome> seeded =
      Search(n, premises, goal, kUnbounded, nullptr, &seeded_stats, seeds);
  ASSERT_TRUE(unseeded.ok());
  ASSERT_TRUE(seeded.ok());
  EXPECT_TRUE(unseeded->implied);
  EXPECT_TRUE(seeded->implied);
  EXPECT_EQ(unseeded_stats.decisions, 3u);
  EXPECT_EQ(seeded_stats.decisions, 2u);
  EXPECT_EQ(seeded_stats.conflicts, 2u);
  // The seeds share one node budget: two roots do not fit in one node.
  EXPECT_EQ(Search(n, premises, goal, 1, nullptr, nullptr, seeds).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(SatKernelTest, SeedsPastTheGuardSearchUnseeded) {
  // ∅ -> {ABC} has three singleton witness sets: Σ 2^−|W| = 3/2 > 1, so
  // three seeded trees could outgrow the unseeded one. The call with seeds
  // is the unseeded call, node for node. (Seeded, the A interval alone
  // would answer U = BC in one node; unseeded, the search branches on A
  // and answers U = AB in two.)
  const int n = 3;
  const ConstraintSet premises{DifferentialConstraint(ItemSet(), SetFamily({ItemSet{1}})),
                               DifferentialConstraint(ItemSet(),
                                                      SetFamily({ItemSet{0}, ItemSet{1, 2}}))};
  const DifferentialConstraint goal(ItemSet(), SetFamily({ItemSet{0, 1, 2}}));
  const std::vector<Mask> seeds = IntervalSeeds(goal);
  ASSERT_EQ(seeds, (std::vector<Mask>{0b001, 0b010, 0b100}));
  prop::SolverStats unseeded_stats;
  prop::SolverStats seeded_stats;
  Result<ImplicationOutcome> unseeded =
      Search(n, premises, goal, kUnbounded, nullptr, &unseeded_stats);
  Result<ImplicationOutcome> seeded =
      Search(n, premises, goal, kUnbounded, nullptr, &seeded_stats, seeds);
  ASSERT_TRUE(unseeded.ok());
  ASSERT_TRUE(seeded.ok());
  ASSERT_FALSE(unseeded->implied);
  ASSERT_FALSE(seeded->implied);
  EXPECT_EQ(*unseeded->counterexample, ItemSet({0, 1}));
  EXPECT_EQ(*seeded->counterexample, *unseeded->counterexample);
  EXPECT_EQ(seeded_stats.decisions, unseeded_stats.decisions);
  EXPECT_EQ(seeded_stats.decisions, 2u);
  ExpectCertified(n, premises, goal, *seeded, "guard");
}

TEST(SatKernelTest, PigeonholeTautologiesAreImpliedInTwoHFactorialMinusOneNodes) {
  std::uint64_t factorial = 2;
  for (int holes = 3; holes <= 7; ++holes) {
    factorial *= static_cast<std::uint64_t>(holes);
    const prop::DnfFormula f = testing::PigeonholeDnf(holes);
    const ConstraintSet premises = DnfTautologyReduction(f);
    prop::SolverStats stats;
    Result<ImplicationOutcome> r =
        Search(f.num_vars, premises, TautologyGoal(), kUnbounded, nullptr, &stats);
    ASSERT_TRUE(r.ok()) << "holes=" << holes << ": " << r.status().ToString();
    EXPECT_TRUE(r->implied) << "holes=" << holes;
    // One dead end per injective placement of `holes` pigeons, reached
    // through a binary tree: h! conflicts, 2·h! − 1 nodes. The engine's
    // budget tests are calibrated on these counts.
    EXPECT_EQ(stats.conflicts, factorial) << "holes=" << holes;
    EXPECT_EQ(stats.decisions, 2 * factorial - 1) << "holes=" << holes;
    if (holes <= 5) {
      Result<ImplicationOutcome> dpll = CheckImplicationSat(f.num_vars, premises, TautologyGoal());
      ASSERT_TRUE(dpll.ok());
      EXPECT_TRUE(dpll->implied);
    }
  }
}

TEST(SatKernelTest, RandomDnfTautologyReductionsMatchTheTruthTable) {
  // The bench_conp family: random 3-DNFs across the density spectrum, from
  // rarely to almost always tautological.
  int tautologies = 0;
  int falsified = 0;
  for (int vars : {8, 10, 12}) {
    for (int conjuncts : {vars, vars * 4, vars * 16}) {
      for (int t = 0; t < 20; ++t) {
        const prop::DnfFormula f =
            prop::RandomDnf(vars, conjuncts, 3, vars * 1000 + conjuncts + t);
        const ConstraintSet premises = DnfTautologyReduction(f);
        Result<ImplicationOutcome> r = Search(vars, premises, TautologyGoal());
        Result<bool> truth = prop::IsDnfTautologyExhaustive(f);
        Result<ImplicationOutcome> dpll = CheckImplicationSat(vars, premises, TautologyGoal());
        ASSERT_TRUE(r.ok());
        ASSERT_TRUE(truth.ok());
        ASSERT_TRUE(dpll.ok());
        ASSERT_EQ(r->implied, *truth) << "vars=" << vars << " conjuncts=" << conjuncts;
        ASSERT_EQ(r->implied, dpll->implied);
        if (r->implied) {
          ++tautologies;
        } else {
          ++falsified;
          ExpectCertified(vars, premises, TautologyGoal(), *r, "dnf");
          // The counterexample is a falsifying assignment of the DNF.
          EXPECT_FALSE(f.Eval(r->counterexample->bits()));
        }
      }
    }
  }
  EXPECT_GT(tautologies, 0);
  EXPECT_GT(falsified, 0);
}

TEST(SatKernelTest, AttributeSixtyThreeAtFullWidth) {
  const int n = 64;
  const ItemSet top = ItemSet::Singleton(63);
  // {62} -> {{63}} implies itself.
  const ConstraintSet chain{
      DifferentialConstraint(ItemSet::Singleton(62), SetFamily({top}))};
  Result<ImplicationOutcome> same = Search(n, chain, chain[0]);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->implied);
  // {63} -> {{1}} does not imply {63} -> {{0}}: U = {1, 63} separates them,
  // and the search must keep bit 63 in it.
  const ConstraintSet premises{DifferentialConstraint(top, SetFamily({ItemSet{1}}))};
  const DifferentialConstraint goal(top, SetFamily({ItemSet{0}}));
  Result<ImplicationOutcome> r = Search(n, premises, goal);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->implied);
  ExpectCertified(n, premises, goal, *r, "bit 63");
  EXPECT_EQ(*r->counterexample, ItemSet({1, 63}));
  Result<ImplicationOutcome> dpll = CheckImplicationSat(n, premises, goal);
  ASSERT_TRUE(dpll.ok());
  EXPECT_FALSE(dpll->implied);
}

TEST(SatKernelTest, EmptyPremiseSetImpliesOnlyTrivialGoals) {
  const int n = 4;
  const ConstraintSet none;
  const DifferentialConstraint goal(ItemSet{0}, SetFamily({ItemSet{1}, ItemSet{2, 3}}));
  Result<ImplicationOutcome> r = Search(n, none, goal);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->implied);
  ExpectCertified(n, none, goal, *r, "empty premises");
  // A trivial goal (a member inside X) conflicts at the root.
  prop::SolverStats stats;
  Result<ImplicationOutcome> trivial =
      Search(n, none, DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}})),
             kUnbounded, nullptr, &stats);
  ASSERT_TRUE(trivial.ok());
  EXPECT_TRUE(trivial->implied);
  EXPECT_EQ(stats.decisions, 1u);
  EXPECT_EQ(stats.conflicts, 1u);
}

TEST(SatKernelTest, PremiseWithEmptyFamilyExcludesEverySupersetOfItsLeftSide) {
  const int n = 4;
  // ∅ -> {} puts every set in L(C): everything is implied.
  const ConstraintSet everything{DifferentialConstraint(ItemSet(), SetFamily())};
  Result<ImplicationOutcome> all =
      Search(n, everything, DifferentialConstraint(ItemSet(), SetFamily({ItemSet{1}})));
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->implied);
  // {0} -> {} covers exactly the sets containing 0.
  const ConstraintSet zero{DifferentialConstraint(ItemSet{0}, SetFamily())};
  Result<ImplicationOutcome> covered =
      Search(n, zero, DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}})));
  ASSERT_TRUE(covered.ok());
  EXPECT_TRUE(covered->implied);
  const DifferentialConstraint open(ItemSet(), SetFamily({ItemSet{1}}));
  Result<ImplicationOutcome> escapes = Search(n, zero, open);
  ASSERT_TRUE(escapes.ok());
  ASSERT_FALSE(escapes->implied);
  ExpectCertified(n, zero, open, *escapes, "X -> {}");
  EXPECT_FALSE(escapes->counterexample->Contains(0));
}

TEST(SatKernelTest, TautologyGoal) {
  const int n = 3;
  // Without premises L(C) is empty, so ∅ -> {} (all of 2^S) is not implied.
  Result<ImplicationOutcome> free = Search(n, {}, TautologyGoal());
  ASSERT_TRUE(free.ok());
  ASSERT_FALSE(free->implied);
  ExpectCertified(n, {}, TautologyGoal(), *free, "tautology goal");
  // ∅ -> {} implies it.
  const ConstraintSet all{TautologyGoal()};
  Result<ImplicationOutcome> covered = Search(n, all, TautologyGoal());
  ASSERT_TRUE(covered.ok());
  EXPECT_TRUE(covered->implied);
}

TEST(SatKernelTest, NodeBudgetBindsWhenPropagationCannotSettle) {
  const prop::DnfFormula f = testing::PigeonholeDnf(3);  // 11 nodes.
  const ConstraintSet premises = DnfTautologyReduction(f);
  prop::SolverStats stats;
  Result<ImplicationOutcome> one =
      Search(f.num_vars, premises, TautologyGoal(), 1, nullptr, &stats);
  EXPECT_EQ(one.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stats.decisions, 2u);  // The root, and the first node past the budget.
  EXPECT_EQ(Search(f.num_vars, premises, TautologyGoal(), 10).status().code(),
            StatusCode::kResourceExhausted);
  Result<ImplicationOutcome> exact = Search(f.num_vars, premises, TautologyGoal(), 11);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->implied);
  // An instance propagation settles at the root fits a budget of 1.
  const ConstraintSet chain{DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}})),
                            DifferentialConstraint(ItemSet{1}, SetFamily({ItemSet{2}}))};
  Result<ImplicationOutcome> settled =
      Search(4, chain, DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{2}})), 1);
  ASSERT_TRUE(settled.ok());
  EXPECT_TRUE(settled->implied);
}

TEST(SatKernelTest, FiredStopConditionsEndTheSearch) {
  const prop::DnfFormula f = testing::PigeonholeDnf(5);
  const ConstraintSet premises = DnfTautologyReduction(f);
  CancelToken token;
  token.Cancel();
  StopCheck cancelled(Deadline::Never(), token);
  prop::SolverStats stats;
  EXPECT_EQ(
      Search(f.num_vars, premises, TautologyGoal(), kUnbounded, &cancelled, &stats).status().code(),
      StatusCode::kCancelled);
  EXPECT_EQ(stats.decisions, 1u);  // Stopped at the root.
  StopCheck expired(Deadline::After(std::chrono::nanoseconds(0)), CancelToken());
  EXPECT_EQ(Search(f.num_vars, premises, TautologyGoal(), kUnbounded, &expired).status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(SatKernelTest, FlushesItsCountersOncePerSearch) {
  obs::Registry& r = obs::Registry::Global();
  obs::Counter* nodes = r.GetCounter("diffc_engine_sat_nodes_total", "");
  obs::Counter* propagations = r.GetCounter("diffc_engine_sat_propagations_total", "");
  obs::Counter* conflicts = r.GetCounter("diffc_engine_sat_conflicts_total", "");
  const std::uint64_t nodes0 = nodes->Value();
  const std::uint64_t propagations0 = propagations->Value();
  const std::uint64_t conflicts0 = conflicts->Value();
  const prop::DnfFormula f = testing::PigeonholeDnf(4);
  prop::SolverStats stats;
  ASSERT_TRUE(Search(f.num_vars, DnfTautologyReduction(f), TautologyGoal(), kUnbounded, nullptr,
                     &stats)
                  .ok());
  EXPECT_GT(stats.propagations, 0u);
  EXPECT_EQ(nodes->Value(), nodes0 + stats.decisions);
  EXPECT_EQ(propagations->Value(), propagations0 + stats.propagations);
  EXPECT_EQ(conflicts->Value(), conflicts0 + stats.conflicts);
}

}  // namespace
}  // namespace diffc
