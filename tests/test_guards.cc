// Resource-guard behaviors: every exponential algorithm in the library is
// guarded and must fail with ResourceExhausted — never hang or overflow —
// when pushed past its limit, and the guards must not trigger on sized
// work below the limit.

#include <gtest/gtest.h>

#include "core/atoms.h"
#include "core/implication.h"
#include "core/inference.h"
#include "fis/disjunctive.h"
#include "lattice/decomposition.h"
#include "lattice/hitting_set.h"
#include "lattice/mobius.h"
#include "prop/dpll.h"
#include "prop/minterm.h"
#include "test_helpers.h"

namespace diffc {
namespace {

TEST(GuardTest, DecompositionEnumeration) {
  SetFamily fam({ItemSet{0}});
  EXPECT_EQ(EnumerateDecomposition(30, ItemSet(), fam, /*max_free_bits=*/24)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(EnumerateDecomposition(30, ItemSet(FullMask(28)), fam, 24).ok());
  EXPECT_EQ(CountDecomposition(30, ItemSet(), fam, 24).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(GuardTest, MinimalWitnessResultCap) {
  // n singleton-ish members of two elements each: 2^k minimal transversal
  // candidates; cap at 4.
  std::vector<ItemSet> members;
  for (int i = 0; i < 8; ++i) members.push_back(ItemSet{2 * i, 2 * i + 1});
  Result<std::vector<ItemSet>> r = MinimalWitnessSets(SetFamily(members), 4);
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(GuardTest, ExhaustiveImplication) {
  Universe u = Universe::Letters(30);
  DifferentialConstraint goal(ItemSet(), SetFamily({ItemSet{0}}));
  EXPECT_EQ(CheckImplicationExhaustive(30, {}, goal, 24).status().code(),
            StatusCode::kResourceExhausted);
  // The SAT path has no such limit.
  EXPECT_TRUE(CheckImplicationSat(30, {}, goal).ok());
}

TEST(GuardTest, AtomsInheritEnumerationGuard) {
  DifferentialConstraint c(ItemSet(), SetFamily({ItemSet{0}}));
  EXPECT_EQ(Atoms(30, c).status().code(), StatusCode::kResourceExhausted);
}

TEST(GuardTest, MinsetEnumeration) {
  prop::FormulaPtr v = prop::Formula::Var(0);
  EXPECT_EQ(prop::Minset(*v, 30, 24).status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(prop::Entails({}, *v, 30, 24).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(GuardTest, DpllDecisionBudget) {
  // A hard instance with a 2-decision budget must report exhaustion, not
  // a wrong answer.
  prop::Cnf cnf;
  const int n = 12;
  cnf.num_vars = n;
  Rng rng(3);
  for (int i = 0; i < n * 5; ++i) {
    prop::Clause clause;
    for (int j = 0; j < 3; ++j) {
      int var = static_cast<int>(rng.UniformInt(0, n - 1));
      clause.push_back(rng.Bernoulli(0.5) ? var + 1 : -(var + 1));
    }
    cnf.AddClause(std::move(clause));
  }
  prop::DpllSolver tiny(/*max_decisions=*/2);
  Result<prop::SatResult> r = tiny.Solve(cnf);
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(GuardTest, DisjunctiveItemsetSize) {
  BasketList b = *BasketList::Make(30, {FullMask(30)});
  EXPECT_EQ(IsDisjunctiveItemset(b, ItemSet(FullMask(30)), 2).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(GuardTest, RuleMiningUniverse) {
  BasketList b = *BasketList::Make(30, {});
  EXPECT_EQ(MineSingletonRules(b, 2, 2).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(GuardTest, DeriveBudgetNeverWrongAnswer) {
  // With a generous-enough budget the derivation succeeds; with budget 1
  // it either proves trivial goals or exhausts — never mis-derives.
  Rng rng(7);
  const int n = 5;
  for (int iter = 0; iter < 10; ++iter) {
    ConstraintSet givens = testing::RandomConstraintSet(rng, n, 2);
    DifferentialConstraint goal = testing::RandomConstraint(rng, n);
    DeriveOptions one;
    one.max_steps = 1;
    Result<Derivation> d = DeriveImplied(n, givens, goal, one);
    if (d.ok()) {
      EXPECT_TRUE(ValidateDerivation(n, givens, *d).ok());
      EXPECT_EQ(d->conclusion(), goal);
    } else {
      EXPECT_TRUE(d.status().code() == StatusCode::kNotFound ||
                  d.status().code() == StatusCode::kResourceExhausted)
          << d.status().ToString();
    }
  }
}

TEST(GuardTest, SetFunctionSizeCap) {
  EXPECT_EQ(SetFunction<double>::Make(kMaxSetFunctionBits + 1).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace diffc
