#include <gtest/gtest.h>

#include <set>

#include "core/closure.h"
#include "core/counterexample.h"
#include "core/function_ops.h"
#include "core/implication.h"
#include "core/inference.h"
#include "core/parser.h"
#include "fis/basket.h"
#include "fis/disjunctive.h"
#include "fis/support.h"
#include "prop/implication_constraint.h"
#include "prop/minterm.h"
#include "relational/boolean_dependency.h"
#include "test_helpers.h"

namespace diffc {
namespace {

// Theorem 8.1 makes nine statements equivalent. This suite cross-checks the
// decidable faces of that equivalence on random instances:
//
//   (1) C |= X -> Y                    (lattice containment, exhaustive)
//   (2) C |=support(S) X -> Y          (support-function counterexamples)
//   (3) Cprop |= X ⇒prop Y             (propositional entailment, minsets)
//   (4) Cdisj |= X ⇒disj Y             (basket-list counterexamples)
//   (5) C ⊢ X -> Y                     (machine-generated derivations)
//   (6) L(C) ⊇ L(X, Y)                 (direct containment)
//   (7) the SAT decision procedure.
class Theorem81 : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int kN = 5;

  // Faces (1)/(6): direct lattice containment.
  static bool LatticeContainment(const ConstraintSet& c, const DifferentialConstraint& g) {
    for (Mask m = 0; m < (Mask{1} << kN); ++m) {
      ItemSet u(m);
      if (InDecomposition(kN, g.lhs(), g.rhs(), u) && !InConstraintLattice(c, u)) {
        return false;
      }
    }
    return true;
  }

  // Face (3): propositional entailment of the translated formulas.
  static bool PropositionalEntailment(const ConstraintSet& c,
                                      const DifferentialConstraint& g) {
    std::vector<prop::FormulaPtr> premises;
    for (const DifferentialConstraint& p : c) {
      premises.push_back(prop::ImplicationConstraintFormula(p.lhs(), p.rhs()));
    }
    return *prop::Entails(premises,
                          *prop::ImplicationConstraintFormula(g.lhs(), g.rhs()), kN);
  }

  // Faces (2)/(4): search all one-basket lists (U) for a counterexample —
  // per Proposition 6.4's proof these witness every non-implication.
  static bool SupportImplication(const ConstraintSet& c, const DifferentialConstraint& g) {
    for (Mask u = 0; u < (Mask{1} << kN); ++u) {
      BasketList b = *BasketList::Make(kN, {u});
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
};

TEST_P(Theorem81, AllFacesAgree) {
  Rng rng(GetParam() * 7919 + 13);
  for (int iter = 0; iter < 10; ++iter) {
    ConstraintSet c =
        testing::RandomConstraintSet(rng, kN, static_cast<int>(rng.UniformInt(0, 3)));
    DifferentialConstraint goal = testing::RandomConstraint(
        rng, kN, 0.3, static_cast<int>(rng.UniformInt(0, 2)), 0.35);

    const bool lattice = LatticeContainment(c, goal);
    EXPECT_EQ(CheckImplicationExhaustive(kN, c, goal)->implied, lattice);
    EXPECT_EQ(CheckImplicationSat(kN, c, goal)->implied, lattice);
    EXPECT_EQ(PropositionalEntailment(c, goal), lattice);
    EXPECT_EQ(SupportImplication(c, goal), lattice);
    Result<Derivation> derivation = DeriveImplied(kN, c, goal);
    EXPECT_EQ(derivation.ok(), lattice);
    if (derivation.ok()) {
      EXPECT_TRUE(ValidateDerivation(kN, c, *derivation).ok());
      EXPECT_EQ(derivation->conclusion(), goal);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem81, ::testing::Range(1, 13));

// End-to-end: a full pipeline on the paper's own running example.
TEST(IntegrationTest, PaperRunningExample) {
  Universe u = Universe::Letters(4);
  ConstraintSet c = *ParseConstraintSet(u, "A -> {BC, CD}; C -> {D}");

  // Example 4.3: AB -> {D} is derivable, hence implied, hence every
  // support function satisfying C satisfies it.
  DifferentialConstraint goal = *ParseConstraint(u, "AB -> {D}");
  ASSERT_TRUE(CheckImplication(4, c, goal)->implied);
  Result<Derivation> proof = DeriveImplied(4, c, goal);
  ASSERT_TRUE(proof.ok());
  ASSERT_TRUE(ValidateDerivation(4, c, *proof).ok());

  // A goal that is not implied, with a counterexample that works at every
  // level: function, basket list, lattice.
  DifferentialConstraint bad = *ParseConstraint(u, "D -> {A}");
  Result<ImplicationOutcome> outcome = CheckImplication(4, c, bad);
  ASSERT_FALSE(outcome->implied);
  ItemSet cex = *outcome->counterexample;
  EXPECT_TRUE(IsValidCounterexample(4, c, bad, cex));

  SetFunction<std::int64_t> f = *CounterexampleFunction(4, cex);
  for (const DifferentialConstraint& p : c) EXPECT_TRUE(Satisfies(f, p));
  EXPECT_FALSE(Satisfies(f, bad));

  BasketList b = *BasketList::Make(4, {cex.bits()});
  for (const DifferentialConstraint& p : c) EXPECT_TRUE(SatisfiesDisjunctive(b, p));
  EXPECT_FALSE(SatisfiesDisjunctive(b, bad));
  // And the support function of that basket list is exactly f.
  EXPECT_EQ(*SupportFunction(b), f);
}

// Boolean-dependency face (Corollary 7.4, soundness direction): relations
// whose boolean dependencies include C also satisfy implied constraints.
TEST(IntegrationTest, BooleanDependencyFaceSound) {
  Rng rng(4242);
  const int n = 4;
  for (int iter = 0; iter < 10; ++iter) {
    ConstraintSet c = testing::RandomConstraintSet(rng, n, 2);
    DifferentialConstraint goal = testing::RandomConstraint(rng, n, 0.3, 2, 0.35);
    if (!CheckImplicationSat(n, c, goal)->implied) continue;
    // Random relations satisfying all of C must satisfy the goal.
    for (int r_iter = 0; r_iter < 20; ++r_iter) {
      int tuples = static_cast<int>(rng.UniformInt(1, 6));
      std::vector<std::vector<int>> rows;
      std::set<std::vector<int>> seen;
      while (static_cast<int>(rows.size()) < tuples) {
        std::vector<int> row(n);
        for (int a = 0; a < n; ++a) row[a] = static_cast<int>(rng.UniformInt(0, 2));
        if (seen.insert(row).second) rows.push_back(row);
      }
      Relation rel = *Relation::Make(n, rows);
      bool sat_all = true;
      for (const DifferentialConstraint& p : c) {
        if (!SatisfiesBooleanDependency(rel, p)) {
          sat_all = false;
          break;
        }
      }
      if (sat_all) {
        EXPECT_TRUE(SatisfiesBooleanDependency(rel, goal));
      }
    }
  }
}

// The Σ2 disjunctive-itemset notion is monotone (supersets of disjunctive
// sets are disjunctive), matching the paper's Section 6 discussion.
TEST(IntegrationTest, DisjunctiveItemsetsUpwardClosed) {
  Universe u = Universe::Letters(5);
  ConstraintSet c = *ParseConstraintSet(u, "A -> {B, C}");
  ASSERT_TRUE(*IsDisjunctiveForConstraints(5, c, ItemSet{0, 1, 2}));
  EXPECT_TRUE(*IsDisjunctiveForConstraints(5, c, ItemSet{0, 1, 2, 3}));
  EXPECT_TRUE(*IsDisjunctiveForConstraints(5, c, ItemSet{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace diffc
