#include <gtest/gtest.h>

#include "core/implication.h"
#include "core/inference.h"
#include "core/parser.h"
#include "engine/implication_engine.h"
#include "test_helpers.h"

namespace diffc {
namespace {

// ------------------------------------------------------- rule validators

TEST(RuleTest, Triviality) {
  Universe u = Universe::Letters(3);
  EXPECT_TRUE(IsValidTriviality(*ParseConstraint(u, "AB -> {A}")));
  EXPECT_TRUE(IsValidTriviality(*ParseConstraint(u, "A -> {0, B}")));
  EXPECT_FALSE(IsValidTriviality(*ParseConstraint(u, "A -> {B}")));
  EXPECT_FALSE(IsValidTriviality(*ParseConstraint(u, "A -> {}")));
}

TEST(RuleTest, Augmentation) {
  Universe u = Universe::Letters(3);
  DifferentialConstraint p = *ParseConstraint(u, "A -> {B}");
  EXPECT_TRUE(IsValidAugmentation(p, *ParseConstraint(u, "AC -> {B}")));
  EXPECT_TRUE(IsValidAugmentation(p, p));  // Z = ∅ is a legal augmentation.
  EXPECT_FALSE(IsValidAugmentation(p, *ParseConstraint(u, "C -> {B}")));
  EXPECT_FALSE(IsValidAugmentation(p, *ParseConstraint(u, "AC -> {C}")));
}

TEST(RuleTest, Addition) {
  Universe u = Universe::Letters(3);
  DifferentialConstraint p = *ParseConstraint(u, "A -> {B}");
  EXPECT_TRUE(IsValidAddition(p, *ParseConstraint(u, "A -> {B, C}")));
  EXPECT_TRUE(IsValidAddition(p, p));  // Adding an existing member.
  EXPECT_FALSE(IsValidAddition(p, *ParseConstraint(u, "A -> {C}")));  // Dropped B.
  EXPECT_FALSE(IsValidAddition(p, *ParseConstraint(u, "AB -> {B, C}")));  // Lhs changed.
  EXPECT_FALSE(IsValidAddition(*ParseConstraint(u, "A -> {}"),
                               *ParseConstraint(u, "A -> {B, C}")));  // Two members.
}

TEST(RuleTest, Elimination) {
  Universe u = Universe::Letters(3);
  // X -> Y∪{Z}, X∪Z -> Y ⊢ X -> Y with X=A, Y={B}, Z=C.
  DifferentialConstraint p1 = *ParseConstraint(u, "A -> {B, C}");
  DifferentialConstraint p2 = *ParseConstraint(u, "AC -> {B}");
  DifferentialConstraint conclusion = *ParseConstraint(u, "A -> {B}");
  EXPECT_TRUE(IsValidElimination(p1, p2, conclusion));
  EXPECT_FALSE(IsValidElimination(p2, p1, conclusion));  // Premises swapped.
  EXPECT_FALSE(IsValidElimination(p1, p2, *ParseConstraint(u, "A -> {C}")));
  EXPECT_FALSE(
      IsValidElimination(p1, *ParseConstraint(u, "AB -> {B}"), conclusion));
}

TEST(RuleTest, EliminationWithMemberAlreadyPresent) {
  // Z already a member of Y: p1 = X -> Y, still a valid instance.
  Universe u = Universe::Letters(3);
  DifferentialConstraint p1 = *ParseConstraint(u, "A -> {B, C}");
  DifferentialConstraint p2 = *ParseConstraint(u, "AC -> {B, C}");
  DifferentialConstraint conclusion = *ParseConstraint(u, "A -> {B, C}");
  EXPECT_TRUE(IsValidElimination(p1, p2, conclusion));
}

// Figure 1 soundness, rule by rule, on random instances: if f satisfies
// the premises it satisfies the conclusion (via the lattice containment of
// Proposition 4.2, checked with the SAT decision procedure).
class RuleSoundness : public ::testing::TestWithParam<int> {};

TEST_P(RuleSoundness, AugmentationSound) {
  Rng rng(GetParam() * 7);
  const int n = 5;
  for (int i = 0; i < 20; ++i) {
    DifferentialConstraint p = testing::RandomConstraint(rng, n);
    DifferentialConstraint c(p.lhs().Union(ItemSet(rng.RandomMask(n, 0.3))), p.rhs());
    ASSERT_TRUE(IsValidAugmentation(p, c));
    EXPECT_TRUE(CheckImplicationSat(n, {p}, c)->implied);
  }
}

TEST_P(RuleSoundness, AdditionSound) {
  Rng rng(GetParam() * 7 + 1);
  const int n = 5;
  for (int i = 0; i < 20; ++i) {
    DifferentialConstraint p = testing::RandomConstraint(rng, n);
    DifferentialConstraint c(p.lhs(),
                             p.rhs().WithMember(ItemSet(rng.RandomMask(n, 0.3))));
    ASSERT_TRUE(IsValidAddition(p, c));
    EXPECT_TRUE(CheckImplicationSat(n, {p}, c)->implied);
  }
}

TEST_P(RuleSoundness, EliminationSound) {
  Rng rng(GetParam() * 7 + 2);
  const int n = 5;
  for (int i = 0; i < 20; ++i) {
    DifferentialConstraint conclusion = testing::RandomConstraint(rng, n);
    ItemSet z(rng.RandomMask(n, 0.3));
    DifferentialConstraint p1(conclusion.lhs(), conclusion.rhs().WithMember(z));
    DifferentialConstraint p2(conclusion.lhs().Union(z), conclusion.rhs());
    ASSERT_TRUE(IsValidElimination(p1, p2, conclusion));
    EXPECT_TRUE(CheckImplicationSat(n, {p1, p2}, conclusion)->implied);
  }
}

TEST_P(RuleSoundness, TrivialitySound) {
  Rng rng(GetParam() * 7 + 3);
  const int n = 5;
  for (int i = 0; i < 20; ++i) {
    ItemSet lhs(rng.RandomMask(n, 0.5));
    if (lhs.empty()) lhs = ItemSet{0};
    SetFamily fam({ItemSet(rng.RandomNonemptySubsetOf(lhs.bits()))});
    DifferentialConstraint c(lhs, fam);
    ASSERT_TRUE(IsValidTriviality(c));
    EXPECT_TRUE(CheckImplicationSat(n, {}, c)->implied);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleSoundness, ::testing::Range(1, 9));

// ------------------------------------------------------------- derivations

TEST(DerivationTest, ValidateAcceptsHandProof) {
  // Example 3.4 by hand: A->{B}, B->{C} ⊢ A->{C}.
  Universe u = Universe::Letters(3);
  ConstraintSet givens = *ParseConstraintSet(u, "A -> {B}; B -> {C}");
  Derivation d;
  d.AddStep({InferenceRule::kGiven, {}, 0, *ParseConstraint(u, "A -> {B}")});
  d.AddStep({InferenceRule::kGiven, {}, 1, *ParseConstraint(u, "B -> {C}")});
  d.AddStep({InferenceRule::kAddition, {0}, -1, *ParseConstraint(u, "A -> {B, C}")});
  d.AddStep({InferenceRule::kAugmentation, {1}, -1, *ParseConstraint(u, "AB -> {C}")});
  d.AddStep({InferenceRule::kElimination, {2, 3}, -1, *ParseConstraint(u, "A -> {C}")});
  EXPECT_TRUE(ValidateDerivation(3, givens, d).ok());
  EXPECT_EQ(d.conclusion(), *ParseConstraint(u, "A -> {C}"));
}

TEST(DerivationTest, ValidateRejectsWrongGiven) {
  Universe u = Universe::Letters(3);
  ConstraintSet givens = *ParseConstraintSet(u, "A -> {B}");
  Derivation d;
  d.AddStep({InferenceRule::kGiven, {}, 0, *ParseConstraint(u, "A -> {C}")});
  EXPECT_FALSE(ValidateDerivation(3, givens, d).ok());
}

TEST(DerivationTest, ValidateRejectsForwardReference) {
  Universe u = Universe::Letters(3);
  ConstraintSet givens = *ParseConstraintSet(u, "A -> {B}");
  Derivation d;
  d.AddStep({InferenceRule::kAugmentation, {0}, -1, *ParseConstraint(u, "AC -> {B}")});
  EXPECT_FALSE(ValidateDerivation(3, givens, d).ok());  // Premise 0 is itself.
}

TEST(DerivationTest, ValidateRejectsOutOfUniverse) {
  Universe u = Universe::Letters(2);
  Derivation d;
  d.AddStep({InferenceRule::kTriviality, {}, -1,
             DifferentialConstraint(ItemSet{5}, SetFamily({ItemSet{5}}))});
  EXPECT_FALSE(ValidateDerivation(2, {}, d).ok());
}

TEST(DerivationTest, ValidateRejectsEmpty) {
  EXPECT_FALSE(ValidateDerivation(3, {}, Derivation()).ok());
}

TEST(DerivationTest, ToStringMentionsRules) {
  Universe u = Universe::Letters(3);
  Derivation d;
  d.AddStep({InferenceRule::kGiven, {}, 0, *ParseConstraint(u, "A -> {B}")});
  d.AddStep({InferenceRule::kAugmentation, {0}, -1, *ParseConstraint(u, "AC -> {B}")});
  std::string text = d.ToString(u);
  EXPECT_NE(text.find("given"), std::string::npos);
  EXPECT_NE(text.find("augmentation"), std::string::npos);
  EXPECT_NE(text.find("AC -> {B}"), std::string::npos);
}

// ---------------------------------------------------------- proof generator

TEST(DeriveTest, PaperExample43) {
  Universe u = Universe::Letters(4);
  ConstraintSet givens = *ParseConstraintSet(u, "A -> {BC, CD}; C -> {D}");
  DifferentialConstraint goal = *ParseConstraint(u, "AB -> {D}");
  Result<Derivation> d = DeriveImplied(4, givens, goal);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(ValidateDerivation(4, givens, *d).ok());
  EXPECT_EQ(d->conclusion(), goal);
}

TEST(DeriveTest, TrivialGoalIsOneStep) {
  Universe u = Universe::Letters(3);
  DifferentialConstraint goal = *ParseConstraint(u, "AB -> {B}");
  Result<Derivation> d = DeriveImplied(3, {}, goal);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->size(), 1);
  EXPECT_EQ(d->steps()[0].rule, InferenceRule::kTriviality);
}

TEST(DeriveTest, NotImpliedReturnsNotFound) {
  Universe u = Universe::Letters(3);
  ConstraintSet givens = *ParseConstraintSet(u, "A -> {B}");
  Result<Derivation> d = DeriveImplied(3, givens, *ParseConstraint(u, "B -> {A}"));
  EXPECT_EQ(d.status().code(), StatusCode::kNotFound);
}

TEST(DeriveTest, GoalEqualToGiven) {
  Universe u = Universe::Letters(3);
  ConstraintSet givens = *ParseConstraintSet(u, "A -> {BC}");
  DifferentialConstraint goal = *ParseConstraint(u, "A -> {BC}");
  Result<Derivation> d = DeriveImplied(3, givens, goal);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(ValidateDerivation(3, givens, *d).ok());
  EXPECT_EQ(d->conclusion(), goal);
}

TEST(DeriveTest, EmptyFamilyGoal) {
  Universe u = Universe::Letters(2);
  ConstraintSet givens = *ParseConstraintSet(u, "A -> {}");
  DifferentialConstraint goal = *ParseConstraint(u, "AB -> {}");
  Result<Derivation> d = DeriveImplied(2, givens, goal);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(ValidateDerivation(2, givens, *d).ok());
  EXPECT_EQ(d->conclusion(), goal);
}

TEST(DeriveTest, TautologyReductionGoal) {
  // ∅ -> {} from the excluded-middle constraint set.
  prop::DnfFormula f;
  f.num_vars = 2;
  f.conjuncts = {{0b01, 0}, {0, 0b01}};  // A ∨ ¬A over two variables.
  ConstraintSet givens = DnfTautologyReduction(f);
  Result<Derivation> d = DeriveImplied(2, givens, TautologyGoal());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(ValidateDerivation(2, givens, *d).ok());
}

// Completeness (Theorem 4.8): whenever C |= goal, DeriveImplied produces a
// valid base-rule derivation concluding the goal. Soundness
// (Proposition 4.2): it refuses exactly when not implied.
class DeriveCompleteness : public ::testing::TestWithParam<int> {};

TEST_P(DeriveCompleteness, DerivesIffImplied) {
  Rng rng(GetParam() * 53 + 29);
  const int n = 5;
  int derived_count = 0;
  for (int iter = 0; iter < 15; ++iter) {
    ConstraintSet givens =
        testing::RandomConstraintSet(rng, n, static_cast<int>(rng.UniformInt(1, 3)));
    DifferentialConstraint goal = testing::RandomConstraint(
        rng, n, 0.35, static_cast<int>(rng.UniformInt(1, 2)), 0.4);
    bool implied = CheckImplicationSat(n, givens, goal)->implied;
    Result<Derivation> d = DeriveImplied(n, givens, goal);
    if (implied) {
      ASSERT_TRUE(d.ok()) << d.status().ToString();
      EXPECT_TRUE(ValidateDerivation(n, givens, *d).ok());
      EXPECT_EQ(d->conclusion(), goal);
      ++derived_count;
    } else {
      EXPECT_EQ(d.status().code(), StatusCode::kNotFound);
    }
  }
  (void)derived_count;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeriveCompleteness, ::testing::Range(1, 11));

// True iff every step but the last is a premise of a later step.
bool EveryStepCited(const Derivation& d) {
  std::vector<bool> cited(d.size(), false);
  for (const ProofStep& step : d.steps()) {
    for (int p : step.premises) cited[p] = true;
  }
  for (int i = 0; i + 1 < d.size(); ++i) {
    if (!cited[i]) return false;
  }
  return true;
}

// The service's sizes: 64 givens and two-member goals of density 3/n,
// drawn until ten non-trivial goals are implied. A derivation exists iff
// the engine answers implied, and each one validates, concludes the goal
// and cites every step. A proof with one atom per element of L(goal)
// (Theorem 4.8) would not fit the default step budget here.
class DeriveAtServiceSizes : public ::testing::TestWithParam<int> {};

TEST_P(DeriveAtServiceSizes, DerivesIffTheEngineAnswersImplied) {
  const int n = GetParam();
  const double density = 3.0 / n;
  Rng rng(n);
  const ConstraintSet givens = testing::RandomConstraintSet(rng, n, 64, density, 2, density);
  ImplicationEngine engine;
  int derived = 0;
  for (int draws = 0; draws < 4000 && derived < 10; ++draws) {
    const DifferentialConstraint goal = testing::RandomConstraint(rng, n, density, 2, density);
    if (goal.IsTrivial()) continue;
    const EngineQueryResult r = engine.CheckOne(n, givens, goal);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    Result<Derivation> d = DeriveImplied(n, givens, goal);
    if (!r.outcome.implied) {
      EXPECT_EQ(d.status().code(), StatusCode::kNotFound);
      continue;
    }
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_TRUE(ValidateDerivation(n, givens, *d).ok());
    EXPECT_EQ(d->conclusion(), goal);
    EXPECT_TRUE(EveryStepCited(*d));
    ++derived;
  }
  EXPECT_EQ(derived, 10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeriveAtServiceSizes, ::testing::Values(16, 24, 32, 64));

TEST(DeriveTest, SmallProofsCiteEveryStep) {
  Rng rng(41);
  for (int iter = 0; iter < 200; ++iter) {
    const int n = static_cast<int>(rng.UniformInt(3, 8));
    const ConstraintSet givens =
        testing::RandomConstraintSet(rng, n, static_cast<int>(rng.UniformInt(1, 5)));
    const DifferentialConstraint goal = testing::RandomConstraint(rng, n);
    Result<Derivation> d = DeriveImplied(n, givens, goal);
    ASSERT_EQ(d.ok(), CheckImplicationSat(n, givens, goal)->implied) << d.status().ToString();
    if (d.ok()) {
      EXPECT_TRUE(EveryStepCited(*d));
    }
  }
}

TEST(DeriveTest, PigeonholeTautology) {
  // PHP(4,3) through the Prop. 5.5 reduction: 22 givens over n = 12. The
  // proof is smaller than the 2^12 atoms of L(∅ -> {}).
  const prop::DnfFormula php = testing::PigeonholeDnf(3);
  const ConstraintSet givens = DnfTautologyReduction(php);
  Result<Derivation> d = DeriveImplied(php.num_vars, givens, TautologyGoal());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(ValidateDerivation(php.num_vars, givens, *d).ok());
  EXPECT_EQ(d->conclusion(), TautologyGoal());
  EXPECT_TRUE(EveryStepCited(*d));
  EXPECT_LT(d->size(), 1 << php.num_vars);
}

TEST(DeriveTest, NotImpliedIsNotFoundWhateverTheBudget) {
  // The search closes (AC, ∅) and (BC, {A}) by triviality before it meets
  // U = CD, so a one-step budget is spent before the goal is refuted.
  Universe u = Universe::Letters(4);
  ConstraintSet givens = *ParseConstraintSet(u, "C -> {D}");
  DifferentialConstraint goal = *ParseConstraint(u, "C -> {AC, BC}");
  DeriveOptions one;
  one.max_steps = 1;
  EXPECT_EQ(DeriveImplied(4, givens, goal, one).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(DeriveImplied(4, givens, goal).status().code(), StatusCode::kNotFound);
}

TEST(DeriveTest, ImpliedOverBudgetIsResourceExhausted) {
  Universe u = Universe::Letters(4);
  ConstraintSet givens = *ParseConstraintSet(u, "A -> {BC, CD}; C -> {D}");
  DifferentialConstraint goal = *ParseConstraint(u, "AB -> {D}");
  Result<Derivation> full = DeriveImplied(4, givens, goal);
  ASSERT_TRUE(full.ok());
  DeriveOptions short_by_one;
  short_by_one.max_steps = static_cast<std::size_t>(full->size()) - 1;
  EXPECT_EQ(DeriveImplied(4, givens, goal, short_by_one).status().code(),
            StatusCode::kResourceExhausted);
  DeriveOptions exact;
  exact.max_steps = static_cast<std::size_t>(full->size());
  EXPECT_TRUE(DeriveImplied(4, givens, goal, exact).ok());
}

// Every validated machine proof is semantically sound: each step's
// conclusion is implied by the givens.
TEST(DeriveTest, EveryStepImplied) {
  Universe u = Universe::Letters(4);
  ConstraintSet givens = *ParseConstraintSet(u, "A -> {BC, CD}; C -> {D}");
  Result<Derivation> d = DeriveImplied(4, givens, *ParseConstraint(u, "AB -> {D}"));
  ASSERT_TRUE(d.ok());
  for (const ProofStep& step : d->steps()) {
    EXPECT_TRUE(CheckImplicationSat(4, givens, step.conclusion)->implied)
        << step.conclusion.ToString(u);
  }
}

// ------------------------------------------ Figure 2: derived rules

// Each Figure 2 rule is validated by machine-deriving a random instance of
// its conclusion from its premises using only the base rules.
class Fig2Derivable : public ::testing::TestWithParam<int> {};

TEST_P(Fig2Derivable, ProjectionDerivable) {
  // X -> Y∪{Y∪Z} ⊢ X -> Y∪{Y}.
  Rng rng(GetParam() * 3 + 100);
  const int n = 5;
  ItemSet x(rng.RandomMask(n, 0.25));
  ItemSet y(rng.RandomNonemptySubsetOf(FullMask(n)));
  ItemSet z(rng.RandomMask(n, 0.3));
  SetFamily rest = SetFamily::FromMasks(rng.RandomFamily(n, 1, 0.3));
  DifferentialConstraint premise(x, rest.WithMember(y.Union(z)));
  DifferentialConstraint conclusion(x, rest.WithMember(y));
  Result<Derivation> d = DeriveImplied(n, {premise}, conclusion);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(ValidateDerivation(n, {premise}, *d).ok());
}

TEST_P(Fig2Derivable, SeparationDerivable) {
  // X -> Y∪{Y∪Z} ⊢ X -> Y∪{Y}∪{Z}.
  Rng rng(GetParam() * 3 + 200);
  const int n = 5;
  ItemSet x(rng.RandomMask(n, 0.25));
  ItemSet y(rng.RandomNonemptySubsetOf(FullMask(n)));
  ItemSet z(rng.RandomNonemptySubsetOf(FullMask(n)));
  SetFamily rest = SetFamily::FromMasks(rng.RandomFamily(n, 1, 0.3));
  DifferentialConstraint premise(x, rest.WithMember(y.Union(z)));
  DifferentialConstraint conclusion(x, rest.WithMember(y).WithMember(z));
  Result<Derivation> d = DeriveImplied(n, {premise}, conclusion);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(ValidateDerivation(n, {premise}, *d).ok());
}

TEST_P(Fig2Derivable, UnionDerivable) {
  // X -> Y∪{Y}, X -> Y∪{Z} ⊢ X -> Y∪{Y∪Z}.
  Rng rng(GetParam() * 3 + 300);
  const int n = 5;
  ItemSet x(rng.RandomMask(n, 0.25));
  ItemSet y(rng.RandomNonemptySubsetOf(FullMask(n)));
  ItemSet z(rng.RandomNonemptySubsetOf(FullMask(n)));
  SetFamily rest = SetFamily::FromMasks(rng.RandomFamily(n, 1, 0.3));
  DifferentialConstraint p1(x, rest.WithMember(y));
  DifferentialConstraint p2(x, rest.WithMember(z));
  DifferentialConstraint conclusion(x, rest.WithMember(y.Union(z)));
  Result<Derivation> d = DeriveImplied(n, {p1, p2}, conclusion);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(ValidateDerivation(n, {p1, p2}, *d).ok());
}

TEST_P(Fig2Derivable, TransitivityDerivable) {
  // X -> Y∪{Y}, Y -> Y∪{Z} ⊢ X -> Y∪{Z}.
  Rng rng(GetParam() * 3 + 400);
  const int n = 5;
  ItemSet x(rng.RandomMask(n, 0.25));
  ItemSet y(rng.RandomNonemptySubsetOf(FullMask(n)));
  ItemSet z(rng.RandomNonemptySubsetOf(FullMask(n)));
  SetFamily rest = SetFamily::FromMasks(rng.RandomFamily(n, 1, 0.25));
  DifferentialConstraint p1(x, rest.WithMember(y));
  DifferentialConstraint p2(y, rest.WithMember(z));
  DifferentialConstraint conclusion(x, rest.WithMember(z));
  Result<Derivation> d = DeriveImplied(n, {p1, p2}, conclusion);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(ValidateDerivation(n, {p1, p2}, *d).ok());
}

TEST_P(Fig2Derivable, ChainDerivable) {
  // X -> Y∪{Y}, X∪Y -> Y∪{Z} ⊢ X -> Y∪{Y∪Z}.
  Rng rng(GetParam() * 3 + 500);
  const int n = 5;
  ItemSet x(rng.RandomMask(n, 0.25));
  ItemSet y(rng.RandomNonemptySubsetOf(FullMask(n)));
  ItemSet z(rng.RandomNonemptySubsetOf(FullMask(n)));
  SetFamily rest = SetFamily::FromMasks(rng.RandomFamily(n, 1, 0.25));
  DifferentialConstraint p1(x, rest.WithMember(y));
  DifferentialConstraint p2(x.Union(y), rest.WithMember(z));
  DifferentialConstraint conclusion(x, rest.WithMember(y.Union(z)));
  Result<Derivation> d = DeriveImplied(n, {p1, p2}, conclusion);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(ValidateDerivation(n, {p1, p2}, *d).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fig2Derivable, ::testing::Range(1, 13));

}  // namespace
}  // namespace diffc
