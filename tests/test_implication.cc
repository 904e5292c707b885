#include <gtest/gtest.h>

#include "core/closure.h"
#include "core/counterexample.h"
#include "core/function_ops.h"
#include "core/implication.h"
#include "core/inference.h"
#include "core/parser.h"
#include "engine/implication_engine.h"
#include "prop/tautology.h"
#include "test_helpers.h"

namespace diffc {
namespace {

// ---------------------------------------------------------- universe checks

// Every entry point refuses a universe size outside [0, 64], and a goal or
// premise that leaves the universe, with one wording. The CNF of
// `premises` has six auxiliary variables numbered right after the four
// attributes, so goal or premise bits 4–9 would alias them.
TEST(UniverseCheckTest, EveryEntryPointRefusesInputOutsideTheUniverse) {
  const ConstraintSet premises{
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}, ItemSet{2}, ItemSet{3}})),
      DifferentialConstraint(ItemSet{1}, SetFamily({ItemSet{0}, ItemSet{2}, ItemSet{3}}))};
  ImplicationEngine engine;
  auto expect_refused = [](const std::vector<Status>& statuses, int n,
                           const std::string& message) {
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      EXPECT_EQ(statuses[i].code(), StatusCode::kInvalidArgument)
          << "entry point " << i << ", n=" << n << ": " << statuses[i].ToString();
      EXPECT_EQ(statuses[i].message(), message) << "entry point " << i << ", n=" << n;
    }
  };
  // The four deciders and the engine's one-query entry point.
  auto entry_points = [&](int n, const ConstraintSet& given, const DifferentialConstraint& goal) {
    return std::vector<Status>{
        CheckImplication(n, given, goal).status(),
        CheckImplicationSat(n, given, goal).status(),
        CheckImplicationExhaustive(n, given, goal).status(),
        CheckImplicationFd(n, given, goal).status(),
        engine.CheckOne(n, given, goal).status,
    };
  };
  auto expect_goal_refused = [&](int n, const DifferentialConstraint& goal,
                                 const std::string& message) {
    std::vector<Status> statuses = entry_points(n, premises, goal);
    statuses.push_back(DeriveImplied(n, premises, goal).status());
    expect_refused(statuses, n, message);
  };
  const DifferentialConstraint inside(ItemSet(), SetFamily({ItemSet{0}}));
  for (int n : {-1, 65}) expect_goal_refused(n, inside, "universe size must be in [0, 64]");
  for (int bit = 4; bit < 10; ++bit) {
    expect_goal_refused(4, DifferentialConstraint(ItemSet{bit}, SetFamily({ItemSet{0}})),
                        "goal lhs mask has attributes outside the 4-attribute universe");
  }
  expect_goal_refused(4, DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1, 5}})),
                      "goal family member has attributes outside the 4-attribute universe");
  // A cited given outside the universe could not validate.
  EXPECT_EQ(DeriveImplied(4, {DifferentialConstraint(ItemSet{5}, SetFamily())}, inside)
                .status()
                .message(),
            "given lhs mask has attributes outside the 4-attribute universe");

  // Premises outside the universe, refused before any goal is seen.
  auto expect_premises_refused = [&](const ConstraintSet& given,
                                     const DifferentialConstraint& goal,
                                     const std::string& message) {
    std::vector<Status> statuses = entry_points(4, given, goal);
    statuses.push_back(engine.Prepare(4, given).status());
    statuses.push_back(engine.CheckBatch(4, given, {goal}).status());
    expect_refused(statuses, 4, message);
  };
  // E -> {} never fires inside the universe, so U = AB refutes A -> {C, D};
  // E aliasing an auxiliary made the CNF answer implied.
  ConstraintSet lhs_outside = premises;
  lhs_outside.push_back(DifferentialConstraint(ItemSet{4}, SetFamily()));
  expect_premises_refused(lhs_outside,
                          DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{2}, ItemSet{3}})),
                          "premise lhs mask has attributes outside the 4-attribute universe");
  // A -> {F} with F outside: the exhaustive walk answered implied, the CNF
  // refused a literal, and the engine's certificate check failed Internal.
  expect_premises_refused({DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{5}}))},
                          DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}})),
                          "premise family member has attributes outside the 4-attribute universe");
}

// ------------------------------------------------------------- basic cases

TEST(ImplicationTest, PaperExample34) {
  // {A->{B}, B->{C}} |= A->{C} over S={A,B,C}.
  Universe u = Universe::Letters(3);
  ConstraintSet c = *ParseConstraintSet(u, "A -> {B}; B -> {C}");
  DifferentialConstraint goal = *ParseConstraint(u, "A -> {C}");
  EXPECT_TRUE(CheckImplicationExhaustive(3, c, goal)->implied);
  EXPECT_TRUE(CheckImplicationSat(3, c, goal)->implied);
  EXPECT_TRUE(CheckImplication(3, c, goal)->implied);
}

TEST(ImplicationTest, NonImpliedWithValidCounterexample) {
  Universe u = Universe::Letters(3);
  ConstraintSet c = *ParseConstraintSet(u, "A -> {B}; B -> {C}");
  DifferentialConstraint goal = *ParseConstraint(u, "C -> {A}");
  Result<ImplicationOutcome> r = CheckImplicationSat(3, c, goal);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->implied);
  ASSERT_TRUE(r->counterexample.has_value());
  EXPECT_TRUE(IsValidCounterexample(3, c, goal, *r->counterexample));
}

TEST(ImplicationTest, TrivialGoalAlwaysImplied) {
  Universe u = Universe::Letters(3);
  DifferentialConstraint goal = *ParseConstraint(u, "AB -> {A}");
  EXPECT_TRUE(CheckImplication(3, {}, goal)->implied);
  EXPECT_TRUE(CheckImplicationSat(3, {}, goal)->implied);
  EXPECT_TRUE(CheckImplicationExhaustive(3, {}, goal)->implied);
}

TEST(ImplicationTest, EmptyPremisesImplyOnlyTrivial) {
  Universe u = Universe::Letters(3);
  DifferentialConstraint goal = *ParseConstraint(u, "A -> {B}");
  EXPECT_FALSE(CheckImplicationSat(3, {}, goal)->implied);
}

TEST(ImplicationTest, SelfImplication) {
  Rng rng(61);
  for (int i = 0; i < 20; ++i) {
    DifferentialConstraint c = testing::RandomConstraint(rng, 5);
    EXPECT_TRUE(CheckImplicationSat(5, {c}, c)->implied);
  }
}

TEST(ImplicationTest, PaperExample43Consequence) {
  // {A->{BC,CD}, C->{D}} |= AB->{D} (Example 4.3 derives it; Theorem 4.8
  // says derivable = implied).
  Universe u = Universe::Letters(4);
  ConstraintSet c = *ParseConstraintSet(u, "A -> {BC, CD}; C -> {D}");
  DifferentialConstraint goal = *ParseConstraint(u, "AB -> {D}");
  EXPECT_TRUE(CheckImplicationSat(4, c, goal)->implied);
  EXPECT_TRUE(CheckImplicationExhaustive(4, c, goal)->implied);
}

TEST(ImplicationTest, EmptyFamilyGoal) {
  // X -> {} demands density zero on the whole up-set of X; implied only by
  // premises covering all of [X, S].
  Universe u = Universe::Letters(2);
  DifferentialConstraint goal = *ParseConstraint(u, "A -> {}");
  EXPECT_FALSE(CheckImplicationSat(2, {}, goal)->implied);
  ConstraintSet covering = *ParseConstraintSet(u, "A -> {}");
  EXPECT_TRUE(CheckImplicationSat(2, covering, goal)->implied);
}

TEST(ImplicationTest, AugmentedPremiseIsWeaker) {
  // A->{B} implies AC->{B} but not vice versa.
  Universe u = Universe::Letters(3);
  DifferentialConstraint strong = *ParseConstraint(u, "A -> {B}");
  DifferentialConstraint weak = *ParseConstraint(u, "AC -> {B}");
  EXPECT_TRUE(CheckImplicationSat(3, {strong}, weak)->implied);
  EXPECT_FALSE(CheckImplicationSat(3, {weak}, strong)->implied);
}

// --------------------------------------------- SAT vs exhaustive (property)

class SatVsExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(SatVsExhaustive, Agree) {
  Rng rng(GetParam() * 91 + 3);
  const int n = 6;
  for (int iter = 0; iter < 20; ++iter) {
    ConstraintSet premises =
        testing::RandomConstraintSet(rng, n, static_cast<int>(rng.UniformInt(0, 4)));
    DifferentialConstraint goal = testing::RandomConstraint(
        rng, n, 0.3, static_cast<int>(rng.UniformInt(0, 3)), 0.3);
    Result<ImplicationOutcome> ex = CheckImplicationExhaustive(n, premises, goal);
    Result<ImplicationOutcome> sat = CheckImplicationSat(n, premises, goal);
    ASSERT_TRUE(ex.ok());
    ASSERT_TRUE(sat.ok());
    EXPECT_EQ(ex->implied, sat->implied);
    if (!sat->implied) {
      EXPECT_TRUE(IsValidCounterexample(n, premises, goal, *sat->counterexample));
      EXPECT_TRUE(IsValidCounterexample(n, premises, goal, *ex->counterexample));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatVsExhaustive, ::testing::Range(1, 13));

// --------------------------------------------------- semantic ground truth

// Theorem 3.5 both ways: implied iff every function built from a density
// vanishing on L(C) satisfies the goal; and the counterexample function
// from a SAT model satisfies C but not the goal.
class SemanticGroundTruth : public ::testing::TestWithParam<int> {};

TEST_P(SemanticGroundTruth, CounterexampleFunctionBehaves) {
  Rng rng(GetParam() * 17 + 11);
  const int n = 5;
  for (int iter = 0; iter < 15; ++iter) {
    ConstraintSet premises = testing::RandomConstraintSet(rng, n, 3);
    DifferentialConstraint goal = testing::RandomConstraint(rng, n);
    Result<ImplicationOutcome> r = CheckImplicationSat(n, premises, goal);
    ASSERT_TRUE(r.ok());
    if (r->implied) continue;
    SetFunction<std::int64_t> f = *CounterexampleFunction(n, *r->counterexample);
    for (const DifferentialConstraint& p : premises) {
      EXPECT_TRUE(Satisfies(f, p)) << p.ToString(Universe::Letters(n));
    }
    EXPECT_FALSE(Satisfies(f, goal));
    EXPECT_TRUE(IsFrequencyFunction(f));  // f_U is a support function.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemanticGroundTruth, ::testing::Range(1, 9));

// ------------------------------------------------------------- FD subclass

TEST(FdSubclassTest, Applicability) {
  Universe u = Universe::Letters(4);
  ConstraintSet fds = *ParseConstraintSet(u, "A -> {B}; B -> {CD}");
  DifferentialConstraint fd_goal = *ParseConstraint(u, "A -> {D}");
  DifferentialConstraint non_fd_goal = *ParseConstraint(u, "A -> {B, C}");
  EXPECT_TRUE(FdSubclassApplicable(fds, fd_goal));
  EXPECT_FALSE(FdSubclassApplicable(fds, non_fd_goal));
  EXPECT_FALSE(FdSubclassApplicable({non_fd_goal}, fd_goal));
}

TEST(FdSubclassTest, TransitiveClosure) {
  Universe u = Universe::Letters(4);
  ConstraintSet fds = *ParseConstraintSet(u, "A -> {B}; B -> {CD}");
  EXPECT_TRUE(CheckImplicationFd(4, fds, *ParseConstraint(u, "A -> {D}"))->implied);
  EXPECT_FALSE(CheckImplicationFd(4, fds, *ParseConstraint(u, "C -> {A}"))->implied);
}

TEST(FdSubclassTest, RequiresApplicability) {
  Universe u = Universe::Letters(3);
  DifferentialConstraint non_fd = *ParseConstraint(u, "A -> {B, C}");
  EXPECT_EQ(CheckImplicationFd(3, {non_fd}, non_fd).status().code(),
            StatusCode::kFailedPrecondition);
}

// §8: the FD subclass agrees with the general decision procedures.
class FdSubclassProperty : public ::testing::TestWithParam<int> {};

TEST_P(FdSubclassProperty, MatchesSatChecker) {
  Rng rng(GetParam() * 13);
  const int n = 6;
  for (int iter = 0; iter < 25; ++iter) {
    ConstraintSet premises;
    int count = static_cast<int>(rng.UniformInt(0, 5));
    for (int i = 0; i < count; ++i) {
      premises.push_back(testing::RandomConstraint(rng, n, 0.3, 1, 0.3));
    }
    DifferentialConstraint goal = testing::RandomConstraint(rng, n, 0.3, 1, 0.3);
    ASSERT_TRUE(FdSubclassApplicable(premises, goal));
    Result<ImplicationOutcome> fd = CheckImplicationFd(n, premises, goal);
    Result<ImplicationOutcome> sat = CheckImplicationSat(n, premises, goal);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(sat.ok());
    EXPECT_EQ(fd->implied, sat->implied);
    if (!fd->implied) {
      // The closure is itself a valid counterexample set.
      EXPECT_TRUE(IsValidCounterexample(n, premises, goal, *fd->counterexample));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdSubclassProperty, ::testing::Range(1, 13));

// --------------------------------------------------------- coNP reduction

TEST(ConpReductionTest, TautologyGoalShape) {
  DifferentialConstraint goal = TautologyGoal();
  EXPECT_TRUE(goal.lhs().empty());
  EXPECT_TRUE(goal.rhs().empty());
}

TEST(ConpReductionTest, ExcludedMiddleMapsToImplied) {
  prop::DnfFormula f;
  f.num_vars = 1;
  f.conjuncts = {{0b1, 0}, {0, 0b1}};  // A ∨ ¬A.
  ConstraintSet c = DnfTautologyReduction(f);
  EXPECT_TRUE(CheckImplicationSat(1, c, TautologyGoal())->implied);
}

TEST(ConpReductionTest, NonTautologyMapsToNonImplied) {
  prop::DnfFormula f;
  f.num_vars = 2;
  f.conjuncts = {{0b01, 0}};  // Just A.
  ConstraintSet c = DnfTautologyReduction(f);
  EXPECT_FALSE(CheckImplicationSat(2, c, TautologyGoal())->implied);
}

// Proposition 5.5: φ tautology ⟺ C_φ |= ∅ -> {} on random DNFs.
class Prop55Property : public ::testing::TestWithParam<int> {};

TEST_P(Prop55Property, ReductionIsCorrect) {
  const int seed = GetParam();
  for (int i = 0; i < 10; ++i) {
    prop::DnfFormula f = prop::RandomDnf(5, 6 + i, 2, seed * 100 + i);
    bool tautology = *prop::IsDnfTautologyExhaustive(f);
    ConstraintSet c = DnfTautologyReduction(f);
    Result<ImplicationOutcome> r = CheckImplicationSat(f.num_vars, c, TautologyGoal());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->implied, tautology) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop55Property, ::testing::Range(1, 9));

// ------------------------------------------------------------------ closure

TEST(ClosureTest, MembershipAndEnumeration) {
  Universe u = Universe::Letters(3);
  ConstraintSet c = *ParseConstraintSet(u, "A -> {B}; B -> {C}");
  // L(C) = L(A,{B}) ∪ L(B,{C}) = {A, AC} ∪ {B, AB}.
  Result<std::vector<ItemSet>> lattice = ClosureLattice(3, c);
  ASSERT_TRUE(lattice.ok());
  EXPECT_EQ(*lattice, (std::vector<ItemSet>{ItemSet(0b001), ItemSet(0b010),
                                            ItemSet(0b011), ItemSet(0b101)}));
  EXPECT_TRUE(InConstraintLattice(c, ItemSet(0b101)));
  EXPECT_FALSE(InConstraintLattice(c, ItemSet(0b100)));
}

TEST(ClosureTest, Equivalence) {
  Universe u = Universe::Letters(3);
  ConstraintSet a = *ParseConstraintSet(u, "A -> {B}; B -> {C}; A -> {C}");
  ConstraintSet b = *ParseConstraintSet(u, "A -> {B}; B -> {C}");
  EXPECT_TRUE(*AreEquivalent(3, a, b));
  ConstraintSet c = *ParseConstraintSet(u, "A -> {B}");
  EXPECT_FALSE(*AreEquivalent(3, a, c));
}

TEST(ClosureTest, RedundantConstraints) {
  Universe u = Universe::Letters(3);
  ConstraintSet c = *ParseConstraintSet(u, "A -> {B}; B -> {C}; A -> {C}");
  Result<std::vector<int>> redundant = RedundantConstraints(3, c);
  ASSERT_TRUE(redundant.ok());
  EXPECT_EQ(*redundant, std::vector<int>{2});
}

TEST(ClosureTest, MinimalCoverIsEquivalentAndIrredundant) {
  Universe u = Universe::Letters(4);
  ConstraintSet c =
      *ParseConstraintSet(u, "A -> {B}; B -> {C}; A -> {C}; AB -> {C}; C -> {D}");
  Result<ConstraintSet> cover = MinimalCover(4, c);
  ASSERT_TRUE(cover.ok());
  EXPECT_LT(cover->size(), c.size());
  EXPECT_TRUE(*AreEquivalent(4, c, *cover));
  EXPECT_TRUE(RedundantConstraints(4, *cover)->empty());
}

TEST(ClosureTest, TrivialConstraintsAreAlwaysRedundant) {
  Universe u = Universe::Letters(3);
  ConstraintSet c = *ParseConstraintSet(u, "AB -> {A}; A -> {B}");
  Result<std::vector<int>> redundant = RedundantConstraints(3, c);
  ASSERT_TRUE(redundant.ok());
  EXPECT_EQ(*redundant, std::vector<int>{0});
}

}  // namespace
}  // namespace diffc
