// Cross-module property tests: interactions between the theory layers
// that no single-module suite covers.

#include <gtest/gtest.h>

#include <set>

#include "core/armstrong.h"
#include "core/atoms.h"
#include "core/closure.h"
#include "core/function_ops.h"
#include "core/implication.h"
#include "core/inference.h"
#include "core/parser.h"
#include "ds/belief.h"
#include "fis/closed.h"
#include "fis/concise.h"
#include "fis/generator.h"
#include "fis/io.h"
#include "fis/ndi.h"
#include "fis/support.h"
#include "prop/dpll.h"
#include "prop/minterm.h"
#include "relational/simpson.h"
#include "relational/boolean_dependency.h"
#include "test_helpers.h"

namespace diffc {
namespace {

// ----------------------------------------------------------- rational laws

TEST(DeepRational, FieldLaws) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    Rational a(rng.UniformInt(-20, 20), rng.UniformInt(1, 20));
    Rational b(rng.UniformInt(-20, 20), rng.UniformInt(1, 20));
    Rational c(rng.UniformInt(-20, 20), rng.UniformInt(1, 20));
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + (-a), Rational(0));
    if (!a.IsZero()) {
      EXPECT_EQ(a / a, Rational(1));
    }
    EXPECT_EQ(a - b, -(b - a));
  }
}

// ------------------------------------------------- transforms and duality

TEST(DeepMobius, SubsetTransformRoundTrip) {
  Rng rng(2);
  SetFunction<std::int64_t> f = *SetFunction<std::int64_t>::Make(7);
  for (Mask m = 0; m < f.size(); ++m) f.at(m) = rng.UniformInt(-30, 30);
  SetFunction<std::int64_t> g = f;
  ZetaSubsetInPlace(g);
  MobiusSubsetInPlace(g);
  EXPECT_EQ(g, f);
}

TEST(DeepMobius, SubsetZetaIsSubsetSum) {
  Rng rng(3);
  SetFunction<std::int64_t> f = *SetFunction<std::int64_t>::Make(6);
  for (Mask m = 0; m < f.size(); ++m) f.at(m) = rng.UniformInt(-10, 10);
  SetFunction<std::int64_t> g = f;
  ZetaSubsetInPlace(g);
  for (Mask x = 0; x < f.size(); ++x) {
    std::int64_t sum = 0;
    ForEachSubset(x, [&](Mask u) { sum += f.at(u); });
    EXPECT_EQ(g.at(x), sum) << x;
  }
}

// --------------------------------------------- constraint-set equivalences

// Remark 4.5: {c}* = decomp(c)* = atoms(c)*.
class DeepEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DeepEquivalence, ConstraintDecompAtomsAllEquivalent) {
  Rng rng(GetParam() * 19);
  const int n = 5;
  for (int iter = 0; iter < 6; ++iter) {
    DifferentialConstraint c = testing::RandomConstraint(rng, n);
    ConstraintSet single{c};
    Result<std::vector<DifferentialConstraint>> decomp = Decomp(c);
    Result<std::vector<DifferentialConstraint>> atoms = Atoms(n, c);
    ASSERT_TRUE(decomp.ok());
    ASSERT_TRUE(atoms.ok());
    EXPECT_TRUE(*AreEquivalent(n, single, *decomp));
    EXPECT_TRUE(*AreEquivalent(n, single, *atoms));
  }
}

TEST_P(DeepEquivalence, MinimalCoverPreservesArmstrongModel) {
  Rng rng(GetParam() * 23 + 7);
  const int n = 5;
  ConstraintSet c = testing::RandomConstraintSet(rng, n, 4);
  Result<ConstraintSet> cover = MinimalCover(n, c);
  ASSERT_TRUE(cover.ok());
  // Equivalent sets have the same closure lattice, hence the same
  // Armstrong function.
  EXPECT_EQ(*ArmstrongFunction(n, c), *ArmstrongFunction(n, *cover));
}

TEST_P(DeepEquivalence, AddingPremisesIsMonotone) {
  Rng rng(GetParam() * 29 + 1);
  const int n = 5;
  ConstraintSet base = testing::RandomConstraintSet(rng, n, 2);
  ConstraintSet more = base;
  more.push_back(testing::RandomConstraint(rng, n));
  for (int i = 0; i < 15; ++i) {
    DifferentialConstraint goal = testing::RandomConstraint(rng, n);
    if (CheckImplicationSat(n, base, goal)->implied) {
      EXPECT_TRUE(CheckImplicationSat(n, more, goal)->implied);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepEquivalence, ::testing::Range(1, 7));

// Minimizing the right-hand family does not change the semantics.
TEST(DeepEquivalence2, FamilyMinimizationInvariant) {
  Rng rng(31);
  const int n = 5;
  for (int iter = 0; iter < 30; ++iter) {
    ItemSet x(rng.RandomMask(n, 0.3));
    SetFamily fam = SetFamily::FromMasks(rng.RandomFamily(n, 3, 0.4));
    DifferentialConstraint full(x, fam);
    DifferentialConstraint minimized(x, fam.Minimized());
    EXPECT_TRUE(*AreEquivalent(n, {full}, {minimized}));
  }
}

// ---------------------------------------------------- derivation edge cases

TEST(DeepDerivation, StepBudgetEnforced) {
  Universe u = Universe::Letters(6);
  ConstraintSet givens = *ParseConstraintSet(u, "0 -> {AB, CD, EF}");
  // Implied: every U avoiding A, CD and F holds neither AB nor EF.
  DifferentialConstraint goal = *ParseConstraint(u, "0 -> {A, CD, F}");
  Result<Derivation> full = DeriveImplied(6, givens, goal);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_TRUE(ValidateDerivation(6, givens, *full).ok());
  EXPECT_GT(full->size(), 3);
  // Its proof does not fit in 3 steps.
  DeriveOptions tiny;
  tiny.max_steps = 3;
  Result<Derivation> d = DeriveImplied(6, givens, goal, tiny);
  EXPECT_EQ(d.status().code(), StatusCode::kResourceExhausted) << d.status().ToString();
}

TEST(DeepDerivation, ProofsSurviveMinimalCoverSwap) {
  // A goal provable from C is provable from MinimalCover(C).
  Universe u = Universe::Letters(4);
  ConstraintSet c = *ParseConstraintSet(u, "A -> {B}; B -> {C}; A -> {C}; C -> {D}");
  ConstraintSet cover = *MinimalCover(4, c);
  DifferentialConstraint goal = *ParseConstraint(u, "A -> {D}");
  Result<Derivation> d = DeriveImplied(4, cover, goal);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(ValidateDerivation(4, cover, *d).ok());
}

// --------------------------------------------------------- FIS interactions

TEST(DeepFis, SupportFunctionIsLinearInConcatenation) {
  BasketGenConfig config;
  config.num_items = 7;
  config.num_baskets = 40;
  config.seed = 41;
  BasketList a = *GenerateBaskets(config);
  config.seed = 42;
  BasketList b = *GenerateBaskets(config);
  std::vector<Mask> both = a.baskets();
  both.insert(both.end(), b.baskets().begin(), b.baskets().end());
  BasketList ab = *BasketList::Make(7, both);
  SetFunction<std::int64_t> sa = *SupportFunction(a);
  SetFunction<std::int64_t> sb = *SupportFunction(b);
  SetFunction<std::int64_t> sab = *SupportFunction(ab);
  for (Mask m = 0; m < sa.size(); ++m) {
    EXPECT_EQ(sab.at(m), sa.at(m) + sb.at(m));
  }
}

// All four representations agree on every status (consensus check).
class DeepRepresentationConsensus : public ::testing::TestWithParam<int> {};

TEST_P(DeepRepresentationConsensus, AllDeriveTheSameStatuses) {
  BasketGenConfig config;
  config.num_items = 8;
  config.num_baskets = 120;
  config.seed = GetParam() * 3;
  BasketList b = *GenerateBasketsWithRules(config, {{0, ItemSet{1, 2}}});
  const std::int64_t kappa = 12;
  ConciseRepresentation fdfree =
      *ConciseRepresentation::Build(b, {.min_support = kappa, .rule_arity = 2});
  NdiRepresentation ndi = *NdiRepresentation::Build(b, kappa);
  std::vector<CountedItemset> closed = *ClosedFrequentItemsets(b, kappa);
  SetFunction<std::int64_t> support = *SupportFunction(b);
  for (Mask m = 0; m < (Mask{1} << 8); ++m) {
    const bool truth = support.at(m) >= kappa;
    EXPECT_EQ(fdfree.Derive(ItemSet(m)).frequent, truth) << m;
    EXPECT_EQ(ndi.Derive(ItemSet(m)).frequent, truth) << m;
    EXPECT_EQ(DeriveFromClosed(closed, kappa, ItemSet(m)).frequent, truth) << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepRepresentationConsensus, ::testing::Range(1, 5));

TEST(DeepFis, IoFuzzRoundTrip) {
  Rng rng(47);
  for (int iter = 0; iter < 20; ++iter) {
    const int n = static_cast<int>(rng.UniformInt(1, 20));
    std::vector<Mask> baskets;
    int count = static_cast<int>(rng.UniformInt(0, 30));
    for (int i = 0; i < count; ++i) baskets.push_back(rng.RandomMask(n, 0.3));
    BasketList b = *BasketList::Make(n, baskets);
    Result<BasketList> loaded = BasketsFromText(BasketsToText(b));
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->baskets(), b.baskets());
    EXPECT_EQ(loaded->num_items(), n);
  }
}

TEST(DeepFis, ParserNeverCrashesOnGarbage) {
  Universe u = Universe::Letters(4);
  for (const char* text :
       {"", "->", "A ->", "-> {B}", "A -> {B", "A -> B}", "A -> {B,, C}", "A - > {B}",
        "{A} -> {B}", "A -> {B} -> {C}", "0 -> {0}", "ABCD -> {}", ";;;", "A -> {B;C}"}) {
    Result<DifferentialConstraint> c = ParseConstraint(u, text);
    // Either parses or reports an error; no crash, and round-trips when ok.
    if (c.ok()) {
      EXPECT_TRUE(ParseConstraint(u, c->ToString(u)).ok()) << text;
    }
  }
}

// --------------------------------------------------------- Simpson/DS links

TEST(DeepSimpson, SatisfactionIndependentOfDistribution) {
  // Proposition 7.3 both ways: the verdict depends only on the relation,
  // not on the (positive) distribution.
  Rng rng(53);
  const int n = 4;
  for (int iter = 0; iter < 6; ++iter) {
    std::vector<std::vector<int>> rows;
    std::set<std::vector<int>> seen;
    int tuples = static_cast<int>(rng.UniformInt(2, 6));
    while (static_cast<int>(rows.size()) < tuples) {
      std::vector<int> row(n);
      for (int a = 0; a < n; ++a) row[a] = static_cast<int>(rng.UniformInt(0, 2));
      if (seen.insert(row).second) rows.push_back(row);
    }
    Relation r = *Relation::Make(n, rows);
    Distribution uniform = *Distribution::Uniform(r.size());
    // A skewed distribution: weights 1, 2, 3, ... scaled.
    std::vector<Rational> weights;
    std::int64_t total = 0;
    for (int i = 0; i < r.size(); ++i) total += i + 1;
    for (int i = 0; i < r.size(); ++i) weights.push_back(Rational(i + 1, total));
    Distribution skewed = *Distribution::Make(weights);

    SetFunction<Rational> d1 = Density(*SimpsonFunction(r, uniform));
    SetFunction<Rational> d2 = Density(*SimpsonFunction(r, skewed));
    for (int c_iter = 0; c_iter < 20; ++c_iter) {
      DifferentialConstraint c = testing::RandomConstraint(rng, n, 0.3, 2, 0.4);
      EXPECT_EQ(SatisfiesWithDensity(d1, c), SatisfiesWithDensity(d2, c));
    }
  }
}

TEST(DeepDs, CommonalitySatisfactionMatchesBasketAnalogy) {
  // A mass function's focal elements behave exactly like a (weighted)
  // basket list: satisfaction of a constraint by the commonality function
  // equals disjunctive satisfaction by the focal elements as baskets.
  Rng rng(59);
  const int n = 4;
  for (int iter = 0; iter < 20; ++iter) {
    // Random mass on a few focal elements.
    SetFunction<Rational> values = *SetFunction<Rational>::Make(n);
    std::vector<Mask> focal;
    int count = static_cast<int>(rng.UniformInt(1, 4));
    std::int64_t total = 0;
    std::vector<std::int64_t> w;
    for (int i = 0; i < count; ++i) {
      Mask m = rng.RandomMask(n, 0.4);
      if (m == 0) m = 1;
      focal.push_back(m);
      w.push_back(rng.UniformInt(1, 4));
      total += w.back();
    }
    for (int i = 0; i < count; ++i) values.at(focal[i]) += Rational(w[i], total);
    MassFunction mass = *MassFunction::Make(values);
    std::vector<Mask> focal_masks;
    for (const ItemSet& f : mass.FocalElements()) focal_masks.push_back(f.bits());
    BasketList baskets = *BasketList::Make(n, focal_masks);
    for (int c_iter = 0; c_iter < 10; ++c_iter) {
      DifferentialConstraint c = testing::RandomConstraint(rng, n);
      EXPECT_EQ(mass.SatisfiesConstraint(c), SatisfiesDisjunctive(baskets, c));
    }
  }
}

// ------------------------------------------------------------ prop solvers

TEST(DeepProp, TseitinEquisatisfiableUnderDpll) {
  Rng rng(61);
  const int n = 5;
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<prop::FormulaPtr> parts;
    int count = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < count; ++i) {
      std::vector<prop::FormulaPtr> lits;
      int width = static_cast<int>(rng.UniformInt(1, 3));
      for (int j = 0; j < width; ++j) {
        prop::FormulaPtr v = prop::Formula::Var(static_cast<int>(rng.UniformInt(0, n - 1)));
        lits.push_back(rng.Bernoulli(0.5) ? v : prop::Formula::Not(v));
      }
      parts.push_back(rng.Bernoulli(0.5) ? prop::Formula::And(lits)
                                         : prop::Formula::Or(lits));
    }
    prop::FormulaPtr f =
        rng.Bernoulli(0.5) ? prop::Formula::And(parts) : prop::Formula::Or(parts);
    bool truth_sat = !prop::Minset(*f, n)->empty();
    prop::Cnf cnf = prop::TseitinTransform(*f, n);
    Result<prop::SatResult> r = prop::DpllSolver().Solve(cnf);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->satisfiable, truth_sat);
  }
}

// --------------------------------------------------------- tiny universes

TEST(DeepEdge, SingletonUniverse) {
  const int n = 1;
  Universe u = Universe::Letters(n);
  DifferentialConstraint c = *ParseConstraint(u, "0 -> {A}");
  // L(∅, {A}) = {∅}.
  Result<std::vector<ItemSet>> L = EnumerateDecomposition(n, c.lhs(), c.rhs());
  ASSERT_TRUE(L.ok());
  EXPECT_EQ(*L, std::vector<ItemSet>{ItemSet()});
  // Implication with itself and proof.
  EXPECT_TRUE(CheckImplicationSat(n, {c}, c)->implied);
  Result<Derivation> d = DeriveImplied(n, {c}, c);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(ValidateDerivation(n, {c}, *d).ok());
}

TEST(DeepEdge, EmptyUniverse) {
  SetFunction<std::int64_t> f = *SetFunction<std::int64_t>::Make(0);
  f.at(Mask{0}) = 5;
  EXPECT_TRUE(IsFrequencyFunction(f));
  // The only constraints are ∅ -> {} and ∅ -> {∅}.
  DifferentialConstraint trivial(ItemSet(), SetFamily({ItemSet()}));
  DifferentialConstraint empty_family{ItemSet(), SetFamily()};
  EXPECT_TRUE(Satisfies(f, trivial));
  EXPECT_FALSE(Satisfies(f, empty_family));  // d(∅) = 5 ≠ 0.
  EXPECT_TRUE(CheckImplicationSat(0, {}, trivial)->implied);
  EXPECT_FALSE(CheckImplicationSat(0, {}, empty_family)->implied);
}

TEST(DeepEdge, ApriorOnDegenerateBaskets) {
  // All-empty baskets: only ∅ is frequent.
  BasketList b = *BasketList::Make(3, {0, 0, 0});
  AprioriResult r = *Apriori(b, 2);
  ASSERT_EQ(r.frequent.size(), 1u);
  EXPECT_EQ(r.frequent[0].items, 0u);
  EXPECT_EQ(r.frequent[0].support, 3);
}

}  // namespace
}  // namespace diffc
