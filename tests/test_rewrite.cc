// Rule-driven rewrite canonicalizer (DESIGN.md §14): a slinky-style rule
// tester verifies every registered rule on hundreds of seeded random
// instances by materializing L(C) on small universes before and after and
// asserting set equality; plus fixpoint-driver properties (termination
// within the pass bound, idempotence at fixpoint, cost monotonicity),
// registry invariants, the n=64 boundary, and prepare/cache integration.

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "engine/caches.h"
#include "engine/implication_engine.h"
#include "engine/prepared_premises.h"
#include "rewrite/lc_check.h"
#include "rewrite/rewrite_rule.h"
#include "rewrite/simplifier.h"
#include "test_helpers.h"
#include "util/random.h"

namespace diffc {
namespace {

using rewrite::BuiltinRules;
using rewrite::FindRule;
using rewrite::LcEquivalent;
using rewrite::Probe;
using rewrite::RewriteCost;
using rewrite::RewriteRule;
using rewrite::RuleProbe;
using rewrite::Simplify;
using rewrite::SimplifyOptions;
using rewrite::SimplifyStats;

// ---------------------------------------------------------------------------
// Instance generators: random sets with planted redundancy so each rule has
// something to fire on. All draw from the shared helpers, densities chosen
// so instances mix redundant and irreducible constraints.

// A member that is a subset of `lhs` makes the constraint trivial.
DifferentialConstraint PlantTrivial(Rng& rng, int n) {
  ItemSet lhs(rng.RandomMask(n, 0.5));
  if (lhs.empty()) lhs = ItemSet::Singleton(static_cast<int>(rng.UniformInt(0, n - 1)));
  SetFamily rhs = testing::RandomConstraint(rng, n).rhs();
  return DifferentialConstraint(lhs, rhs.WithMember(ItemSet(rng.RandomSubsetOf(lhs.bits()))));
}

// A family holding both Y and a strict superset of Y is non-minimal.
DifferentialConstraint PlantNonMinimal(Rng& rng, int n) {
  DifferentialConstraint base = testing::RandomConstraint(rng, n);
  ItemSet y = base.rhs().member(0);
  ItemSet wider = y.Union(ItemSet(rng.RandomMask(n, 0.4)));
  if (wider == y) wider = y.Union(ItemSet::Singleton(static_cast<int>(rng.UniformInt(0, n - 1))));
  return DifferentialConstraint(base.lhs(), base.rhs().WithMember(wider));
}

// Members overlapping the left-hand side can be narrowed to Y∖X.
DifferentialConstraint PlantOverlap(Rng& rng, int n) {
  ItemSet lhs(rng.RandomMask(n, 0.4));
  if (lhs.empty()) lhs = ItemSet::Singleton(static_cast<int>(rng.UniformInt(0, n - 1)));
  std::vector<ItemSet> members;
  const int count = static_cast<int>(rng.UniformInt(1, 3));
  for (int i = 0; i < count; ++i) {
    ItemSet outside(rng.RandomMask(n, 0.3));
    ItemSet inside(rng.RandomSubsetOf(lhs.bits()));
    ItemSet y = outside.Union(inside);
    if (y.Minus(lhs).empty()) {
      // Keep the constraint nontrivial: force a bit outside the lhs.
      ItemSet extra = lhs.ComplementIn(n);
      if (extra.empty()) continue;
      y = y.Union(ItemSet::Singleton(LowestBit(extra.bits())));
    }
    members.push_back(y);
  }
  if (members.empty()) members.push_back(lhs.ComplementIn(n));
  return DifferentialConstraint(lhs, SetFamily(std::move(members)));
}

// An augmented/added copy of `base`: wider lhs, extra member — absorbed by
// `base` per the Figure 1 augmentation/addition schemas.
DifferentialConstraint PlantAbsorbed(Rng& rng, int n, const DifferentialConstraint& base) {
  ItemSet lhs = base.lhs().Union(ItemSet(rng.RandomMask(n, 0.3)));
  SetFamily rhs = base.rhs();
  if (rng.Bernoulli(0.5)) {
    rhs = rhs.WithMember(ItemSet(rng.RandomMask(n, 0.4)));  // Addition.
  }
  return DifferentialConstraint(lhs, rhs);
}

ConstraintSet BaseSet(Rng& rng, int n) {
  return testing::RandomConstraintSet(rng, n, static_cast<int>(rng.UniformInt(2, 5)));
}

// ---------------------------------------------------------------------------
// The rule tester: seeded random instances through one rule at a time,
// ground-truthed against the materialized L(C).

void TestRule(const std::string& name, int min_applied,
              const std::function<ConstraintSet(Rng&, int)>& make_instance) {
  const RewriteRule* rule = FindRule(name);
  ASSERT_NE(rule, nullptr) << "no builtin rule named " << name;
  Rng rng(0xD1FFC + static_cast<std::uint64_t>(name.size()) * 131 +
          static_cast<std::uint64_t>(name[0]));
  int applied = 0;
  int attempts = 0;
  const int max_attempts = 50 * min_applied;
  while (applied < min_applied && attempts < max_attempts) {
    ++attempts;
    const int n = static_cast<int>(rng.UniformInt(4, 10));
    const ConstraintSet instance = make_instance(rng, n);
    const RuleProbe probe = Probe(*rule, n, instance);
    if (probe.edits == 0) continue;
    ++applied;
    // Progress: the cost triple strictly decreases on application.
    EXPECT_LT(probe.after, probe.before) << name << " attempt " << attempts;
    // Soundness: L(C) is bit-for-bit identical over all 2^n subsets.
    ItemSet witness;
    Result<bool> same = LcEquivalent(n, instance, probe.result, &witness);
    ASSERT_TRUE(same.ok());
    ASSERT_TRUE(*same) << name << " changed L(C): witness mask=" << witness.bits()
                       << " n=" << n;
    // Rule-local fixpoint: a second application finds nothing new.
    ConstraintSet again = probe.result;
    EXPECT_EQ(rule->Apply(n, &again), 0u) << name << " not idempotent";
  }
  EXPECT_GE(applied, min_applied)
      << name << " fired on too few instances (" << applied << "/" << min_applied
      << " in " << attempts << " attempts)";
}

TEST(RewriteRuleTester, DropTrivial) {
  TestRule("drop-trivial", 200, [](Rng& rng, int n) {
    ConstraintSet c = BaseSet(rng, n);
    const int planted = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < planted; ++i) c.push_back(PlantTrivial(rng, n));
    return c;
  });
}

TEST(RewriteRuleTester, MinimizeRhs) {
  TestRule("minimize-rhs", 200, [](Rng& rng, int n) {
    ConstraintSet c = BaseSet(rng, n);
    const int planted = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < planted; ++i) c.push_back(PlantNonMinimal(rng, n));
    return c;
  });
}

TEST(RewriteRuleTester, NarrowMembers) {
  TestRule("narrow-members", 200, [](Rng& rng, int n) {
    ConstraintSet c = BaseSet(rng, n);
    const int planted = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < planted; ++i) c.push_back(PlantOverlap(rng, n));
    return c;
  });
}

TEST(RewriteRuleTester, AbsorbSubsumed) {
  TestRule("absorb-subsumed", 200, [](Rng& rng, int n) {
    ConstraintSet c = BaseSet(rng, n);
    const DifferentialConstraint& base = c[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(c.size()) - 1))];
    ConstraintSet out = c;
    out.push_back(PlantAbsorbed(rng, n, base));
    if (rng.Bernoulli(0.3)) out.push_back(c[0]);  // Exact duplicate.
    return out;
  });
}

TEST(RewriteRuleTester, MergeSameLhs) {
  TestRule("merge-same-lhs", 200, [](Rng& rng, int n) {
    ConstraintSet c = BaseSet(rng, n);
    // Same-lhs singleton families merge into one cross-union member.
    ItemSet lhs(rng.RandomMask(n, 0.3));
    const int group = static_cast<int>(rng.UniformInt(2, 3));
    for (int i = 0; i < group; ++i) {
      Mask m = rng.RandomMask(n, 0.4) & ~lhs.bits();
      if (m == 0) m = ItemSet::Singleton(static_cast<int>(rng.UniformInt(0, n - 1))).bits();
      c.push_back(DifferentialConstraint(lhs, SetFamily({ItemSet(m)})));
    }
    return c;
  });
}

// ---------------------------------------------------------------------------
// Rule-list invariants.

TEST(RewriteRegistryTest, CatalogsTheFiveBuiltinRules) {
  const std::vector<const RewriteRule*>& rules = BuiltinRules();
  ASSERT_EQ(rules.size(), 5u);
  EXPECT_STREQ(rules[0]->name(), "drop-trivial");
  EXPECT_STREQ(rules[1]->name(), "minimize-rhs");
  EXPECT_STREQ(rules[2]->name(), "narrow-members");
  EXPECT_STREQ(rules[3]->name(), "absorb-subsumed");
  EXPECT_STREQ(rules[4]->name(), "merge-same-lhs");
  // Structural rules run at level 1; the rewriting ones need level 2.
  EXPECT_EQ(rules[0]->min_level(), 1);
  EXPECT_EQ(rules[1]->min_level(), 1);
  EXPECT_EQ(rules[2]->min_level(), 2);
  EXPECT_EQ(rules[3]->min_level(), 1);
  EXPECT_EQ(rules[4]->min_level(), 2);
  EXPECT_EQ(FindRule("no-such-rule"), nullptr);
}

// ---------------------------------------------------------------------------
// Fixpoint-driver properties.

ConstraintSet RedundantInstance(Rng& rng, int n) {
  ConstraintSet c = BaseSet(rng, n);
  if (rng.Bernoulli(0.6)) c.push_back(PlantTrivial(rng, n));
  if (rng.Bernoulli(0.6)) c.push_back(PlantNonMinimal(rng, n));
  if (rng.Bernoulli(0.6)) c.push_back(PlantOverlap(rng, n));
  if (rng.Bernoulli(0.6)) c.push_back(PlantAbsorbed(rng, n, c[0]));
  if (rng.Bernoulli(0.4)) c.push_back(c[0]);
  return c;
}

TEST(SimplifierTest, PreservesLcReachesFixpointAndIsIdempotent) {
  Rng rng(20260809);
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.UniformInt(4, 10));
    const ConstraintSet instance = RedundantInstance(rng, n);
    for (int level = 1; level <= 2; ++level) {
      SimplifyOptions opts;
      opts.level = level;
      SimplifyStats stats;
      const ConstraintSet out = Simplify(n, instance, opts, &stats);
      // Terminates within the automatic pass bound, at a true fixpoint.
      EXPECT_TRUE(stats.reached_fixpoint) << "round " << round << " level " << level;
      EXPECT_LE(stats.passes, rewrite::SimplifyPassBound(stats.before));
      // Cost never increases; the triples match the returned set.
      EXPECT_FALSE(stats.before < stats.after);
      EXPECT_EQ(stats.after, RewriteCost::Of(out));
      // L(C) preserved exactly.
      ItemSet witness;
      Result<bool> same = LcEquivalent(n, instance, out, &witness);
      ASSERT_TRUE(same.ok());
      ASSERT_TRUE(*same) << "level " << level << " witness mask=" << witness.bits();
      // At-fixpoint idempotence: a second run edits nothing and returns
      // the identical (sorted) set.
      SimplifyStats again_stats;
      const ConstraintSet again = Simplify(n, out, opts, &again_stats);
      EXPECT_EQ(again_stats.applied_total, 0u);
      EXPECT_EQ(again, out);
    }
  }
}

TEST(SimplifierTest, PerRuleBreakdownSumsToTotal) {
  Rng rng(77);
  const int n = 8;
  const ConstraintSet instance = RedundantInstance(rng, n);
  SimplifyStats stats;
  (void)Simplify(n, instance, SimplifyOptions{}, &stats);  // Only stats matter here.
  ASSERT_EQ(stats.applied_by_rule.size(), 5u);  // Level 2 runs all five rules.
  std::size_t sum = 0;
  for (const auto& [rule, edits] : stats.applied_by_rule) sum += edits;
  EXPECT_EQ(sum, stats.applied_total);
}

// The n=64 boundary: full-width masks through every rule, no UB, and the
// expected structural results.
TEST(SimplifierTest, HandlesN64Boundary) {
  const int n = 64;
  const ItemSet top = ItemSet::Singleton(63);
  const ItemSet next = ItemSet::Singleton(62);
  ConstraintSet c;
  // Trivial at the boundary: member {63} ⊆ lhs {62, 63}.
  c.push_back(DifferentialConstraint(top.Union(next), SetFamily({top})));
  // Narrowable: member {62, 63} overlaps lhs {63}.
  c.push_back(DifferentialConstraint(top, SetFamily({top.Union(next)})));
  // Absorbable: augmented copy of the previous constraint.
  c.push_back(DifferentialConstraint(top.Union(ItemSet::Singleton(0)),
                                     SetFamily({top.Union(next)})));
  // Mergeable same-lhs singletons over high bits.
  c.push_back(DifferentialConstraint(ItemSet::Singleton(1), SetFamily({next})));
  c.push_back(DifferentialConstraint(ItemSet::Singleton(1), SetFamily({top})));
  SimplifyStats stats;
  const ConstraintSet out = Simplify(n, c, SimplifyOptions{}, &stats);
  EXPECT_TRUE(stats.reached_fixpoint);
  ASSERT_EQ(out.size(), 2u);
  // {63} -> {{62, 63}} narrowed to {63} -> {{62}}.
  EXPECT_EQ(out[1], DifferentialConstraint(top, SetFamily({next})));
  // {1} -> {{62}}, {1} -> {{63}} merged to {1} -> {{62, 63}}.
  EXPECT_EQ(out[0],
            DifferentialConstraint(ItemSet::Singleton(1), SetFamily({next.Union(top)})));
}

// ---------------------------------------------------------------------------
// Prepare/cache integration.

TEST(PrepareRewriteTest, RewriterPathPopulatesStats) {
  const int n = 8;
  Rng rng(5150);
  ConstraintSet premises = RedundantInstance(rng, n);
  Result<std::shared_ptr<const PreparedPremises>> built =
      PreparedPremises::Build(n, premises);  // Default: rewriter at level 2.
  ASSERT_TRUE(built.ok());
  const PrepareStats& s = (*built)->stats();
  EXPECT_GE(s.rewrite_passes, 1u);
  EXPECT_EQ(s.rewrite_rule_applied.size(), 5u);
  EXPECT_EQ(s.cost_constraints_before, premises.size());
  EXPECT_EQ(s.cost_constraints_after, (*built)->constraints().size());
  // Constraint bookkeeping: every removed constraint is attributed to
  // exactly one of the three constraint-dropping rules.
  EXPECT_EQ(s.canonical_constraints,
            s.input_constraints - s.dropped_trivial - s.dropped_duplicates -
                s.merged_constraints);
  // The canonical set excludes exactly the same lattice points.
  Result<bool> same = LcEquivalent(n, premises, (*built)->constraints());
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(*same);
}

TEST(PrepareRewriteTest, CacheServesTheSameArtifactForTheSameKey) {
  const int n = 9;
  Rng rng(986);  // Unique premise set so other tests cannot pre-warm the key.
  ConstraintSet premises = RedundantInstance(rng, n);
  bool hit = false;
  Result<std::shared_ptr<const PreparedPremises>> a =
      GlobalPreparedPremisesCache().Get(n, premises, &hit);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(hit);
  // Same key: a hit returning the identical artifact.
  Result<std::shared_ptr<const PreparedPremises>> b =
      GlobalPreparedPremisesCache().Get(n, premises, &hit);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ((*a)->id(), (*b)->id());
}

TEST(PrepareRewriteTest, EngineVerdictsAtN64) {
  // FD-style chain at the boundary, with a duplicate premise for the
  // rewriter to absorb; decidable polynomially.
  const int n = 64;
  ConstraintSet premises{
      DifferentialConstraint(ItemSet::Singleton(0), SetFamily({ItemSet::Singleton(62)})),
      DifferentialConstraint(ItemSet::Singleton(62), SetFamily({ItemSet::Singleton(63)})),
      DifferentialConstraint(ItemSet::Singleton(0), SetFamily({ItemSet::Singleton(62)})),
  };
  DifferentialConstraint goal(ItemSet::Singleton(0), SetFamily({ItemSet::Singleton(63)}));
  DifferentialConstraint bad_goal(ItemSet::Singleton(63), SetFamily({ItemSet::Singleton(0)}));
  Result<std::shared_ptr<const PreparedPremises>> prepared = PreparedPremises::Build(n, premises);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ImplicationEngine engine;
  EngineQueryResult yes = engine.CheckOne(*prepared, goal);
  ASSERT_TRUE(yes.status.ok()) << yes.status.ToString();
  EXPECT_TRUE(yes.outcome.implied);
  EngineQueryResult no = engine.CheckOne(*prepared, bad_goal);
  ASSERT_TRUE(no.status.ok()) << no.status.ToString();
  EXPECT_FALSE(no.outcome.implied);
}

}  // namespace
}  // namespace diffc
