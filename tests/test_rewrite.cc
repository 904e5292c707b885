// Rule-driven rewrite canonicalizer (DESIGN.md §14): a slinky-style rule
// tester verifies every registered rule on hundreds of seeded random
// instances by materializing L(C) on small universes before and after and
// asserting set equality; plus fixpoint-driver properties (termination
// within the pass bound, idempotence at fixpoint, cost monotonicity),
// registry invariants, the n=64 boundary, and prepare/cache integration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/caches.h"
#include "engine/implication_engine.h"
#include "engine/prepared_premises.h"
#include "obs/metrics.h"
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
    EXPECT_EQ(Probe(*rule, n, probe.result).edits, 0u) << name << " not idempotent";
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
      EXPECT_EQ(stats.after, RewriteCost::Of(PremiseMasks::Compile(out)));
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
// The driver's change-tick skips (DESIGN.md §14) against a reference that
// skips nothing.

// A larger redundant instance with same-lhs siblings, so later passes
// still find merges, absorptions and minimizations.
ConstraintSet IncrementalInstance(Rng& rng, int n) {
  const double lhs_density = 0.05 + 0.25 * rng.UniformDouble();
  ConstraintSet c = testing::RandomConstraintSet(rng, n, static_cast<int>(rng.UniformInt(2, 14)),
                                                 lhs_density, static_cast<int>(rng.UniformInt(1, 3)));
  const int planted = static_cast<int>(rng.UniformInt(2, 10));
  for (int i = 0; i < planted; ++i) {
    const DifferentialConstraint& p =
        c[static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(c.size()) - 1))];
    switch (rng.UniformInt(0, 5)) {
      case 0:
        c.push_back(PlantTrivial(rng, n));
        break;
      case 1:
        c.push_back(PlantNonMinimal(rng, n));
        break;
      case 2:
        c.push_back(PlantOverlap(rng, n));
        break;
      case 3:
        c.push_back(PlantAbsorbed(rng, n, p));
        break;
      case 4:
        c.push_back(p);
        break;
      default: {
        std::vector<ItemSet> family;
        for (int k = static_cast<int>(rng.UniformInt(1, 2)); k > 0; --k) {
          Mask m = rng.RandomMask(n, 0.3);
          if (m == 0) m = ItemSet::Singleton(static_cast<int>(rng.UniformInt(0, n - 1))).bits();
          family.push_back(ItemSet(m));
        }
        c.push_back(DifferentialConstraint(p.lhs(), SetFamily(std::move(family))));
      }
    }
  }
  return c;
}

// The fixpoint of today's driver rebuilt from single-rule probes. Each
// probe runs on a fresh arena, where every premise counts as changed, so
// nothing is skipped.
struct ReferenceFixpoint {
  ConstraintSet result;
  std::size_t passes = 0;
  std::vector<std::size_t> applied;
};

ReferenceFixpoint RunReference(int n, ConstraintSet c, int level) {
  std::vector<const RewriteRule*> active;
  for (const RewriteRule* rule : BuiltinRules()) {
    if (rule->min_level() <= level) active.push_back(rule);
  }
  ReferenceFixpoint ref;
  ref.applied.assign(active.size(), 0);
  std::sort(c.begin(), c.end());
  while (true) {
    ++ref.passes;
    std::size_t edits = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      RuleProbe probe = Probe(*active[i], n, c);
      c = std::move(probe.result);
      ref.applied[i] += probe.edits;
      edits += probe.edits;
    }
    std::sort(c.begin(), c.end());
    if (edits == 0) break;
  }
  ref.result = std::move(c);
  return ref;
}

TEST(IncrementalFixpointTest, MatchesTheFreshArenaReference) {
  Rng rng(20261017);
  int multi_pass = 0;
  for (int round = 0; round < 600; ++round) {
    const int n = round % 10 == 9 ? 64 : static_cast<int>(rng.UniformInt(4, 12));
    const ConstraintSet instance = IncrementalInstance(rng, n);
    for (int level = 1; level <= 2; ++level) {
      SimplifyOptions opts;
      opts.level = level;
      SimplifyStats stats;
      const ConstraintSet out = Simplify(n, instance, opts, &stats);
      const ReferenceFixpoint ref = RunReference(n, instance, level);
      ASSERT_TRUE(stats.reached_fixpoint) << "round " << round << " level " << level;
      EXPECT_EQ(out, ref.result) << "round " << round << " level " << level;
      EXPECT_EQ(stats.passes, ref.passes) << "round " << round << " level " << level;
      ASSERT_EQ(stats.applied_by_rule.size(), ref.applied.size());
      for (std::size_t i = 0; i < ref.applied.size(); ++i) {
        EXPECT_EQ(stats.applied_by_rule[i].second, ref.applied[i])
            << stats.applied_by_rule[i].first << " round " << round << " level " << level;
      }
      if (stats.passes > 2) ++multi_pass;
    }
  }
  // Enough instances edit after the first pass for the skips to matter.
  EXPECT_GE(multi_pass, 50);
}

// ---------------------------------------------------------------------------
// The step budget on hostile input.

// The first `count` 3-subsets of a 64-attribute universe, in colex order
// from `skip` on: distinct, so any run of them is an antichain.
std::vector<ItemSet> ThreeSubsets(int skip, int count) {
  std::vector<ItemSet> out;
  for (int c = 2; c < 64 && static_cast<int>(out.size()) < count; ++c) {
    for (int b = 1; b < c && static_cast<int>(out.size()) < count; ++b) {
      for (int a = 0; a < b && static_cast<int>(out.size()) < count; ++a) {
        if (skip > 0) {
          --skip;
          continue;
        }
        out.push_back(ItemSet{a, b, c});
      }
    }
  }
  return out;
}

std::uint64_t BudgetExhaustions() {
  return obs::Registry::Global()
      .GetCounter("diffc_rewrite_budget_exhausted_total",
                  "Simplifier invocations stopped by the step budget before a fixpoint.")
      ->Value();
}

// Two ∅-lhs premises with k-member antichains: merge-same-lhs would build
// k² unions and minimize them, which the budget refuses up front. At
// k = 1024 minimize-rhs and absorb-subsumed fit in the budget and the merge
// is refused; at k = 4096 minimizing one family would already exceed it.
void ExpectWideAntichainsStopAtTheBudget(int k) {
  ConstraintSet premises{DifferentialConstraint(ItemSet(), SetFamily(ThreeSubsets(0, k))),
                         DifferentialConstraint(ItemSet(), SetFamily(ThreeSubsets(k, k)))};
  ASSERT_EQ(premises[0].rhs().size(), k);
  ASSERT_EQ(premises[1].rhs().size(), k);
  const std::uint64_t exhausted_before = BudgetExhaustions();
  Result<std::shared_ptr<const PreparedPremises>> built = PreparedPremises::Build(64, premises);
  ASSERT_TRUE(built.ok());
  const PrepareStats& s = (*built)->stats();
  EXPECT_FALSE(s.rewrite_reached_fixpoint);
  EXPECT_LE(s.rewrite_steps, rewrite::kSimplifyStepBudget);
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(BudgetExhaustions(), exhausted_before + 1);
  }
  // Both premises are intact.
  std::sort(premises.begin(), premises.end());
  EXPECT_EQ((*built)->masks().Materialize(), premises);
}

TEST(RewriteBudgetTest, WideSameLhsAntichainsStopAtTheBudget) {
  for (const int k : {1024, 4096}) {
    SCOPED_TRACE(k);
    ExpectWideAntichainsStopAtTheBudget(k);
  }
}

// Same-lhs two-member premises whose members are distinct 3-subsets: no
// pair absorbs or merges, and the pair loops alone exhaust the budget.
TEST(RewriteBudgetTest, ManySameLhsPremisesStopAtTheBudget) {
  const int count = 8192;
  const std::vector<ItemSet> members = ThreeSubsets(0, 2 * count);
  ConstraintSet premises;
  for (int i = 0; i < count; ++i) {
    premises.push_back(
        DifferentialConstraint(ItemSet(), SetFamily({members[2 * i], members[2 * i + 1]})));
  }
  Result<std::shared_ptr<const PreparedPremises>> built = PreparedPremises::Build(64, premises);
  ASSERT_TRUE(built.ok());
  const PrepareStats& s = (*built)->stats();
  EXPECT_FALSE(s.rewrite_reached_fixpoint);
  EXPECT_LE(s.rewrite_steps, rewrite::kSimplifyStepBudget);
  std::sort(premises.begin(), premises.end());
  EXPECT_EQ((*built)->masks().Materialize(), premises);
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
  EXPECT_EQ(s.cost_constraints_after, (*built)->masks().size());
  // Constraint bookkeeping: every removed constraint is attributed to
  // exactly one of the three constraint-dropping rules.
  EXPECT_EQ(s.canonical_constraints,
            s.input_constraints - s.dropped_trivial - s.dropped_duplicates -
                s.merged_constraints);
  // The canonical set excludes exactly the same lattice points.
  Result<bool> same = LcEquivalent(n, premises, (*built)->masks().Materialize());
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
