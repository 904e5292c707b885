// Rule-driven rewrite canonicalizer (DESIGN.md §14): a slinky-style rule
// tester verifies every builtin rule on hundreds of seeded random
// instances by enumerating L(C) (`ClosureLattice`) on small universes
// before and after and asserting set equality; plus driver properties (one
// pass reaches the fixpoint of a multi-pass reference, idempotence, cost
// monotonicity), registry invariants, the n=64 boundary, and prepare/cache
// integration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/closure.h"
#include "engine/caches.h"
#include "engine/implication_engine.h"
#include "engine/prepared_premises.h"
#include "obs/metrics.h"
#include "rewrite/rewrite_rule.h"
#include "rewrite/simplifier.h"
#include "test_helpers.h"
#include "util/random.h"

namespace diffc {
namespace {

using rewrite::BuiltinRules;
using rewrite::FindRule;
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

// Members overlapping the left-hand side, a shape the canonical set keeps.
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
// ground-truthed against the enumerated L(C).

// L(a) = L(b) over the `n`-attribute universe, both enumerated by
// `ClosureLattice`; a failure names the first set in only one of the two.
::testing::AssertionResult SameLattice(int n, const ConstraintSet& a, const ConstraintSet& b) {
  Result<std::vector<ItemSet>> la = ClosureLattice(n, a);
  Result<std::vector<ItemSet>> lb = ClosureLattice(n, b);
  if (!la.ok()) return ::testing::AssertionFailure() << la.status().ToString();
  if (!lb.ok()) return ::testing::AssertionFailure() << lb.status().ToString();
  // Both lists are sorted by mask, so at the first mismatch the smaller
  // mask is in one list only.
  std::size_t i = 0;
  while (i < la->size() && i < lb->size() && (*la)[i] == (*lb)[i]) ++i;
  if (i == la->size() && i == lb->size()) return ::testing::AssertionSuccess();
  const bool in_a = i < la->size() && (i == lb->size() || (*la)[i].bits() < (*lb)[i].bits());
  return ::testing::AssertionFailure()
         << "mask " << (in_a ? (*la)[i] : (*lb)[i]).bits() << " is in L(C) of the "
         << (in_a ? "first" : "second") << " set only (n=" << n << ")";
}

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
    // Soundness: L(C) is identical over all 2^n subsets.
    ASSERT_TRUE(SameLattice(n, instance, probe.result)) << name << " changed L(C)";
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

// ---------------------------------------------------------------------------
// Rule-list invariants.

TEST(RewriteRegistryTest, CatalogsTheThreeBuiltinRules) {
  const std::vector<const RewriteRule*>& rules = BuiltinRules();
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_STREQ(rules[0]->name(), "drop-trivial");
  EXPECT_STREQ(rules[1]->name(), "minimize-rhs");
  EXPECT_STREQ(rules[2]->name(), "absorb-subsumed");
  EXPECT_EQ(FindRule("minimize-rhs"), rules[1]);
  EXPECT_EQ(FindRule("no-such-rule"), nullptr);
}

// ---------------------------------------------------------------------------
// Driver properties.

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
    SimplifyStats stats;
    const ConstraintSet out = Simplify(n, instance, SimplifyOptions{}, &stats);
    // One pass, finished within the step budget.
    EXPECT_TRUE(stats.reached_fixpoint) << "round " << round;
    EXPECT_EQ(stats.passes, 1u) << "round " << round;
    // Cost never increases; the triples match the returned set.
    EXPECT_FALSE(stats.before < stats.after);
    EXPECT_EQ(stats.after, RewriteCost::Of(PremiseMasks::Compile(out)));
    // L(C) preserved exactly.
    ASSERT_TRUE(SameLattice(n, instance, out)) << "round " << round;
    // At-fixpoint idempotence: a second run edits nothing and returns the
    // identical (sorted) set.
    SimplifyStats again_stats;
    const ConstraintSet again = Simplify(n, out, SimplifyOptions{}, &again_stats);
    EXPECT_EQ(again_stats.applied_total, 0u);
    EXPECT_EQ(again, out);
  }
}

TEST(SimplifierTest, PerRuleBreakdownSumsToTotal) {
  Rng rng(77);
  const int n = 8;
  const ConstraintSet instance = RedundantInstance(rng, n);
  SimplifyStats stats;
  (void)Simplify(n, instance, SimplifyOptions{}, &stats);  // Only stats matter here.
  ASSERT_EQ(stats.applied_by_rule.size(), 3u);  // One entry per builtin rule.
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
  const ItemSet one = ItemSet::Singleton(1);
  ConstraintSet c;
  // Trivial at the boundary: member {63} ⊆ lhs {62, 63}.
  c.push_back(DifferentialConstraint(top.Union(next), SetFamily({top})));
  // A member {62, 63} overlapping lhs {63}: kept as it is.
  c.push_back(DifferentialConstraint(top, SetFamily({top.Union(next)})));
  // Absorbable: augmented copy of the previous constraint.
  c.push_back(DifferentialConstraint(top.Union(ItemSet::Singleton(0)),
                                     SetFamily({top.Union(next)})));
  // Same-lhs singletons over high bits: neither absorbs the other.
  c.push_back(DifferentialConstraint(one, SetFamily({top})));
  c.push_back(DifferentialConstraint(one, SetFamily({next})));
  SimplifyStats stats;
  const ConstraintSet out = Simplify(n, c, SimplifyOptions{}, &stats);
  EXPECT_TRUE(stats.reached_fixpoint);
  EXPECT_EQ(stats.Applied("drop-trivial"), 1u);
  EXPECT_EQ(stats.Applied("absorb-subsumed"), 1u);
  // Sorted by lhs, then by family.
  const ConstraintSet expected{DifferentialConstraint(one, SetFamily({next})),
                               DifferentialConstraint(one, SetFamily({top})),
                               DifferentialConstraint(top, SetFamily({top.Union(next)}))};
  EXPECT_EQ(out, expected);
}

// ---------------------------------------------------------------------------
// One pass is the fixpoint (DESIGN.md §14), against a reference that runs
// the rules pass after pass until a pass makes no edit.

// A larger redundant instance with same-lhs siblings, so the pass has
// absorptions and minimizations to make.
ConstraintSet SiblingInstance(Rng& rng, int n) {
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

// The fixpoint of the rules rebuilt from single-rule probes: the rules in
// list order, pass after pass, the set re-sorted after each pass, until a
// pass makes no edit.
struct ReferenceFixpoint {
  ConstraintSet result;
  std::size_t passes = 0;
  std::vector<std::size_t> applied;
};

ReferenceFixpoint RunReference(int n, ConstraintSet c) {
  const std::vector<const RewriteRule*>& rules = BuiltinRules();
  ReferenceFixpoint ref;
  ref.applied.assign(rules.size(), 0);
  std::sort(c.begin(), c.end());
  while (true) {
    ++ref.passes;
    std::size_t edits = 0;
    for (std::size_t i = 0; i < rules.size(); ++i) {
      RuleProbe probe = Probe(*rules[i], n, c);
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

// The edits every builtin rule's `Probe` makes on `c`; 0 at a fixpoint.
std::size_t ProbeEdits(int n, const ConstraintSet& c) {
  std::size_t edits = 0;
  for (const RewriteRule* rule : BuiltinRules()) edits += Probe(*rule, n, c).edits;
  return edits;
}

TEST(OnePassFixpointTest, MatchesTheMultiPassReference) {
  Rng rng(20261017);
  int edited = 0;
  for (int round = 0; round < 600; ++round) {
    const int n = round % 10 == 9 ? 64 : static_cast<int>(rng.UniformInt(4, 12));
    const ConstraintSet instance = SiblingInstance(rng, n);
    SimplifyStats stats;
    const ConstraintSet out = Simplify(n, instance, SimplifyOptions{}, &stats);
    const ReferenceFixpoint ref = RunReference(n, instance);
    ASSERT_TRUE(stats.reached_fixpoint) << "round " << round;
    EXPECT_EQ(out, ref.result) << "round " << round;
    ASSERT_EQ(stats.applied_by_rule.size(), ref.applied.size());
    for (std::size_t i = 0; i < ref.applied.size(); ++i) {
      EXPECT_EQ(stats.applied_by_rule[i].second, ref.applied[i])
          << stats.applied_by_rule[i].first << " round " << round;
    }
    // The driver runs one pass; the reference's second pass, run when its
    // first edited, finds nothing, and neither does any rule on the output.
    EXPECT_EQ(stats.passes, 1u) << "round " << round;
    EXPECT_LE(ref.passes, 2u) << "round " << round;
    EXPECT_EQ(ProbeEdits(n, out), 0u) << "round " << round;
    if (stats.applied_total > 0) ++edited;
  }
  // Enough instances edit for the one pass to be put to the test.
  EXPECT_GE(edited, 500);
}

// A same-lhs pair that minimize-rhs puts out of family order and that then
// absorb each other, over n = 4: {0} -> {{0,1},{0,1,3}} minimizes to
// {0} -> {{0,1}}, which sorts before {0} -> {{0,1},{1,2}}. The pass runs
// absorb-subsumed on the arena as minimize-rhs left it, so it keeps the
// premise that sorted first before the pass, as the reference does.
TEST(OnePassFixpointTest, ReorderedSameLhsPairKeepsTheFirstSortedPremise) {
  const int n = 4;
  const ConstraintSet instance{
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{0, 1}, ItemSet{0, 1, 3}})),
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{0, 1}, ItemSet{1, 2}}))};
  SimplifyStats stats;
  const ConstraintSet out = Simplify(n, instance, SimplifyOptions{}, &stats);
  const ConstraintSet expected{
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{0, 1}, ItemSet{1, 2}}))};
  EXPECT_EQ(out, expected);
  EXPECT_TRUE(stats.reached_fixpoint);
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.Applied("minimize-rhs"), 1u);
  EXPECT_EQ(stats.Applied("absorb-subsumed"), 1u);
  EXPECT_EQ(stats.applied_total, 2u);
  EXPECT_EQ(ProbeEdits(n, out), 0u);
  EXPECT_TRUE(SameLattice(n, instance, out));
  const ReferenceFixpoint ref = RunReference(n, instance);
  EXPECT_EQ(ref.result, expected);
  EXPECT_EQ(ref.passes, 2u);
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

// Two ∅-lhs premises with k-member antichains of 3-sets: neither family
// minimizes and neither premise absorbs the other. At k = 1024 the pass
// finishes within the budget; at k = 4096 minimizing one family would
// already exceed it.
TEST(RewriteBudgetTest, WideSameLhsAntichainsStopAtTheBudget) {
  for (const int k : {1024, 4096}) {
    SCOPED_TRACE(k);
    ConstraintSet premises{DifferentialConstraint(ItemSet(), SetFamily(ThreeSubsets(0, k))),
                           DifferentialConstraint(ItemSet(), SetFamily(ThreeSubsets(k, k)))};
    ASSERT_EQ(premises[0].rhs().size(), k);
    ASSERT_EQ(premises[1].rhs().size(), k);
    const std::uint64_t exhausted_before = BudgetExhaustions();
    Result<std::shared_ptr<const PreparedPremises>> built = PreparedPremises::Build(64, premises);
    ASSERT_TRUE(built.ok());
    const rewrite::SimplifyStats& s = (*built)->stats().rewrite;
    const bool fits = k == 1024;
    EXPECT_EQ(s.reached_fixpoint, fits);
    EXPECT_LE(s.steps, rewrite::kSimplifyStepBudget);
    EXPECT_EQ(BudgetExhaustions(), exhausted_before + (fits ? 0 : 1));
    // Both premises are intact.
    std::sort(premises.begin(), premises.end());
    EXPECT_EQ((*built)->masks().Materialize(), premises);
  }
}

// Same-lhs two-member premises whose members are distinct 3-subsets: no
// pair absorbs, and absorb-subsumed's pair loop alone exhausts the budget.
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
  const rewrite::SimplifyStats& s = (*built)->stats().rewrite;
  EXPECT_FALSE(s.reached_fixpoint);
  EXPECT_LE(s.steps, rewrite::kSimplifyStepBudget);
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
      PreparedPremises::Build(n, premises);
  ASSERT_TRUE(built.ok());
  const rewrite::SimplifyStats& s = (*built)->stats().rewrite;
  EXPECT_EQ(s.passes, 1u);
  EXPECT_EQ(s.applied_by_rule.size(), 3u);
  EXPECT_EQ(s.before.constraints, premises.size());
  EXPECT_EQ(s.after.constraints, (*built)->masks().size());
  // Constraint bookkeeping: every removed constraint is attributed to
  // exactly one of the two constraint-dropping rules.
  EXPECT_EQ(s.after.constraints,
            s.before.constraints - s.Applied("drop-trivial") - s.Applied("absorb-subsumed"));
  // The canonical set excludes exactly the same lattice points.
  EXPECT_TRUE(SameLattice(n, premises, (*built)->masks().Materialize()));
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
