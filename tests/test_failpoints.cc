// Fail-point framework: registry/trigger semantics (compiled in every
// configuration) and, under -DDIFFC_FAILPOINTS=ON, end-to-end fault
// injection through every wired failure path — witness truncation, cache
// insertion, the sat search, CNF translation, Rational overflow, basket IO,
// and a query task that throws — checking that each failure lands in the
// right per-query Status while unrelated verdicts stay correct.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/implication.h"
#include "engine/caches.h"
#include "engine/implication_engine.h"
#include "fis/io.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/rational.h"

namespace diffc {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override {
    failpoint::DisarmAll();
    // Injected statuses may have been cached; never leak them into other
    // tests sharing the process-wide caches.
    GlobalWitnessSetCache().Clear();
    GlobalPreparedPremisesCache().Clear();
  }
};

// The registry series every fired point increments, for delta asserts.
obs::Counter* FiresCounter(const char* site) {
  return obs::Registry::Global().GetCounter("diffc_failpoint_fires_total", "",
                                            {{"site", site}});
}

TEST_F(FailpointTest, UnarmedNeverFires) {
  EXPECT_FALSE(failpoint::Evaluate("no/such/point"));
  EXPECT_EQ(failpoint::HitCount("no/such/point"), 0u);
  EXPECT_EQ(failpoint::TripCount("no/such/point"), 0u);
}

TEST_F(FailpointTest, AlwaysFiresEveryEvaluation) {
  const std::uint64_t fires0 = FiresCounter("t/always")->Value();
  failpoint::Arm("t/always", failpoint::Spec::Always());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(failpoint::Evaluate("t/always"));
  EXPECT_EQ(failpoint::HitCount("t/always"), 5u);
  EXPECT_EQ(failpoint::TripCount("t/always"), 5u);
  EXPECT_EQ(FiresCounter("t/always")->Value(), fires0 + 5);
}

TEST_F(FailpointTest, NthHitFiresExactlyOnce) {
  failpoint::Arm("t/nth", failpoint::Spec::NthHit(3));
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(failpoint::Evaluate("t/nth"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, false}));
  EXPECT_EQ(failpoint::HitCount("t/nth"), 6u);
  EXPECT_EQ(failpoint::TripCount("t/nth"), 1u);
}

TEST_F(FailpointTest, AfterHitFiresFromNPlusOne) {
  failpoint::Arm("t/after", failpoint::Spec::AfterHit(2));
  std::vector<bool> fired;
  for (int i = 0; i < 5; ++i) fired.push_back(failpoint::Evaluate("t/after"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, true}));
  EXPECT_EQ(failpoint::TripCount("t/after"), 3u);
}

TEST_F(FailpointTest, ProbabilityIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    failpoint::Arm("t/prob", failpoint::Spec::Probability(0.5, seed));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(failpoint::Evaluate("t/prob"));
    return fired;
  };
  EXPECT_EQ(run(7), run(7));  // Re-arming resets the rng: identical runs.
  std::vector<bool> fired = run(7);
  int trips = 0;
  for (bool f : fired) trips += f ? 1 : 0;
  EXPECT_GT(trips, 0);
  EXPECT_LT(trips, 64);
}

TEST_F(FailpointTest, ProbabilityBoundsAreTotal) {
  failpoint::Arm("t/p0", failpoint::Spec::Probability(0.0));
  failpoint::Arm("t/p1", failpoint::Spec::Probability(1.1));
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(failpoint::Evaluate("t/p0"));
    EXPECT_TRUE(failpoint::Evaluate("t/p1"));
  }
}

TEST_F(FailpointTest, DisarmStopsFiring) {
  failpoint::Arm("t/disarm", failpoint::Spec::Always());
  EXPECT_TRUE(failpoint::Evaluate("t/disarm"));
  failpoint::Disarm("t/disarm");
  EXPECT_FALSE(failpoint::Evaluate("t/disarm"));
  EXPECT_EQ(failpoint::HitCount("t/disarm"), 0u);  // Counters reset with the arm.
}

TEST_F(FailpointTest, ArmFromStringParsesTheEnvGrammar) {
  ASSERT_TRUE(
      failpoint::ArmFromString("a=always; b = hit(2) ;c=after(1);d=prob(0.25,9)").ok());
  EXPECT_TRUE(failpoint::Evaluate("a"));
  EXPECT_FALSE(failpoint::Evaluate("b"));
  EXPECT_TRUE(failpoint::Evaluate("b"));
  EXPECT_FALSE(failpoint::Evaluate("c"));
  EXPECT_TRUE(failpoint::Evaluate("c"));
  // `off` disarms an armed point.
  ASSERT_TRUE(failpoint::ArmFromString("a=off").ok());
  EXPECT_FALSE(failpoint::Evaluate("a"));
}

TEST_F(FailpointTest, ArmFromStringRejectsBadSpecs) {
  EXPECT_EQ(failpoint::ArmFromString("noequals").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::ArmFromString("=always").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::ArmFromString("a=hit(x)").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::ArmFromString("a=bogus").code(), StatusCode::kInvalidArgument);
}

#if defined(DIFFC_FAILPOINTS)

TEST_F(FailpointTest, SitesAreCompiledIn) { EXPECT_TRUE(failpoint::CompiledIn()); }

// A goal whose right-hand family has two singleton members: not
// FD-subclass-shaped, normally answered by the interval-cover fast path.
DifferentialConstraint TwoMemberGoal() {
  return DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}, ItemSet{2}}));
}

ConstraintSet CoveringPremises() {
  // {0} -> {1} covers every U ∋ 0 with 1 ∉ U, so TwoMemberGoal is implied.
  return ConstraintSet{DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))};
}

// The FD-shaped premises {0} -> {1} and {0} -> {2}, and a goal whose
// right-hand family {{1, 2}, {3}} has two minimal witness sets, {1, 3} and
// {2, 3}: each premise covers one interval, and neither absorbs the goal,
// so interval cover runs its inline witness search (two leaves).
ConstraintSet SplitPremises() {
  return ConstraintSet{DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}})),
                       DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{2}}))};
}

DifferentialConstraint SplitCoverGoal() {
  return DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1, 2}, ItemSet{3}}));
}

// A goal whose right-hand family has seven disjoint pairs: 2^7 = 128
// search leaves, above interval cover's inline bound of 64, so its witness
// sets come from the process-wide cache.
DifferentialConstraint CachedFamilyGoal() {
  std::vector<ItemSet> members;
  for (int i = 0; i < 7; ++i) members.push_back(ItemSet{1 + 2 * i, 2 + 2 * i});
  return DifferentialConstraint(ItemSet{0}, SetFamily(std::move(members)));
}

// The goal with {1} and with {2} in place of its first member {1, 2}: each
// covers the goal's intervals whose W holds its attribute, and neither
// absorbs the goal, so the goal needs the cached witness sets.
ConstraintSet CachedFamilyCover() {
  const DifferentialConstraint goal = CachedFamilyGoal();
  const SetFamily rest = goal.rhs().WithoutMember(ItemSet{1, 2});
  return ConstraintSet{DifferentialConstraint(goal.lhs(), rest.WithMember(ItemSet{1})),
                       DifferentialConstraint(goal.lhs(), rest.WithMember(ItemSet{2}))};
}

TEST_F(FailpointTest, WitnessTruncationFallsBackToSat) {
  const int n = 16;
  const ConstraintSet premises = CachedFamilyCover();
  ImplicationEngine engine;
  GlobalWitnessSetCache().Clear();

  // Baseline: the fast path answers this query from the cache path.
  EngineQueryResult baseline = engine.CheckOne(n, premises, CachedFamilyGoal());
  ASSERT_TRUE(baseline.status.ok());
  EXPECT_TRUE(baseline.outcome.implied);
  EXPECT_EQ(baseline.stats.procedure, DecisionProcedure::kIntervalCover);
  EXPECT_TRUE(baseline.stats.witness_cache_used);

  GlobalWitnessSetCache().Clear();
  const std::uint64_t fires0 = FiresCounter("witness/truncate")->Value();
  failpoint::Arm("witness/truncate", failpoint::Spec::Always());
  EngineQueryResult r = engine.CheckOne(n, premises, CachedFamilyGoal());
  EXPECT_GT(failpoint::TripCount("witness/truncate"), 0u);
  // Every trip of the compiled-in site reached the registry series.
  EXPECT_EQ(FiresCounter("witness/truncate")->Value(),
            fires0 + failpoint::TripCount("witness/truncate"));
  // The truncation is not the query's failure: SAT completes the answer.
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.outcome.implied);
  EXPECT_EQ(r.stats.procedure, DecisionProcedure::kSat);
  EXPECT_TRUE(r.stats.witness_cache_used);
}

TEST_F(FailpointTest, WitnessTruncationFiresOnTheInlinePath) {
  const int n = 6;
  ImplicationEngine engine;
  GlobalWitnessSetCache().Clear();

  // Baseline: a two-leaf family, searched inline, answers by the cover.
  EngineQueryResult baseline = engine.CheckOne(n, SplitPremises(), SplitCoverGoal());
  ASSERT_TRUE(baseline.status.ok());
  EXPECT_TRUE(baseline.outcome.implied);
  EXPECT_EQ(baseline.stats.procedure, DecisionProcedure::kIntervalCover);
  EXPECT_FALSE(baseline.stats.witness_cache_used);

  failpoint::Arm("witness/truncate", failpoint::Spec::Always());
  EngineQueryResult r = engine.CheckOne(n, SplitPremises(), SplitCoverGoal());
  EXPECT_GT(failpoint::TripCount("witness/truncate"), 0u);
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.outcome.implied);
  EXPECT_EQ(r.stats.procedure, DecisionProcedure::kSat);
  EXPECT_FALSE(r.stats.witness_cache_used);
  EXPECT_EQ(GlobalWitnessSetCache().size(), 0u);
}

TEST_F(FailpointTest, CacheInsertFailuresServeUncachedResults) {
  const int n = 16;
  const ConstraintSet premises = CachedFamilyCover();
  ImplicationEngine engine;
  GlobalWitnessSetCache().Clear();
  GlobalPreparedPremisesCache().Clear();
  failpoint::Arm("cache/witness-insert", failpoint::Spec::Always());
  failpoint::Arm("cache/premise-insert", failpoint::Spec::Always());

  for (int i = 0; i < 2; ++i) {
    EngineQueryResult r = engine.CheckOne(n, premises, CachedFamilyGoal());
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.outcome.implied);
    // Never a cache hit: every insert is dropped, so each query recomputes.
    EXPECT_TRUE(r.stats.witness_cache_used);
    EXPECT_FALSE(r.stats.witness_cache_hit);
  }
  EXPECT_GT(failpoint::TripCount("cache/witness-insert"), 0u);
  EXPECT_EQ(GlobalWitnessSetCache().size(), 0u);
  EXPECT_EQ(GlobalPreparedPremisesCache().size(), 0u);
}

TEST_F(FailpointTest, SatKernelFailureIsPerQuery) {
  const int n = 6;
  // A zero witness budget leaves interval cover inconclusive on a goal no
  // single premise absorbs, so the query must reach the sat search.
  EngineOptions opts;
  opts.witness_max_results = 0;
  ImplicationEngine engine(opts);
  failpoint::Arm("sat/kernel", failpoint::Spec::Always());

  EngineQueryResult sat_query = engine.CheckOne(n, SplitPremises(), SplitCoverGoal());
  EXPECT_EQ(sat_query.status.code(), StatusCode::kInternal);

  // Queries that never reach the search are untouched.
  EngineQueryResult fd_query = engine.CheckOne(
      n, SplitPremises(), DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}})));
  ASSERT_TRUE(fd_query.status.ok());
  EXPECT_TRUE(fd_query.outcome.implied);
  EXPECT_EQ(fd_query.stats.procedure, DecisionProcedure::kFdSubclass);

  // One batch, mixed outcomes: only the SAT-bound query fails.
  std::vector<DifferentialConstraint> goals{
      SplitCoverGoal(), DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))};
  Result<BatchOutcome> batch = engine.CheckBatch(n, SplitPremises(), goals);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->results[0].status.code(), StatusCode::kInternal);
  EXPECT_TRUE(batch->results[1].status.ok());
  EXPECT_EQ(batch->stats.failed, 1u);

  // The engine no longer translates to CNF: the core procedure is the only
  // site left behind `cnf/translate`, and the engine ignores it.
  failpoint::DisarmAll();
  failpoint::Arm("cnf/translate", failpoint::Spec::Always());
  EXPECT_EQ(CheckImplicationSat(n, CoveringPremises(), TwoMemberGoal()).status().code(),
            StatusCode::kInternal);
  EngineQueryResult untouched = engine.CheckOne(n, SplitPremises(), SplitCoverGoal());
  ASSERT_TRUE(untouched.status.ok()) << untouched.status.ToString();
  EXPECT_TRUE(untouched.outcome.implied);
  EXPECT_EQ(untouched.stats.procedure, DecisionProcedure::kSat);
}

TEST_F(FailpointTest, RationalOverflowInjection) {
  Rational half(1, 2);
  Rational third(1, 3);
  EXPECT_FALSE((half + third).Overflowed());

  failpoint::Arm("rational/overflow", failpoint::Spec::Always());
  EXPECT_TRUE((half + third).Overflowed());
  EXPECT_TRUE((half * third).Overflowed());
  EXPECT_TRUE((-half).Overflowed());

  failpoint::Disarm("rational/overflow");
  EXPECT_EQ(half + third, Rational(5, 6));
}

TEST_F(FailpointTest, BasketIoInjection) {
  const std::string text = "items 3\n0 1\n2\n";
  ASSERT_TRUE(BasketsFromText(text).ok());

  failpoint::Arm("fis/parse-baskets", failpoint::Spec::Always());
  EXPECT_EQ(BasketsFromText(text).status().code(), StatusCode::kInternal);
  failpoint::Disarm("fis/parse-baskets");

  failpoint::Arm("fis/load-baskets", failpoint::Spec::Always());
  EXPECT_EQ(LoadBaskets("/nonexistent/really").status().code(), StatusCode::kNotFound);
}

TEST_F(FailpointTest, ThrowingQueryTaskFailsItsQueryOnly) {
  const int n = 6;
  ImplicationEngine engine;
  // Fire on the second query only: the other two must stay correct.
  failpoint::Arm("engine/throw", failpoint::Spec::NthHit(2));
  std::vector<DifferentialConstraint> goals{TwoMemberGoal(), TwoMemberGoal(),
                                            TwoMemberGoal()};
  Result<BatchOutcome> batch = engine.CheckBatch(n, CoveringPremises(), goals);
  ASSERT_TRUE(batch.ok());
  int internal = 0, ok = 0;
  for (const EngineQueryResult& r : batch->results) {
    if (r.status.code() == StatusCode::kInternal) {
      ++internal;
      EXPECT_NE(r.status.message().find("uncaught exception"), std::string::npos);
    } else {
      ASSERT_TRUE(r.status.ok());
      EXPECT_TRUE(r.outcome.implied);
      ++ok;
    }
  }
  EXPECT_EQ(internal, 1);
  EXPECT_EQ(ok, 2);
}

#endif  // DIFFC_FAILPOINTS

}  // namespace
}  // namespace diffc
