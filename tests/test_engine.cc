// Batched implication engine: dispatch correctness against the sequential
// checkers, caller-count invariance (the stress test runs the same mixed
// batch from 1, 4 and 8 threads sharing one engine), shared-cache behavior,
// and the no-abort/Status-on-failure contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/implication.h"
#include "engine/caches.h"
#include "engine/implication_engine.h"
#include "engine/planner.h"
#include "engine/procedures/procedure.h"
#include "lattice/hitting_set.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "prop/tautology.h"
#include "test_helpers.h"
#include "util/deadline.h"
#include "util/random.h"

namespace diffc {
namespace {

// A library counter in the global registry, for delta asserts (the
// registry returns the existing series whatever the help text).
obs::Counter* RegistryCounter(const char* name, obs::Labels labels = {}) {
  return obs::Registry::Global().GetCounter(name, "", std::move(labels));
}

// A counterexample must certify non-implication on its own: it lies in the
// goal's lattice decomposition and escapes every premise's.
void ExpectValidCounterexample(int n, const ConstraintSet& premises,
                               const DifferentialConstraint& goal, const ItemSet& u) {
  EXPECT_TRUE(goal.lhs().IsSubsetOf(u));
  EXPECT_TRUE(u.IsSubsetOf(ItemSet(FullMask(n))));
  EXPECT_FALSE(goal.rhs().SomeMemberSubsetOf(u));
  EXPECT_FALSE(InConstraintLattice(premises, u));
}

// The mixed batch of the stress test: FD-subclass queries, general (SAT)
// queries, trivially-implied goals, repeated right-hand families (witness
// cache traffic), and non-implied goals with counterexamples.
struct MixedBatch {
  int n = 0;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
};

MixedBatch MakeMixedBatch(int n, int num_goals, std::uint64_t seed) {
  MixedBatch b;
  b.n = n;
  Rng rng(seed);
  b.premises = testing::RandomConstraintSet(rng, n, 6);
  // Some singleton-RHS premises so the FD subclass is exercised too.
  b.premises.push_back(DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}})));
  b.premises.push_back(DifferentialConstraint(ItemSet{1}, SetFamily({ItemSet{2}})));
  for (int i = 0; i < num_goals; ++i) {
    switch (i % 4) {
      case 0:  // Augmented premise: implied, repeated right-hand family.
      {
        const DifferentialConstraint& p = b.premises[i % b.premises.size()];
        b.goals.push_back(DifferentialConstraint(
            p.lhs().Union(ItemSet::Singleton(i % n)), p.rhs()));
        break;
      }
      case 1:  // FD-shaped goal (singleton RHS): FD path when premises allow.
        b.goals.push_back(DifferentialConstraint(
            ItemSet{0}, SetFamily({ItemSet::Singleton((i + 2) % n)})));
        break;
      case 2:  // Trivial goal: member inside the left-hand side.
        b.goals.push_back(DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}})));
        break;
      default:  // General random goal, usually not implied.
        b.goals.push_back(testing::RandomConstraint(rng, n));
        break;
    }
  }
  return b;
}

// Runs `b`'s batch from `callers` threads at once against `engine`, each
// thread `rounds` times in a row; returns the outcomes in thread order.
std::vector<Result<BatchOutcome>> CheckBatchFromCallers(ImplicationEngine& engine,
                                                        const MixedBatch& b, int callers,
                                                        int rounds = 1) {
  std::vector<Result<BatchOutcome>> outs(callers * rounds,
                                         Status::Internal("batch never ran"));
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&engine, &b, &outs, c, rounds] {
      for (int round = 0; round < rounds; ++round) {
        outs[c * rounds + round] = engine.CheckBatch(b.n, b.premises, b.goals);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return outs;
}

TEST(ImplicationEngineTest, MatchesSequentialCheckersAcrossThreadCounts) {
  MixedBatch b = MakeMixedBatch(12, 64, 7);

  // Ground truth from the sequential front door.
  std::vector<bool> expected;
  for (const DifferentialConstraint& g : b.goals) {
    Result<ImplicationOutcome> r = CheckImplication(b.n, b.premises, g);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(r->implied);
  }

  for (int callers : {1, 4, 8}) {
    ImplicationEngine engine;
    for (const Result<BatchOutcome>& out : CheckBatchFromCallers(engine, b, callers)) {
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ASSERT_EQ(out->results.size(), b.goals.size());
      for (std::size_t i = 0; i < b.goals.size(); ++i) {
        const EngineQueryResult& r = out->results[i];
        ASSERT_TRUE(r.status.ok()) << "callers=" << callers << " query=" << i << ": "
                                   << r.status.ToString();
        EXPECT_EQ(r.outcome.implied, expected[i])
            << "callers=" << callers << " query=" << i << " via "
            << DecisionProcedureName(r.stats.procedure);
        if (!r.outcome.implied) {
          ASSERT_TRUE(r.outcome.counterexample.has_value());
          ExpectValidCounterexample(b.n, b.premises, b.goals[i], *r.outcome.counterexample);
        }
      }
      EXPECT_EQ(out->stats.queries, b.goals.size());
      EXPECT_EQ(out->stats.implied + out->stats.not_implied + out->stats.failed,
                b.goals.size());
    }
  }
}

TEST(ImplicationEngineTest, StressSameBatchRepeatedlyOnAllThreadCounts) {
  // Fire the same mixed batch from 1, 4 and 8 threads at once on a
  // freshly-built engine, in two passes (the second runs hot caches), and
  // demand bit-identical verdict vectors every time.
  MixedBatch b = MakeMixedBatch(14, 96, 23);
  std::vector<bool> first;
  bool have_first = false;
  for (int pass = 0; pass < 2; ++pass) {
    for (int callers : {1, 4, 8}) {
      ImplicationEngine engine;
      for (const Result<BatchOutcome>& out : CheckBatchFromCallers(engine, b, callers)) {
        ASSERT_TRUE(out.ok());
        std::vector<bool> verdicts;
        for (const EngineQueryResult& r : out->results) {
          ASSERT_TRUE(r.status.ok()) << r.status.ToString();
          verdicts.push_back(r.outcome.implied);
        }
        if (!have_first) {
          first = verdicts;
          have_first = true;
        } else {
          EXPECT_EQ(verdicts, first) << "pass=" << pass << " callers=" << callers;
        }
      }
    }
  }
}

// Seven disjoint pairs: 2^7 = 128 search leaves, above interval cover's
// inline bound of 64, so the goal's family goes through the witness cache.
SetFamily SevenPairs() {
  std::vector<ItemSet> members;
  for (int i = 0; i < 7; ++i) members.push_back(ItemSet{1 + 2 * i, 2 + 2 * i});
  return SetFamily(std::move(members));
}

// `lhs -> family` split in two on the first member Y1 that has two or more
// attributes: one premise with Y1's lowest attribute in its place, one with
// the rest of Y1. A U misses Y1 iff it misses one of the two parts, so the
// pair has the premise's lattice and keeps every verdict. The pair covers
// the intervals of a goal `X -> family` (X ⊇ lhs) only together: each W of
// the goal hits Y1 in one part, and the premise holding that part covers
// [X, S∖W]. When the members are disjoint and miss X, neither premise
// absorbs the goal, since X ∪ part holds no goal member. A family with
// only singleton members is returned whole.
ConstraintSet SplitFirstMember(const ItemSet& lhs, const SetFamily& family) {
  for (const ItemSet& y : family.members()) {
    if (y.size() < 2) continue;
    const ItemSet low = ItemSet::Singleton(LowestBit(y.bits()));
    const SetFamily rest = family.WithoutMember(y);
    return {DifferentialConstraint(lhs, rest.WithMember(low)),
            DifferentialConstraint(lhs, rest.WithMember(y.Minus(low)))};
  }
  return {DifferentialConstraint(lhs, family)};
}

TEST(ImplicationEngineTest, RepeatedRhsBatchHitsWitnessCache) {
  GlobalWitnessSetCache().Clear();
  const int n = 20;
  const SetFamily rhs = SevenPairs();
  ASSERT_GT(WitnessLeafBound(rhs, 64), 64u);
  // {0} -> SevenPairs with {1} and with {2} in place of {1, 2}.
  const ConstraintSet premises = SplitFirstMember(ItemSet{0}, rhs);
  ASSERT_EQ(premises.size(), 2u);
  // 32 goals sharing one right-hand family → 1 miss, then hits.
  std::vector<DifferentialConstraint> goals;
  for (int i = 0; i < 32; ++i) {
    goals.push_back(DifferentialConstraint(ItemSet{0}.Union(ItemSet::Singleton(15 + i % 5)), rhs));
  }
  ImplicationEngine engine;
  Result<BatchOutcome> out = engine.CheckBatch(n, premises, goals);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->stats.witness_cache_hits, 0u);
  EXPECT_GE(out->stats.witness_cache_hits + out->stats.witness_cache_misses, 32u);
  // No premise absorbs a goal, but the two cover every interval between
  // them: implied, via the cover, from the cached witness sets.
  for (const EngineQueryResult& r : out->results) {
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.outcome.implied);
    EXPECT_EQ(r.stats.procedure, DecisionProcedure::kIntervalCover);
    EXPECT_TRUE(r.stats.witness_cache_used);
  }
}

TEST(ImplicationEngineTest, SmallFamiliesBypassTheWitnessCache) {
  // {1,2}, {3}: two search leaves, far under the inline bound. The premises
  // {0} -> {{1}, {3}} and {0} -> {{2}, {3}} cover its two intervals only
  // together, so every goal runs the inline search.
  const int n = 8;
  const SetFamily rhs({ItemSet{1, 2}, ItemSet{3}});
  const ConstraintSet premises = SplitFirstMember(ItemSet{0}, rhs);
  ASSERT_EQ(premises.size(), 2u);
  std::vector<DifferentialConstraint> goals;
  for (int i = 0; i < 8; ++i) {
    goals.push_back(DifferentialConstraint(ItemSet{0}.Union(ItemSet::Singleton(4 + i % 4)), rhs));
  }
  // A goal the cover refutes: its one minimal witness {0, 3} makes the
  // interval top S∖{0, 3}, which misses both premises' lhs.
  goals.push_back(DifferentialConstraint(ItemSet{4}, SetFamily({ItemSet{0}, ItemSet{3}})));
  GlobalWitnessSetCache().Clear();
  const CacheCounters before = GlobalWitnessSetCache().counters();
  const obs::Counter* searches = RegistryCounter("diffc_witness_searches_total");
  const std::uint64_t searches0 = searches->Value();
  ImplicationEngine engine;
  Result<BatchOutcome> out = engine.CheckBatch(n, premises, goals);
  ASSERT_TRUE(out.ok());
  const CacheCounters after = GlobalWitnessSetCache().counters();
  EXPECT_EQ(GlobalWitnessSetCache().size(), 0u);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(out->stats.witness_cache_hits + out->stats.witness_cache_misses, 0u);
  // Each goal still ran its own search.
  EXPECT_GE(searches->Value() - searches0, goals.size());
  for (std::size_t i = 0; i < goals.size(); ++i) {
    const EngineQueryResult& r = out->results[i];
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.stats.procedure, DecisionProcedure::kIntervalCover);
    EXPECT_FALSE(r.stats.witness_cache_used);
    EXPECT_FALSE(r.stats.witness_cache_hit);
    Result<ImplicationOutcome> seq = CheckImplication(n, premises, goals[i]);
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(r.outcome.implied, seq->implied);
    if (!r.outcome.implied) {
      ASSERT_TRUE(r.outcome.counterexample.has_value());
      ExpectValidCounterexample(n, premises, goals[i], *r.outcome.counterexample);
    }
  }
  EXPECT_FALSE(out->results.back().outcome.implied);
}

TEST(ImplicationEngineTest, InlineWitnessBudgetCountsLeaves) {
  // Disjoint members {1,2}, {3,4}, {5}: the search's 2·2·1 = 4 leaves are
  // four distinct minimal witness sets. A budget of 3 truncates the inline
  // search and hands the goal to sat; a budget of 4 lets the cover decide.
  // The implied goal's premises cover its intervals only together (one
  // holds {1}, the other {2}, in place of {1,2}), so it needs the search.
  const int n = 8;
  const SetFamily rhs({ItemSet{1, 2}, ItemSet{3, 4}, ItemSet{5}});
  ASSERT_EQ(WitnessLeafBound(rhs, 64), 4u);
  Result<std::vector<ItemSet>> witnesses = MinimalWitnessSets(rhs);
  ASSERT_TRUE(witnesses.ok());
  ASSERT_EQ(witnesses->size(), 4u);
  const ConstraintSet premises = SplitFirstMember(ItemSet{0}, rhs);
  ASSERT_EQ(premises.size(), 2u);
  const DifferentialConstraint implied(ItemSet{0, 6}, rhs);
  // L({1} -> {{0}}) needs 1: the first witness {1, 3, 5} refutes the goal.
  const ConstraintSet refuting{DifferentialConstraint(ItemSet{1}, SetFamily({ItemSet{0}}))};
  const DifferentialConstraint refuted(ItemSet{6}, rhs);
  for (std::size_t budget : {3u, 4u}) {
    EngineOptions opts;
    opts.witness_max_results = budget;
    ImplicationEngine engine(opts);
    const DecisionProcedure expected =
        budget < 4 ? DecisionProcedure::kSat : DecisionProcedure::kIntervalCover;
    EngineQueryResult yes = engine.CheckOne(n, premises, implied);
    ASSERT_TRUE(yes.status.ok()) << yes.status.ToString();
    EXPECT_TRUE(yes.outcome.implied);
    EXPECT_EQ(yes.stats.procedure, expected) << "budget " << budget;
    EngineQueryResult no = engine.CheckOne(n, refuting, refuted);
    ASSERT_TRUE(no.status.ok()) << no.status.ToString();
    EXPECT_FALSE(no.outcome.implied);
    EXPECT_EQ(no.stats.procedure, expected) << "budget " << budget;
    EXPECT_FALSE(yes.stats.witness_cache_used);
    EXPECT_FALSE(no.stats.witness_cache_used);
  }
}

TEST(ImplicationEngineTest, GoalOutsideTheUniverseIsInvalidArgument) {
  // Bit 5 lies outside n = 4. Each goal used to reach a different
  // procedure: fd-subclass and interval cover answered Internal (no valid
  // counterexample), sat answered implied.
  const int n = 4;
  const ConstraintSet fd_premises{DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))};
  const ConstraintSet cover_premises{
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}, ItemSet{2}}))};
  const DifferentialConstraint lhs_outside(ItemSet{0, 5}, SetFamily({ItemSet{2}}));
  const DifferentialConstraint lhs_outside_cover(ItemSet{0, 5},
                                                 SetFamily({ItemSet{3}, ItemSet{1}}));
  const DifferentialConstraint member_outside(ItemSet{0}, SetFamily({ItemSet{1}, ItemSet{2, 5}}));
  for (std::size_t budget : {std::size_t{4096}, std::size_t{0}}) {
    EngineOptions opts;
    opts.witness_max_results = budget;
    ImplicationEngine engine(opts);
    for (const auto& [premises, goal, part] :
         {std::tuple{fd_premises, lhs_outside, "lhs mask"},
          std::tuple{cover_premises, lhs_outside_cover, "lhs mask"},
          std::tuple{cover_premises, member_outside, "family member"}}) {
      EngineQueryResult r = engine.CheckOne(n, premises, goal);
      EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << r.status.ToString();
      EXPECT_EQ(r.status.message(), std::string("goal ") + part +
                                        " has attributes outside the 4-attribute universe");
      EXPECT_EQ(r.stats.procedure, DecisionProcedure::kNone);
    }
    // In a batch the rejection is per query.
    const DifferentialConstraint inside(ItemSet{0}, SetFamily({ItemSet{1}, ItemSet{2}}));
    Result<BatchOutcome> out = engine.CheckBatch(n, cover_premises, {lhs_outside_cover, inside});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->results[0].status.code(), StatusCode::kInvalidArgument);
    ASSERT_TRUE(out->results[1].status.ok());
    EXPECT_TRUE(out->results[1].outcome.implied);
  }
}

TEST(ImplicationEngineTest, PreparedPremisesSharedAcrossBatch) {
  const int n = 16;
  Rng rng(5);
  ConstraintSet premises = testing::RandomConstraintSet(rng, n, 5);
  std::vector<DifferentialConstraint> goals;
  for (int i = 0; i < 24; ++i) goals.push_back(testing::RandomConstraint(rng, n));

  // A zero witness budget leaves interval cover inconclusive: every
  // nontrivial goal goes through SAT and the shared prepared artifact's
  // mask arena.
  EngineOptions opts;
  opts.witness_max_results = 0;
  ImplicationEngine engine(opts);
  // First batch warms the cache (its miss count can exceed 1 when several
  // workers miss concurrently; both build the same artifact).
  ASSERT_TRUE(engine.CheckBatch(n, premises, goals).ok());
  // The second batch must be all hits.
  Result<BatchOutcome> out = engine.CheckBatch(n, premises, goals);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->stats.by_sat, 0u);
  EXPECT_EQ(out->stats.premise_cache_misses, 0u);
  EXPECT_EQ(out->stats.premise_cache_hits, out->stats.by_sat);
}

TEST(ImplicationEngineTest, FdSubclassBatchUsesFdProcedure) {
  // All premises and goals have singleton right-hand sides: the polynomial
  // FD-subclass procedure must decide every query.
  const int n = 8;
  ConstraintSet premises{
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}})),
      DifferentialConstraint(ItemSet{1}, SetFamily({ItemSet{2}})),
      DifferentialConstraint(ItemSet{3}, SetFamily({ItemSet{4}})),
  };
  std::vector<DifferentialConstraint> goals{
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{2}})),  // Implied.
      DifferentialConstraint(ItemSet{3}, SetFamily({ItemSet{4}})),  // Implied.
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{4}})),  // Not implied.
  };
  ImplicationEngine engine;
  Result<BatchOutcome> out = engine.CheckBatch(n, premises, goals);
  ASSERT_TRUE(out.ok());
  for (std::size_t i = 0; i < goals.size(); ++i) {
    const EngineQueryResult& r = out->results[i];
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.stats.procedure, DecisionProcedure::kFdSubclass);
    Result<ImplicationOutcome> seq = CheckImplication(n, premises, goals[i]);
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(r.outcome.implied, seq->implied);
    if (!r.outcome.implied) {
      ASSERT_TRUE(r.outcome.counterexample.has_value());
      ExpectValidCounterexample(n, premises, goals[i], *r.outcome.counterexample);
    }
  }
  EXPECT_EQ(out->stats.by_fd, goals.size());
}

TEST(ImplicationEngineTest, FastPathDisabledStillCorrect) {
  MixedBatch b = MakeMixedBatch(12, 32, 99);
  // Each premise is split on its first wide member, which keeps L(C), so
  // that most augmented goals need two premises. A goal with one nonempty
  // interval is the exception: a premise that covers the interval absorbs
  // the goal.
  ConstraintSet split;
  for (const DifferentialConstraint& p : b.premises) {
    for (DifferentialConstraint& half : SplitFirstMember(p.lhs(), p.rhs())) {
      split.push_back(std::move(half));
    }
  }
  b.premises = std::move(split);
  // A zero witness budget truncates every transversal search, so interval
  // cover answers only the goals one premise absorbs, those one premise
  // implies on its own (L(X, Y) ⊆ L(p)), and SAT decides every other
  // nontrivial goal.
  EngineOptions opts;
  opts.witness_max_results = 0;
  ImplicationEngine engine(opts);
  Result<BatchOutcome> out = engine.CheckBatch(b.n, b.premises, b.goals);
  ASSERT_TRUE(out.ok());
  std::size_t absorbed = 0;
  for (std::size_t i = 0; i < b.goals.size(); ++i) {
    const DifferentialConstraint& goal = b.goals[i];
    Result<ImplicationOutcome> seq = CheckImplication(b.n, b.premises, goal);
    ASSERT_TRUE(seq.ok());
    const EngineQueryResult& r = out->results[i];
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.outcome.implied, seq->implied);
    if (r.stats.procedure == DecisionProcedure::kTrivial) continue;
    const bool one_premise_implies =
        std::any_of(b.premises.begin(), b.premises.end(), [&](const DifferentialConstraint& p) {
          return CheckImplication(b.n, {p}, goal)->implied;
        });
    absorbed += one_premise_implies ? 1 : 0;
    EXPECT_EQ(r.stats.procedure,
              one_premise_implies ? DecisionProcedure::kIntervalCover : DecisionProcedure::kSat)
        << "goal " << i;
  }
  EXPECT_EQ(out->stats.by_interval_cover, absorbed);
  EXPECT_LT(absorbed, out->stats.by_sat);
}

TEST(ImplicationEngineTest, InvalidUniverseSizeIsStatusNotAbort) {
  ImplicationEngine engine;
  EXPECT_EQ(engine.CheckBatch(-1, {}, {}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.CheckBatch(65, {}, {}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.CheckOne(65, {}, DifferentialConstraint(ItemSet(), SetFamily()))
                .status.code(),
            StatusCode::kInvalidArgument);
}

TEST(ImplicationEngineTest, EmptyBatch) {
  ImplicationEngine engine;
  Result<BatchOutcome> out = engine.CheckBatch(8, {}, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->results.empty());
  EXPECT_EQ(out->stats.queries, 0u);
}

TEST(ImplicationEngineTest, CheckOneMatchesFrontDoor) {
  const int n = 10;
  Rng rng(3);
  ConstraintSet premises = testing::RandomConstraintSet(rng, n, 4);
  ImplicationEngine engine;
  for (int i = 0; i < 20; ++i) {
    DifferentialConstraint goal = testing::RandomConstraint(rng, n);
    Result<ImplicationOutcome> seq = CheckImplication(n, premises, goal);
    ASSERT_TRUE(seq.ok());
    EngineQueryResult r = engine.CheckOne(n, premises, goal);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.outcome.implied, seq->implied);
  }
}

TEST(ImplicationEngineTest, PreparedBatchMatchesUnprepared) {
  MixedBatch b = MakeMixedBatch(12, 32, 41);
  ImplicationEngine engine;
  Result<std::shared_ptr<const PreparedPremises>> prepared = engine.Prepare(b.n, b.premises);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  Result<BatchOutcome> via_prepared = engine.CheckBatch(*prepared, b.goals);
  Result<BatchOutcome> via_raw = engine.CheckBatch(b.n, b.premises, b.goals);
  ASSERT_TRUE(via_prepared.ok());
  ASSERT_TRUE(via_raw.ok());
  ASSERT_EQ(via_prepared->results.size(), b.goals.size());
  for (std::size_t i = 0; i < b.goals.size(); ++i) {
    const EngineQueryResult& p = via_prepared->results[i];
    const EngineQueryResult& r = via_raw->results[i];
    ASSERT_TRUE(p.status.ok()) << p.status.ToString();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(p.outcome.verdict, r.outcome.verdict) << "query=" << i;
    EXPECT_EQ(p.stats.procedure, r.stats.procedure) << "query=" << i;
    // An explicitly prepared artifact counts as amortized compilation.
    if (p.stats.premise_cache_used) {
      EXPECT_TRUE(p.stats.premise_cache_hit);
    }
  }
  // CheckOne against the artifact agrees too.
  EngineQueryResult one = engine.CheckOne(*prepared, b.goals[0]);
  ASSERT_TRUE(one.status.ok());
  EXPECT_EQ(one.outcome.verdict, via_raw->results[0].outcome.verdict);
}

TEST(ImplicationEngineTest, NullPreparedIsInvalidArgument) {
  ImplicationEngine engine;
  std::shared_ptr<const PreparedPremises> null_prepared;
  EXPECT_EQ(engine.CheckBatch(null_prepared, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.CheckOne(null_prepared, DifferentialConstraint(ItemSet(), SetFamily()))
                .status.code(),
            StatusCode::kInvalidArgument);
}

TEST(ImplicationEngineTest, PlanIsRecordedInTheTrace) {
  const int n = 10;
  ConstraintSet premises{
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}, ItemSet{2, 3}}))};
  std::vector<DifferentialConstraint> goals{
      // Trivial goal: the trivial procedure leads its plan.
      DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}})),
      // General goal: interval cover is planned before SAT, exhaustive last.
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{4}, ItemSet{5, 6}}))};
  EngineOptions opts;
  opts.trace = true;
  ImplicationEngine engine(opts);
  Result<BatchOutcome> out = engine.CheckBatch(n, premises, goals);
  ASSERT_TRUE(out.ok());
  // The plan is the procedure table in order, filtered by applicability: the
  // two-member premise family is outside the FD subclass, so fd-subclass is
  // never planned.
  auto plan_span = [&](std::size_t i) {
    const std::shared_ptr<const obs::TraceRecord>& trace = out->results[i].trace;
    if (trace == nullptr) return std::string("no trace");
    for (const obs::TraceSpan& s : trace->spans) {
      if (s.name.rfind("plan:", 0) == 0) return s.name;
    }
    return std::string("no plan span");
  };
  EXPECT_EQ(plan_span(0), "plan:trivial+interval-cover+sat+exhaustive");
  EXPECT_EQ(out->results[0].stats.procedure, DecisionProcedure::kTrivial);
  EXPECT_EQ(plan_span(1), "plan:interval-cover+sat+exhaustive");
}

TEST(ImplicationEngineTest, ExpiredBatchDeadlineStillAnswersTrivialGoals) {
  // The plan's one deadline sample comes after the trivial step: a batch
  // that is over budget before it starts still answers a trivial goal, and
  // fails every other goal fast.
  const int n = 10;
  ConstraintSet premises{
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}, ItemSet{2, 3}}))};
  std::vector<DifferentialConstraint> goals{
      DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}})),
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{4}, ItemSet{5, 6}}))};
  ImplicationEngine engine;
  Result<std::shared_ptr<const PreparedPremises>> prepared = engine.Prepare(n, premises);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  Result<BatchOutcome> out =
      engine.CheckBatch(*prepared, goals, Deadline::After(std::chrono::nanoseconds(0)), {});
  ASSERT_TRUE(out.ok());
  const EngineQueryResult& trivial = out->results[0];
  ASSERT_TRUE(trivial.status.ok()) << trivial.status.ToString();
  EXPECT_EQ(trivial.outcome.verdict, ImplicationOutcome::kImplied);
  EXPECT_EQ(trivial.stats.procedure, DecisionProcedure::kTrivial);
  EXPECT_EQ(out->results[1].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(out->results[1].stats.procedure, DecisionProcedure::kNone);
}

TEST(ProcedureTableTest, EveryProcedureHasExactlyOneEntry) {
  // DecisionProcedureName's switch is exhaustive under -Werror=switch, so
  // walking the contiguous enumerators until it answers "unknown" visits
  // every declared procedure.
  const std::vector<const DecisionProcedureImpl*> table = ProcedureRegistry::Global().Snapshot();
  EXPECT_STREQ(DecisionProcedureName(DecisionProcedure::kNone), "none");
  std::size_t declared = 0;
  for (int i = static_cast<int>(DecisionProcedure::kNone) + 1;; ++i) {
    const auto p = static_cast<DecisionProcedure>(i);
    const std::string name = DecisionProcedureName(p);
    if (name == "unknown") break;
    ++declared;
    int entries = 0;
    for (const DecisionProcedureImpl* impl : table) {
      if (impl->id() != p) continue;
      ++entries;
      EXPECT_EQ(impl->name(), name);
    }
    EXPECT_EQ(entries, 1) << name;
  }
  EXPECT_EQ(declared, 5u);
  EXPECT_EQ(table.size(), declared);  // The table holds nothing else.
}

TEST(ImplicationEngineTest, HugeWitnessFamilyFallsBackToSat) {
  // A right-hand family with an exponential transversal antichain: the
  // witness budget trips, the negative entry is cached, and the query is
  // still answered (by SAT), not failed.
  const int n = 24;
  std::vector<ItemSet> members;
  for (int i = 0; i < 12; ++i) members.push_back(ItemSet{2 * i, 2 * i + 1});
  SetFamily rhs(std::move(members));
  ConstraintSet premises{
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}, ItemSet{2, 3}}))};
  DifferentialConstraint goal(ItemSet(), rhs);

  EngineOptions opts;
  opts.witness_max_results = 16;  // Force the budget to trip.
  ImplicationEngine engine(opts);
  EngineQueryResult r = engine.CheckOne(n, premises, goal);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.stats.procedure, DecisionProcedure::kSat);
  Result<ImplicationOutcome> seq = CheckImplication(n, premises, goal);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(r.outcome.implied, seq->implied);
}

TEST(ImplicationEngineTest, SatSearchesOnlyTheIntervalsTheCoverLeft) {
  // C -> {BDE} has the intervals [C, S∖W] for W = B, D and E. The premise
  // C -> {ABD, ACDE} covers D's alone, and CD -> {ABCDE} covers none, so
  // interval cover is inconclusive and hands `sat` the B and E intervals.
  const int n = 5;
  const ConstraintSet premises{
      DifferentialConstraint(ItemSet{2}, SetFamily({ItemSet{0, 1, 3}, ItemSet{0, 2, 3, 4}})),
      DifferentialConstraint(ItemSet{2, 3}, SetFamily({ItemSet{0, 1, 2, 3, 4}}))};
  const DifferentialConstraint goal(ItemSet{2}, SetFamily({ItemSet{1, 3, 4}}));
  ImplicationEngine seeded;
  EngineOptions opts;
  opts.witness_max_results = 0;  // A truncated enumeration: `sat` searches all of L(X, Y).
  ImplicationEngine unseeded(opts);
  const EngineQueryResult a = seeded.CheckOne(n, premises, goal);
  const EngineQueryResult b = unseeded.CheckOne(n, premises, goal);
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_EQ(a.stats.procedure, DecisionProcedure::kSat);
  EXPECT_EQ(b.stats.procedure, DecisionProcedure::kSat);
  EXPECT_EQ(a.outcome.verdict, ImplicationOutcome::kImplied);
  EXPECT_EQ(b.outcome.verdict, a.outcome.verdict);
  EXPECT_LT(a.stats.solver.decisions, b.stats.solver.decisions);
}

TEST(ImplicationEngineTest, ReusedContextNeverSeedsSatWithAnEarlierGoal) {
  // L(C) misses exactly ACD, BCD and ABCD. ∅ -> {D} is implied, but no
  // single premise covers its one interval [∅, ABC], so `sat` decides it
  // from W = D. ∅ -> {BCD} is refuted only by U = ACD, which holds D; its
  // three witness leaves exceed the budget of 2, so interval cover cannot
  // enumerate them. Searched from the first goal's W = D, it would read
  // implied.
  const int n = 4;
  const ConstraintSet premises{
      DifferentialConstraint(ItemSet(), SetFamily({ItemSet{2}})),
      DifferentialConstraint(ItemSet{2}, SetFamily({ItemSet{0, 3}, ItemSet{1, 2, 3}}))};
  const DifferentialConstraint first_goal(ItemSet(), SetFamily({ItemSet{3}}));
  const DifferentialConstraint truncated_goal(ItemSet(), SetFamily({ItemSet{1, 2, 3}}));
  Result<std::shared_ptr<const PreparedPremises>> prepared =
      PreparedPremises::Build(n, premises);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const QueryPlanner planner(ProcedureRegistry::Global().Snapshot());
  const EngineOptions options;
  StopCheck stop(Deadline::Never(), CancelToken());
  obs::Tracer tracer(false);
  QueryStats stats;
  const ProcedureBudgets budgets{options.max_solver_decisions, 2};
  ProcedureContext ctx{&options, budgets, &stop, &tracer, &stats, false};
  auto run = [&](const DifferentialConstraint& goal) {
    stats = QueryStats();
    const ProcedureQuery query{n, &goal};
    return ExecutePlan(planner.Plan(**prepared, query, options), **prepared, query, &ctx);
  };

  const PlanOutcome first = run(first_goal);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(first.outcome.verdict, ImplicationOutcome::kImplied);
  EXPECT_EQ(stats.procedure, DecisionProcedure::kSat);
  EXPECT_EQ(std::vector<Mask>(ctx.uncovered_witnesses.begin(), ctx.uncovered_witnesses.end()),
            std::vector<Mask>{ItemSet{3}.bits()});

  const PlanOutcome second = run(truncated_goal);
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_EQ(stats.procedure, DecisionProcedure::kSat);
  Result<ImplicationOutcome> truth = CheckImplicationExhaustive(n, premises, truncated_goal);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(truth->verdict, ImplicationOutcome::kNotImplied);
  EXPECT_EQ(second.outcome.verdict, truth->verdict);
}

// Interval cover's answer on one goal: the verdict, the counterexample of
// a refutation, and the W of the intervals left to `sat`.
struct CoverAnswer {
  ImplicationOutcome::Verdict verdict = ImplicationOutcome::kUnknown;
  std::optional<ItemSet> counterexample;
  std::vector<Mask> uncovered;
};

// The reference interval cover: every minimal witness set of the goal
// family in sorted order, and for each nonempty interval [X, S∖W] the top
// tested against L(C) before the single-premise coverage scan. It has no
// absorption test and no witness budget.
CoverAnswer ReferenceCover(int n, const PremiseMasks& masks, const DifferentialConstraint& goal) {
  Result<std::vector<ItemSet>> witnesses = MinimalWitnessSets(goal.rhs());
  EXPECT_TRUE(witnesses.ok()) << witnesses.status().ToString();
  CoverAnswer answer;
  if (!witnesses.ok()) return answer;
  const Mask x = goal.lhs().bits();
  for (const ItemSet& witness : *witnesses) {
    const Mask w = witness.bits();
    if ((x & w) != 0) continue;
    const Mask top = FullMask(n) & ~w;
    if (!InConstraintLattice(masks, top)) {
      answer.verdict = ImplicationOutcome::kNotImplied;
      answer.counterexample = ItemSet(top);
      return answer;
    }
    bool covered = false;
    for (const PremiseMasks::Premise& p : masks.premises) {
      covered = covered || (IsSubset(p.lhs, x) && !masks.SomeMemberSubsetOf(p, top));
    }
    if (!covered) answer.uncovered.push_back(w);
  }
  if (answer.uncovered.empty()) answer.verdict = ImplicationOutcome::kImplied;
  return answer;
}

// Interval cover's own `Decide` on one goal, with the given witness budget.
CoverAnswer DecideByIntervalCover(const PreparedPremises& prepared,
                                  const DifferentialConstraint& goal,
                                  std::size_t witness_max_results) {
  const EngineOptions options;
  StopCheck stop(Deadline::Never(), CancelToken());
  obs::Tracer tracer(false);
  QueryStats stats;
  ProcedureContext ctx{&options, ProcedureBudgets{options.max_solver_decisions,
                                                  witness_max_results},
                       &stop, &tracer, &stats, false};
  const ProcedureQuery query{prepared.n(), &goal};
  Result<ImplicationOutcome> out = kIntervalCoverProcedure.Decide(prepared, query, &ctx);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  CoverAnswer answer;
  if (!out.ok()) return answer;
  answer.verdict = out->verdict;
  answer.counterexample = out->counterexample;
  answer.uncovered.assign(ctx.uncovered_witnesses.begin(), ctx.uncovered_witnesses.end());
  return answer;
}

// True iff one premise of the arena with lhs ⊆ X absorbs the goal.
bool OnePremiseAbsorbs(const PremiseMasks& masks, const DifferentialConstraint& goal) {
  const Mask x = goal.lhs().bits();
  return std::any_of(masks.premises.begin(), masks.premises.end(), [&](const auto& p) {
    return IsSubset(p.lhs, x) && masks.Absorbs(p, x, goal.rhs().members());
  });
}

// A premise set with goals, drawn the way one loadbench workload draws
// them.
struct CoverInstance {
  int n = 0;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
};

DifferentialConstraint Augmented(Rng& rng, int n, const DifferentialConstraint& p) {
  return DifferentialConstraint(p.lhs().Union(ItemSet(rng.RandomMask(n, 2.0 / n))), p.rhs());
}

// A constraint with its left-hand side at density 2/n and `members`
// members at density `member_density`/n, as loadbench draws them.
DifferentialConstraint WorkloadConstraint(Rng& rng, int n, int members,
                                          double member_density = 2.0) {
  return testing::RandomConstraint(rng, n, 2.0 / n, members, member_density / n);
}

ConstraintSet WorkloadSet(Rng& rng, int n, int count, int members, double member_density = 2.0) {
  return testing::RandomConstraintSet(rng, n, count, 2.0 / n, members, member_density / n);
}

// One instance shaped like loadbench's `workload`: interactive (n = 16, 12
// premises, random two-member goals), revalidate (n = 32, 64 premises plus
// a trivial one and two duplicates, goals that augment a premise), refute
// (n = 24, 64 premises, random three-member goals) or churn (n = 16, a
// 64-premise set with planted redundancy, goals that augment a premise).
CoverInstance WorkloadShapedInstance(const std::string& workload, Rng& rng) {
  CoverInstance in;
  if (workload == "interactive") {
    in.n = 16;
    in.premises = WorkloadSet(rng, in.n, 12, 2);
    for (int g = 0; g < 32; ++g) in.goals.push_back(WorkloadConstraint(rng, in.n, 2));
  } else if (workload == "revalidate") {
    in.n = 32;
    in.premises = WorkloadSet(rng, in.n, 64, 2);
    in.premises.push_back(DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}})));
    in.premises.push_back(in.premises[0]);
    in.premises.push_back(in.premises[1]);
    for (int g = 0; g < 64; ++g) in.goals.push_back(Augmented(rng, in.n, in.premises[g]));
  } else if (workload == "refute") {
    in.n = 24;
    in.premises = WorkloadSet(rng, in.n, 64, 2);
    for (int g = 0; g < 32; ++g) in.goals.push_back(WorkloadConstraint(rng, in.n, 3));
  } else {
    in.n = 16;
    // 36 random premises, then augmented copies, split same-lhs
    // singletons, non-minimal families and a trivial premise: 64 in all.
    in.premises = WorkloadSet(rng, in.n, 36, 2, 3.0);
    for (int i = 0; i < 8; ++i) in.premises.push_back(Augmented(rng, in.n, in.premises[i * 3]));
    for (int i = 0; i < 6; ++i) {
      const ItemSet lhs(rng.RandomMask(in.n, 2.0 / in.n));
      for (int k = 0; k < 2; ++k) {
        const Mask m = ItemSet::Singleton(static_cast<int>(rng.UniformInt(0, in.n - 1))).bits();
        in.premises.push_back(DifferentialConstraint(lhs, SetFamily({ItemSet(m & ~lhs.bits())})));
      }
    }
    for (int i = 0; i < 7; ++i) {
      const DifferentialConstraint& p = in.premises[i * 5];
      in.premises.push_back(DifferentialConstraint(
          p.lhs(), p.rhs().WithMember(p.rhs().member(0).Union(ItemSet(rng.RandomMask(in.n, 0.3))))));
    }
    in.premises.push_back(DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}})));
    for (int g = 0; g < 16; ++g) in.goals.push_back(Augmented(rng, in.n, in.premises[g * 4]));
  }
  return in;
}

TEST(IntervalCoverOracleTest, MatchesTheReferenceCoverOnWorkloadShapedInstances) {
  Rng rng(2028);
  for (const std::string workload : {"interactive", "revalidate", "refute", "churn"}) {
    std::size_t goals = 0, absorbed = 0, refuted = 0, inconclusive = 0;
    for (int set = 0; set < 8; ++set) {
      const CoverInstance in = WorkloadShapedInstance(workload, rng);
      Result<std::shared_ptr<const PreparedPremises>> prepared =
          PreparedPremises::Build(in.n, in.premises);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      const PremiseMasks& masks = (*prepared)->masks();
      for (const DifferentialConstraint& goal : in.goals) {
        SCOPED_TRACE(workload + " set " + std::to_string(set) + " goal " +
                     goal.ToString(Universe::Letters(in.n)));
        ++goals;
        const CoverAnswer want = ReferenceCover(in.n, masks, goal);
        const CoverAnswer got = DecideByIntervalCover(**prepared, goal, 4096);
        EXPECT_EQ(got.verdict, want.verdict);
        EXPECT_EQ(got.counterexample, want.counterexample);
        if (want.verdict == ImplicationOutcome::kUnknown) {
          EXPECT_EQ(got.uncovered, want.uncovered);
          ++inconclusive;
        }
        refuted += want.verdict == ImplicationOutcome::kNotImplied ? 1 : 0;
        // An absorbed goal is implied whatever the witness budget; at a
        // zero budget every other goal is left to `sat`, unseeded.
        const bool one_absorbs = OnePremiseAbsorbs(masks, goal);
        absorbed += one_absorbs ? 1 : 0;
        if (one_absorbs) {
          EXPECT_EQ(want.verdict, ImplicationOutcome::kImplied);
        }
        const CoverAnswer no_budget = DecideByIntervalCover(**prepared, goal, 0);
        EXPECT_EQ(no_budget.verdict,
                  one_absorbs ? ImplicationOutcome::kImplied : ImplicationOutcome::kUnknown);
        EXPECT_TRUE(no_budget.uncovered.empty());
      }
    }
    // Each shape reaches the paths it stands for.
    SCOPED_TRACE(workload);
    if (workload == "revalidate" || workload == "churn") {
      EXPECT_GT(2 * absorbed, goals);
    } else {
      EXPECT_GT(refuted, 0u);
      EXPECT_GT(inconclusive, 0u);
    }
  }
}

// Each case also checks the predicate against a single-premise implication
// check, since absorption by `a` is exactly {a} |= goal.
void ExpectAbsorbs(bool want, int n, const DifferentialConstraint& a,
                   const DifferentialConstraint& goal) {
  const PremiseMasks m = PremiseMasks::Compile({a});
  EXPECT_EQ(m.Absorbs(m.premises[0], goal.lhs().bits(), goal.rhs().members()), want);
  Result<ImplicationOutcome> one = CheckImplicationExhaustive(n, {a}, goal);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->implied, want);
}

TEST(PremiseAbsorbsTest, AugmentationAdditionAndDuplicates) {
  const int n = 6;
  const DifferentialConstraint a(ItemSet{0}, SetFamily({ItemSet{1, 2}, ItemSet{3}}));
  // Augmentation: X -> Y absorbs X∪Z -> Y.
  ExpectAbsorbs(true, n, a, DifferentialConstraint(ItemSet{0, 4}, a.rhs()));
  // Addition: X -> Y absorbs X -> Y∪{Z}, and not the other way round.
  ExpectAbsorbs(true, n, a, DifferentialConstraint(ItemSet{0}, a.rhs().WithMember(ItemSet{5})));
  ExpectAbsorbs(false, n, DifferentialConstraint(ItemSet{0}, a.rhs().WithMember(ItemSet{5})), a);
  // An exact duplicate.
  ExpectAbsorbs(true, n, a, a);
}

TEST(PremiseAbsorbsTest, EmptyFamilies) {
  const int n = 4;
  // X' -> ∅ holds every superset of X', so it absorbs every goal on a
  // wider lhs; only it absorbs a goal with an empty family.
  const DifferentialConstraint everything(ItemSet{0}, SetFamily());
  ExpectAbsorbs(true, n, everything, DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{2}})));
  ExpectAbsorbs(true, n, everything, DifferentialConstraint(ItemSet{0}, SetFamily()));
  ExpectAbsorbs(false, n, DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}})),
                DifferentialConstraint(ItemSet{0}, SetFamily()));
}

TEST(PremiseAbsorbsTest, APairThatCoversOnlyTogetherAbsorbsNothing) {
  // {1} and {2} in place of the goal's {1, 2}: each premise covers one of
  // the intervals [0, S∖{1,3}] and [0, S∖{2,3}], and neither absorbs.
  const int n = 5;
  const DifferentialConstraint goal(ItemSet{0}, SetFamily({ItemSet{1, 2}, ItemSet{3}}));
  const DifferentialConstraint one(ItemSet{0}, SetFamily({ItemSet{1}, ItemSet{3}}));
  const DifferentialConstraint two(ItemSet{0}, SetFamily({ItemSet{2}, ItemSet{3}}));
  ExpectAbsorbs(false, n, one, goal);
  ExpectAbsorbs(false, n, two, goal);
  Result<ImplicationOutcome> both = CheckImplicationExhaustive(n, {one, two}, goal);
  ASSERT_TRUE(both.ok());
  EXPECT_TRUE(both->implied);
  Result<std::shared_ptr<const PreparedPremises>> prepared = PreparedPremises::Build(n, {one, two});
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(OnePremiseAbsorbs((*prepared)->masks(), goal));
  EXPECT_EQ(DecideByIntervalCover(**prepared, goal, 4096).verdict, ImplicationOutcome::kImplied);
  EXPECT_EQ(DecideByIntervalCover(**prepared, goal, 0).verdict, ImplicationOutcome::kUnknown);
}

TEST(PremiseAbsorbsTest, IsExactlySinglePremiseImplication) {
  // On random small instances with lhs(a) ⊆ X, absorption agrees with the
  // exhaustive check of {a} |= X -> Y.
  const int n = 6;
  Rng rng(41);
  int absorbing = 0;
  for (int i = 0; i < 600; ++i) {
    const DifferentialConstraint a = testing::RandomConstraint(rng, n, 0.2, 1 + i % 3, 0.35);
    const DifferentialConstraint drawn = testing::RandomConstraint(rng, n, 0.2, 1 + i % 4, 0.4);
    const DifferentialConstraint goal(drawn.lhs().Union(a.lhs()), drawn.rhs());
    const PremiseMasks m = PremiseMasks::Compile({a});
    const bool absorbs = m.Absorbs(m.premises[0], goal.lhs().bits(), goal.rhs().members());
    Result<ImplicationOutcome> one = CheckImplicationExhaustive(n, {a}, goal);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(absorbs, one->implied) << i;
    absorbing += absorbs ? 1 : 0;
  }
  EXPECT_GT(absorbing, 0);
  EXPECT_LT(absorbing, 600);
}

TEST(ImplicationEngineTest, CertificateCheckRejectsForgedCounterexamples) {
  const int n = 4;
  // L(C) = {U : 0 ∈ U, 1 ∉ U}.
  const ConstraintSet premises{DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))};
  Result<std::shared_ptr<const PreparedPremises>> prepared =
      PreparedPremises::Build(n, premises);
  ASSERT_TRUE(prepared.ok());
  const DifferentialConstraint goal(ItemSet{2}, SetFamily({ItemSet{3}}));
  auto claim = [](const ItemSet& u) {
    ImplicationOutcome out;
    out.SetNotImplied(u);
    return out;
  };
  // {2} contains X, avoids the goal member {3}, and lies outside L(C).
  EXPECT_TRUE(CertifyNotImplied(**prepared, goal, claim(ItemSet{2})).ok());
  // Forgeries: X not inside U, a goal member inside U, U inside L(C), U
  // leaving the universe, and a not-implied verdict with no counterexample.
  EXPECT_EQ(CertifyNotImplied(**prepared, goal, claim(ItemSet{1})).code(),
            StatusCode::kInternal);
  EXPECT_EQ(CertifyNotImplied(**prepared, goal, claim(ItemSet{2, 5})).code(),
            StatusCode::kInternal);
  EXPECT_EQ(CertifyNotImplied(**prepared, goal, claim(ItemSet{2, 3})).code(),
            StatusCode::kInternal);
  EXPECT_EQ(CertifyNotImplied(**prepared, goal, claim(ItemSet{0, 2})).code(),
            StatusCode::kInternal);
  EXPECT_EQ(CertifyNotImplied(**prepared, goal, ImplicationOutcome()).code(),
            StatusCode::kInternal);
  // The engine's own answers carry genuine certificates.
  ImplicationEngine engine;
  EngineQueryResult r = engine.CheckOne(*prepared, goal);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_FALSE(r.outcome.implied);
  EXPECT_TRUE(CertifyNotImplied(**prepared, goal, r.outcome).ok());
}

TEST(ImplicationEngineTest, BatchStatsToStringMentionsCaches) {
  MixedBatch b = MakeMixedBatch(10, 8, 1);
  ImplicationEngine engine;
  Result<BatchOutcome> out = engine.CheckBatch(b.n, b.premises, b.goals);
  ASSERT_TRUE(out.ok());
  std::string s = out->stats.ToString();
  EXPECT_NE(s.find("witness_cache"), std::string::npos);
  EXPECT_NE(s.find("premise_cache"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shared caches, tested on local instances (the global ones are shared
// across tests and carry counters from earlier batches).

TEST(CacheTest, WitnessCacheEvictsColdestAtCapacity) {
  WitnessSetCache cache(4);
  for (int i = 0; i < 10; ++i) {
    SetFamily family({ItemSet::Singleton(i), ItemSet{10, 11}});
    bool hit = true;
    std::shared_ptr<const WitnessSetCache::Entry> entry = cache.Get(family, 64, &hit);
    ASSERT_TRUE(entry->status.ok());
    EXPECT_FALSE(hit);
  }
  EXPECT_EQ(cache.size(), 4u);
  CacheCounters c = cache.counters();
  EXPECT_EQ(c.misses, 10u);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.evictions, 6u);
  EXPECT_DOUBLE_EQ(c.HitRatio(), 0.0);
  // Insert-only traffic stays probationary, so eviction is oldest-first:
  // the newest entry survives, the oldest was evicted.
  bool hit = false;
  cache.Get(SetFamily({ItemSet::Singleton(9), ItemSet{10, 11}}), 64, &hit);
  EXPECT_TRUE(hit);
  cache.Get(SetFamily({ItemSet::Singleton(0), ItemSet{10, 11}}), 64, &hit);
  EXPECT_FALSE(hit);
}

TEST(CacheTest, WitnessCacheIsScanResistant) {
  // One hot family (touched twice, so promoted to the protected segment),
  // then a one-shot scan of 20 cold families through a capacity-5 cache.
  // The scan may only churn the probationary segment: the hot entry must
  // survive, where a plain FIFO or LRU would have evicted it.
  WitnessSetCache cache(5);
  SetFamily hot({ItemSet{0}, ItemSet{1, 2}});
  cache.Get(hot, 64);
  bool hit = false;
  cache.Get(hot, 64, &hit);
  ASSERT_TRUE(hit);
  for (int i = 0; i < 20; ++i) {
    cache.Get(SetFamily({ItemSet::Singleton(i), ItemSet{10, 11}}), 64, &hit);
    EXPECT_FALSE(hit);
  }
  cache.Get(hot, 64, &hit);
  EXPECT_TRUE(hit);
}

TEST(CacheTest, SegmentedLruPromotesAndDemotes) {
  // The eviction index itself: capacity 5 → protected capacity 4. Promote
  // four entries, then a fifth promotion must demote the coldest protected
  // entry back to probation rather than grow the protected segment.
  struct IntHash {
    std::size_t operator()(int k) const { return static_cast<std::size_t>(k); }
  };
  SegmentedLruMap<int, int, IntHash> lru(5);
  std::size_t evicted = 0;
  for (int k = 0; k < 5; ++k) lru.InsertIfAbsent(k, k * 10, &evicted);
  EXPECT_EQ(lru.size(), 5u);
  EXPECT_EQ(lru.protected_size(), 0u);
  for (int k = 0; k < 4; ++k) ASSERT_NE(lru.Find(k), nullptr);
  EXPECT_EQ(lru.protected_size(), 4u);
  ASSERT_NE(lru.Find(4), nullptr);  // Fifth promotion: 0 demotes.
  EXPECT_EQ(lru.protected_size(), 4u);
  EXPECT_EQ(lru.size(), 5u);
  // Key 0 is now the only probationary entry, so the next insert past
  // capacity evicts it first.
  lru.InsertIfAbsent(100, 1000, &evicted);
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(lru.Find(0), nullptr);
  ASSERT_NE(lru.Find(1), nullptr);
  EXPECT_EQ(*lru.Find(1), 10);
  // A duplicate insert returns the resident value and evicts nothing.
  evicted = 7;
  const int* resident = lru.InsertIfAbsent(2, 999, &evicted);
  EXPECT_EQ(evicted, 0u);
  EXPECT_EQ(*resident, 20);
}

TEST(CacheTest, RepeatLookupsShareOneEntry) {
  WitnessSetCache cache(4);
  SetFamily family({ItemSet{0}, ItemSet{1, 2}});
  std::shared_ptr<const WitnessSetCache::Entry> a = cache.Get(family, 64);
  std::shared_ptr<const WitnessSetCache::Entry> b = cache.Get(family, 64);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
  CacheCounters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.evictions, 0u);
}

TEST(CacheTest, NegativeEntriesAreCachedAndServed) {
  // 12 disjoint pairs: 2^12 minimal transversals, far over a budget of 16,
  // so the enumeration fails ResourceExhausted — and that failure is itself
  // cached, so hostile families are not re-searched per query.
  WitnessSetCache cache(16);
  std::vector<ItemSet> members;
  for (int i = 0; i < 12; ++i) members.push_back(ItemSet{2 * i, 2 * i + 1});
  SetFamily family(std::move(members));
  bool hit = true;
  std::shared_ptr<const WitnessSetCache::Entry> first = cache.Get(family, 16, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(first->status.code(), StatusCode::kResourceExhausted);
  std::shared_ptr<const WitnessSetCache::Entry> second = cache.Get(family, 16, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(second->status.code(), StatusCode::kResourceExhausted);
}

TEST(CacheTest, PreparedCacheEvictsAndDedupes) {
  obs::Counter* evictions = RegistryCounter("diffc_cache_evictions_total", {{"cache", "prepared"}});
  const std::uint64_t evictions0 = evictions->Value();
  PreparedPremisesCache cache(2);
  auto make = [](int i) {
    return ConstraintSet{DifferentialConstraint(ItemSet::Singleton(i),
                                                SetFamily({ItemSet::Singleton(i + 1)}))};
  };
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(cache.Get(8, make(i)).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.counters().evictions, 3u);
  // The registry series aggregates every cache of the kind.
  EXPECT_EQ(evictions->Value(), evictions0 + 3);
  bool hit = false;
  Result<std::shared_ptr<const PreparedPremises>> again = cache.Get(8, make(4), &hit);
  ASSERT_TRUE(again.ok());  // Newest still resident.
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.size(), 2u);
  // An invalid universe size fails the lookup and is never cached.
  EXPECT_EQ(cache.Get(65, make(0)).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.size(), 2u);
}

// ---------------------------------------------------------------------------
// Reliability layer: deadlines, exhaustion policies, cancellation.
//
// The adversarial instance is the pigeonhole DNF tautology PHP(5,4) behind
// 22 pads (n = 64) pushed through the Proposition 5.5 reduction
// (`testing::PigeonholeDnf`): every query is pinned to the sat search, and
// with 42+ free attributes the exhaustive fallback is out of range, so
// exhaustion is genuine. It needs about 2·10^8 nodes — over a minute in a
// release build — so a 5–30 ms deadline or cancel fires inside the search
// with a margin of more than 1000×, whatever the machine speed.

struct PigeonholeProblem {
  int n = 0;
  ConstraintSet premises;
  DifferentialConstraint goal = TautologyGoal();
};

// An instance the search cannot finish within any test's lifetime.
PigeonholeProblem MakeStalledPigeonhole() {
  PigeonholeProblem p;
  prop::DnfFormula f = testing::PigeonholeDnf(4, 22);
  p.n = f.num_vars;
  p.premises = DnfTautologyReduction(f);
  return p;
}

TEST(EngineReliabilityTest, DegradePolicyYieldsUnknownWithEvidence) {
  PigeonholeProblem p = MakeStalledPigeonhole();
  EngineOptions opts;
  opts.per_query_deadline = std::chrono::milliseconds(10);
  opts.exhaustion_policy = ExhaustionPolicy::kDegrade;
  ImplicationEngine engine(opts);
  EngineQueryResult r = engine.CheckOne(p.n, p.premises, p.goal);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.outcome.verdict, ImplicationOutcome::kUnknown);
  EXPECT_FALSE(r.outcome.implied);
  EXPECT_FALSE(r.outcome.counterexample.has_value());
  // The partial evidence survives: which procedure ran out, with what, and
  // how much work it had done.
  EXPECT_EQ(r.stats.degraded_from, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.stats.stopped_in, DecisionProcedure::kSat);
  EXPECT_GT(r.stats.solver.decisions, 0u);
}

TEST(EngineReliabilityTest, FailPolicySurfacesDeadlineExceeded) {
  obs::Counter* deadline_exceeded = RegistryCounter("diffc_deadline_exceeded_total");
  const std::uint64_t deadline_exceeded0 = deadline_exceeded->Value();
  PigeonholeProblem p = MakeStalledPigeonhole();
  EngineOptions opts;
  opts.per_query_deadline = std::chrono::milliseconds(5);
  ImplicationEngine engine(opts);  // Default policy: kFail.
  EngineQueryResult r = engine.CheckOne(p.n, p.premises, p.goal);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.stats.stopped_in, DecisionProcedure::kSat);
  EXPECT_EQ(deadline_exceeded->Value(), deadline_exceeded0 + 1);
}

TEST(EngineReliabilityTest, CancelledBeforeTheCallSettlesEveryGoalUnstarted) {
  obs::Counter* nodes = RegistryCounter("diffc_engine_sat_nodes_total");
  PigeonholeProblem p = MakeStalledPigeonhole();
  std::vector<DifferentialConstraint> goals(6, p.goal);
  ImplicationEngine engine;
  CancelToken cancel;
  cancel.Cancel();
  const std::uint64_t nodes0 = nodes->Value();
  Result<BatchOutcome> out = engine.CheckBatch(p.n, p.premises, goals, cancel);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->results.size(), goals.size());
  for (const EngineQueryResult& r : out->results) {
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
    EXPECT_NE(r.status.message().find("before query started"), std::string::npos)
        << r.status.ToString();
  }
  EXPECT_EQ(out->stats.cancelled, goals.size());
  EXPECT_EQ(out->stats.failed, goals.size());
  // No goal reached the search.
  EXPECT_EQ(nodes->Value(), nodes0);
}

TEST(EngineReliabilityTest, CancelledMidBatchStopsTheRunningGoalAndSettlesTheRest) {
  // Goal 0 alone needs over a minute of search, so the token fires while
  // it runs (or, on a slow start, before it): it may stop inside the
  // search, and every later goal settles without starting.
  PigeonholeProblem p = MakeStalledPigeonhole();
  std::vector<DifferentialConstraint> goals(6, p.goal);
  ImplicationEngine engine;
  CancelToken cancel;
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.Cancel();
  });
  Result<BatchOutcome> out = engine.CheckBatch(p.n, p.premises, goals, cancel);
  canceller.join();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->results.size(), goals.size());
  for (std::size_t i = 0; i < goals.size(); ++i) {
    const Status& status = out->results[i].status;
    EXPECT_EQ(status.code(), StatusCode::kCancelled) << "goal " << i << ": " << status.ToString();
    if (i > 0) {
      EXPECT_NE(status.message().find("before query started"), std::string::npos)
          << "goal " << i << ": " << status.ToString();
    }
  }
  EXPECT_EQ(out->stats.cancelled, goals.size());
  EXPECT_EQ(out->stats.failed, goals.size());
}

TEST(EngineReliabilityTest, AdversarialDeadlineBatchFinishesPromptly) {
  // 1000 queries that each want over a minute of search, under a ~10ms
  // per-query deadline and a 1s batch deadline: the batch must come in well
  // under twice its deadline, every query OK (degraded), none failed.
  PigeonholeProblem p = MakeStalledPigeonhole();
  const std::size_t kQueries = 1000;
  std::vector<DifferentialConstraint> goals(kQueries, p.goal);
  EngineOptions opts;
  opts.per_query_deadline = std::chrono::milliseconds(10);
  opts.batch_deadline = std::chrono::seconds(1);
  opts.exhaustion_policy = ExhaustionPolicy::kDegrade;
  opts.stop_check_stride = 256;
  ImplicationEngine engine(opts);
  Result<BatchOutcome> out = engine.CheckBatch(p.n, p.premises, goals);
  ASSERT_TRUE(out.ok());
  EXPECT_LE(out->stats.batch_wall_ns, 2ull * 1'000'000'000ull);
  std::size_t unknown = 0;
  for (const EngineQueryResult& r : out->results) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    if (r.outcome.verdict == ImplicationOutcome::kUnknown) ++unknown;
  }
  EXPECT_EQ(out->stats.failed, 0u);
  EXPECT_EQ(out->stats.degraded, unknown);
  EXPECT_GT(out->stats.degraded, 0u);
  // Every degrade here is deadline-driven.
  EXPECT_EQ(out->stats.timed_out, out->stats.degraded);
  EXPECT_EQ(out->stats.implied + out->stats.not_implied + out->stats.degraded +
                out->stats.failed,
            kQueries);
  std::string s = out->stats.ToString();
  EXPECT_NE(s.find("timed_out"), std::string::npos);
  EXPECT_NE(s.find("degraded"), std::string::npos);
}

TEST(EngineReliabilityTest, TracedStressBatchIsRaceFree) {
  // The TSan CI job runs this: a mixed batch, twice on one engine, with
  // tracing and metrics both live, exercising every instrumentation flush
  // site.
  MixedBatch b = MakeMixedBatch(12, 48, 99);
  EngineOptions opts;
  opts.trace = true;
  ImplicationEngine engine(opts);
  for (int round = 0; round < 2; ++round) {
    Result<BatchOutcome> out = engine.CheckBatch(b.n, b.premises, b.goals);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    for (const EngineQueryResult& r : out->results) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      ASSERT_NE(r.trace, nullptr);
      EXPECT_FALSE(r.trace->spans.empty());
      EXPECT_GE(r.trace->HottestLeaf(), 0);
    }
  }
  // Exposition is safe concurrently with nothing else running, but also
  // while the registry is warm: both renderings must be non-empty.
  EXPECT_FALSE(obs::SnapshotPrometheus().empty());
  EXPECT_FALSE(obs::SnapshotJson().empty());
}

TEST(EngineReliabilityTest, ConcurrentCallersShareOneEngine) {
  // The engine's only concurrency: several callers (diffcd sessions) on one
  // engine, sharing its process-wide caches and the metrics registry. The
  // TSan CI job runs this; every answer must still match the sequential
  // front door and carry a certified counterexample.
  MixedBatch b = MakeMixedBatch(12, 48, 41);
  std::vector<bool> expected;
  for (const DifferentialConstraint& g : b.goals) {
    Result<ImplicationOutcome> r = CheckImplication(b.n, b.premises, g);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(r->implied);
  }
  EngineOptions opts;
  opts.trace = true;
  ImplicationEngine engine(opts);
  const std::vector<Result<BatchOutcome>> outs =
      CheckBatchFromCallers(engine, b, /*callers=*/4, /*rounds=*/2);
  ASSERT_EQ(outs.size(), 8u);
  for (const Result<BatchOutcome>& out : outs) {
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->results.size(), b.goals.size());
    for (std::size_t i = 0; i < b.goals.size(); ++i) {
      const EngineQueryResult& r = out->results[i];
      ASSERT_TRUE(r.status.ok()) << "query=" << i << ": " << r.status.ToString();
      EXPECT_EQ(r.outcome.implied, expected[i]) << "query=" << i;
      ASSERT_NE(r.trace, nullptr);
      if (!r.outcome.implied) {
        ASSERT_TRUE(r.outcome.counterexample.has_value());
        ExpectValidCounterexample(b.n, b.premises, b.goals[i], *r.outcome.counterexample);
      }
    }
  }
}

}  // namespace
}  // namespace diffc
