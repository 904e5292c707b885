// Differential suite: the QueryPlanner dispatch must be verdict- and
// status-identical to the legacy inline ladder it replaced, across a large
// randomized instance pool (including budget-exhaustion paths), and the
// prepared CheckBatch overload must agree with the unprepared one. This is
// the compatibility pin for the prepare/plan/execute refactor; it runs
// under ASan and TSan in CI.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "core/implication.h"
#include "engine/implication_engine.h"
#include "test_helpers.h"
#include "util/random.h"

namespace diffc {
namespace {

struct Instance {
  int n = 0;
  ConstraintSet premises;
  DifferentialConstraint goal = DifferentialConstraint(ItemSet(), SetFamily());
};

// A pool of >= 500 instances mixing every dispatch shape: FD-subclass sets,
// general sets, trivial goals, repeated right-hand families, and empty
// premise sets.
std::vector<Instance> MakeInstances(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> out;
  for (int round = 0; round < 130; ++round) {
    const int n = 6 + round % 7;  // 6..12 attributes.
    Instance base;
    base.n = n;
    switch (round % 4) {
      case 0:  // General random premises.
        base.premises = testing::RandomConstraintSet(rng, n, 2 + round % 5);
        break;
      case 1: {  // FD-shaped premises: singleton right-hand sides.
        for (int i = 0; i < 4; ++i) {
          base.premises.push_back(DifferentialConstraint(
              ItemSet::Singleton(i % n), SetFamily({ItemSet::Singleton((i + 1) % n)})));
        }
        break;
      }
      case 2:  // Empty premises.
        break;
      default:  // Dense random premises with wider families.
        base.premises = testing::RandomConstraintSet(rng, n, 3, 0.4, 3, 0.4);
        break;
    }
    for (int q = 0; q < 4; ++q) {
      Instance inst = base;
      switch (q) {
        case 0:  // Random goal.
          inst.goal = testing::RandomConstraint(rng, n);
          break;
        case 1:  // Trivial goal.
          inst.goal = DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}}));
          break;
        case 2:  // Singleton-RHS goal (FD-shaped when premises allow).
          inst.goal = DifferentialConstraint(
              ItemSet::Singleton(q % n), SetFamily({ItemSet::Singleton((q + 3) % n)}));
          break;
        default:  // Augmented premise (implied when premises are nonempty).
          if (!base.premises.empty()) {
            const DifferentialConstraint& p = base.premises[round % base.premises.size()];
            inst.goal = DifferentialConstraint(
                p.lhs().Union(ItemSet::Singleton(round % n)), p.rhs());
          } else {
            inst.goal = testing::RandomConstraint(rng, n);
          }
          break;
      }
      out.push_back(std::move(inst));
    }
  }
  return out;
}

void ExpectIdenticalResults(const EngineQueryResult& planner, const EngineQueryResult& ladder,
                            std::size_t i) {
  EXPECT_EQ(planner.status.code(), ladder.status.code())
      << "instance " << i << ": planner=" << planner.status.ToString()
      << " ladder=" << ladder.status.ToString();
  if (planner.status.ok() && ladder.status.ok()) {
    EXPECT_EQ(planner.outcome.verdict, ladder.outcome.verdict) << "instance " << i;
    EXPECT_EQ(planner.outcome.implied, ladder.outcome.implied) << "instance " << i;
    EXPECT_EQ(planner.outcome.counterexample, ladder.outcome.counterexample)
        << "instance " << i;
    EXPECT_EQ(planner.stats.procedure, ladder.stats.procedure) << "instance " << i;
  } else {
    EXPECT_EQ(planner.stats.stopped_in, ladder.stats.stopped_in) << "instance " << i;
  }
}

TEST(PlannerDifferentialTest, PlannerMatchesLadderOn500PlusInstances) {
  std::vector<Instance> instances = MakeInstances(20260806);
  ASSERT_GE(instances.size(), 500u);

  EngineOptions planner_opts;  // Defaults: planner on.
  EngineOptions ladder_opts;
  ladder_opts.use_planner = false;
  ImplicationEngine planner_engine(planner_opts);
  ImplicationEngine ladder_engine(ladder_opts);

  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    EngineQueryResult p = planner_engine.CheckOne(inst.n, inst.premises, inst.goal);
    EngineQueryResult l = ladder_engine.CheckOne(inst.n, inst.premises, inst.goal);
    ExpectIdenticalResults(p, l, i);
    // Both must also agree with the sequential front door.
    if (p.status.ok()) {
      Result<ImplicationOutcome> seq = CheckImplication(inst.n, inst.premises, inst.goal);
      ASSERT_TRUE(seq.ok());
      EXPECT_EQ(p.outcome.implied, seq->implied) << "instance " << i;
    }
  }
}

TEST(PlannerDifferentialTest, PlannerMatchesLadderUnderTinySolverBudget) {
  // A 1-node SAT budget with the interval-cover fast path off and a 2-bit
  // exhaustive gate forces ResourceExhausted on every instance the root's
  // unit propagation can't settle: the planner's pending-failure/fallback
  // machinery must surface exactly the ladder's status and stopped_in.
  std::vector<Instance> instances = MakeInstances(99);
  EngineOptions planner_opts;
  planner_opts.max_solver_decisions = 1;
  planner_opts.use_interval_cover_fast_path = false;
  planner_opts.exhaustive_max_free_bits = 2;
  EngineOptions ladder_opts = planner_opts;
  ladder_opts.use_planner = false;
  ImplicationEngine planner_engine(planner_opts);
  ImplicationEngine ladder_engine(ladder_opts);

  std::size_t exhausted = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    EngineQueryResult p = planner_engine.CheckOne(inst.n, inst.premises, inst.goal);
    EngineQueryResult l = ladder_engine.CheckOne(inst.n, inst.premises, inst.goal);
    ExpectIdenticalResults(p, l, i);
    if (!p.status.ok()) ++exhausted;
  }
  // The budget must actually bind on some instances or this test is vacuous.
  EXPECT_GT(exhausted, 0u);
}

TEST(PlannerDifferentialTest, SimplifiedMatchesRawOn500PlusInstances) {
  // The rewrite canonicalizer (DESIGN.md §14) must be invisible to callers:
  // running every instance with the full rule set (simplify level 2) and
  // with the legacy inline path (level 0) must produce bit-for-bit equal
  // verdicts, across both the planner and the ladder dispatch. Statuses
  // must match too; counterexamples may legitimately differ (both engines
  // pick a subset of L(goal) ∖ L(C), and the search order depends on the
  // canonical form), so they are not compared here — their validity is
  // pinned by the engine's own counterexample checks.
  std::vector<Instance> instances = MakeInstances(20260809);
  ASSERT_GE(instances.size(), 500u);

  EngineOptions simplified_opts;  // Defaults: planner on, simplify level 2.
  EngineOptions raw_opts;
  raw_opts.simplify_level = 0;
  EngineOptions ladder_simplified_opts = simplified_opts;
  ladder_simplified_opts.use_planner = false;
  EngineOptions ladder_raw_opts = raw_opts;
  ladder_raw_opts.use_planner = false;
  ImplicationEngine simplified_engine(simplified_opts);
  ImplicationEngine raw_engine(raw_opts);
  ImplicationEngine ladder_simplified_engine(ladder_simplified_opts);
  ImplicationEngine ladder_raw_engine(ladder_raw_opts);

  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    EngineQueryResult s = simplified_engine.CheckOne(inst.n, inst.premises, inst.goal);
    EngineQueryResult r = raw_engine.CheckOne(inst.n, inst.premises, inst.goal);
    EngineQueryResult ls = ladder_simplified_engine.CheckOne(inst.n, inst.premises, inst.goal);
    EngineQueryResult lr = ladder_raw_engine.CheckOne(inst.n, inst.premises, inst.goal);
    ASSERT_TRUE(s.status.ok()) << "instance " << i << ": " << s.status.ToString();
    ASSERT_TRUE(r.status.ok()) << "instance " << i << ": " << r.status.ToString();
    ASSERT_TRUE(ls.status.ok()) << "instance " << i << ": " << ls.status.ToString();
    ASSERT_TRUE(lr.status.ok()) << "instance " << i << ": " << lr.status.ToString();
    EXPECT_EQ(s.outcome.verdict, r.outcome.verdict) << "instance " << i;
    EXPECT_EQ(s.outcome.implied, r.outcome.implied) << "instance " << i;
    EXPECT_EQ(ls.outcome.verdict, lr.outcome.verdict) << "ladder instance " << i;
    EXPECT_EQ(ls.outcome.implied, lr.outcome.implied) << "ladder instance " << i;
    EXPECT_EQ(s.outcome.verdict, ls.outcome.verdict) << "cross instance " << i;
  }
}

TEST(PlannerDifferentialTest, PreparedBatchesMatchUnpreparedBatches) {
  Rng rng(7);
  ImplicationEngine engine;
  for (int round = 0; round < 10; ++round) {
    const int n = 8 + round % 5;
    ConstraintSet premises = testing::RandomConstraintSet(rng, n, 4);
    std::vector<DifferentialConstraint> goals;
    for (int q = 0; q < 12; ++q) goals.push_back(testing::RandomConstraint(rng, n));

    Result<std::shared_ptr<const PreparedPremises>> prepared = engine.Prepare(n, premises);
    ASSERT_TRUE(prepared.ok());
    Result<BatchOutcome> via_prepared = engine.CheckBatch(*prepared, goals);
    Result<BatchOutcome> via_raw = engine.CheckBatch(n, premises, goals);
    ASSERT_TRUE(via_prepared.ok());
    ASSERT_TRUE(via_raw.ok());
    for (std::size_t i = 0; i < goals.size(); ++i) {
      ExpectIdenticalResults(via_prepared->results[i], via_raw->results[i], i);
    }
  }
}

}  // namespace
}  // namespace diffc
