// Differential suite: every engine verdict must equal the Theorem 3.5
// reference decider (`CheckImplicationExhaustive`) on the *raw* premise
// set, and every not-implied verdict must carry a counterexample certified
// against that raw set (`IsValidCounterexample`), across a large randomized
// instance pool (including budget-exhaustion paths). The engine answers
// from the canonical (rewritten) premises, so the certificate check against
// the raw set also pins that canonicalization preserves L(C). The prepared
// CheckBatch overload must agree with the unprepared one. It runs under
// ASan and TSan in CI.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "core/counterexample.h"
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

// The engine's answer must be OK and match the oracle on the raw premises;
// a not-implied answer must be certified against the raw premises.
void ExpectMatchesOracle(const EngineQueryResult& r, const Instance& inst, std::size_t i) {
  ASSERT_TRUE(r.status.ok()) << "instance " << i << ": " << r.status.ToString();
  Result<ImplicationOutcome> oracle = CheckImplicationExhaustive(inst.n, inst.premises, inst.goal);
  ASSERT_TRUE(oracle.ok()) << "instance " << i << ": " << oracle.status().ToString();
  EXPECT_EQ(r.outcome.verdict, oracle->verdict) << "instance " << i;
  EXPECT_EQ(r.outcome.implied, oracle->implied) << "instance " << i;
  if (r.outcome.verdict == ImplicationOutcome::kNotImplied) {
    ASSERT_TRUE(r.outcome.counterexample.has_value()) << "instance " << i;
    EXPECT_TRUE(
        IsValidCounterexample(inst.n, inst.premises, inst.goal, *r.outcome.counterexample))
        << "instance " << i << ": U=" << r.outcome.counterexample->bits();
  }
}

void ExpectIdenticalResults(const EngineQueryResult& a, const EngineQueryResult& b,
                            std::size_t i) {
  EXPECT_EQ(a.status.code(), b.status.code())
      << "instance " << i << ": " << a.status.ToString() << " vs " << b.status.ToString();
  if (a.status.ok() && b.status.ok()) {
    EXPECT_EQ(a.outcome.verdict, b.outcome.verdict) << "instance " << i;
    EXPECT_EQ(a.outcome.implied, b.outcome.implied) << "instance " << i;
    EXPECT_EQ(a.outcome.counterexample, b.outcome.counterexample) << "instance " << i;
    EXPECT_EQ(a.stats.procedure, b.stats.procedure) << "instance " << i;
  } else {
    EXPECT_EQ(a.stats.stopped_in, b.stats.stopped_in) << "instance " << i;
  }
}

TEST(PlannerDifferentialTest, EngineMatchesExhaustiveOracleOn500PlusInstances) {
  std::vector<Instance> instances = MakeInstances(20260806);
  ASSERT_GE(instances.size(), 500u);
  ImplicationEngine engine;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    ExpectMatchesOracle(engine.CheckOne(inst.n, inst.premises, inst.goal), inst, i);
  }
}

TEST(PlannerDifferentialTest, CounterexamplesCertifyAgainstRawPremisesOn500PlusInstances) {
  // A second pool, each query against its own freshly built canonical set
  // (no prepared cache): the rewrite canonicalizer (DESIGN.md §14) must be
  // invisible to callers, so verdicts match the oracle on the raw set and
  // every counterexample — found over the canonical set — lies outside the
  // raw set's L(C).
  std::vector<Instance> instances = MakeInstances(20260809);
  ASSERT_GE(instances.size(), 500u);
  ImplicationEngine engine;
  std::size_t certified = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    Result<std::shared_ptr<const PreparedPremises>> prepared =
        PreparedPremises::Build(inst.n, inst.premises);
    ASSERT_TRUE(prepared.ok()) << "instance " << i << ": " << prepared.status().ToString();
    EngineQueryResult r = engine.CheckOne(*prepared, inst.goal);
    ExpectMatchesOracle(r, inst, i);
    if (r.outcome.verdict == ImplicationOutcome::kNotImplied) ++certified;
  }
  // Not-implied answers must actually occur or the certificate half is
  // vacuous.
  EXPECT_GT(certified, 0u);
}

TEST(PlannerDifferentialTest, TinySolverBudgetExhaustsOnlyInSat) {
  // A 1-node SAT budget, a zero witness budget (so interval cover is
  // inconclusive) and a 2-bit exhaustive gate force ResourceExhausted on
  // every instance the root's unit propagation can't settle and the
  // fallback can't enumerate: every such failure must be ResourceExhausted
  // stopped in `sat`, and every answer that does come back must still
  // match the oracle.
  std::vector<Instance> instances = MakeInstances(99);
  EngineOptions opts;
  opts.max_solver_decisions = 1;
  opts.witness_max_results = 0;
  opts.exhaustive_max_free_bits = 2;
  ImplicationEngine engine(opts);

  std::size_t exhausted = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    EngineQueryResult r = engine.CheckOne(inst.n, inst.premises, inst.goal);
    if (!r.status.ok()) {
      ++exhausted;
      EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted)
          << "instance " << i << ": " << r.status.ToString();
      EXPECT_EQ(r.stats.stopped_in, DecisionProcedure::kSat) << "instance " << i;
      continue;
    }
    ExpectMatchesOracle(r, inst, i);
  }
  // The budget must actually bind on some instances or this test is vacuous.
  EXPECT_GT(exhausted, 0u);
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
