// Differential suite: every engine verdict must equal the Theorem 3.5
// reference decider (`CheckImplicationExhaustive`) on the *raw* premise
// set, and every not-implied verdict must carry a counterexample certified
// against that raw set (`IsValidCounterexample`), across a large randomized
// instance pool (including budget-exhaustion paths). The engine answers
// from the canonical (rewritten) premises, so the certificate check against
// the raw set also pins that canonicalization preserves L(C). The prepared
// CheckBatch overload must agree with the unprepared one. At service sizes
// (n = 16–32, up to 67 premises), where the oracle is too slow, every
// verdict is checked by its certificate instead: a counterexample, or a
// Figure 1 proof. It runs under ASan and TSan in CI.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/counterexample.h"
#include "core/implication.h"
#include "core/inference.h"
#include "engine/implication_engine.h"
#include "engine/prepared_premises.h"
#include "rewrite/simplifier.h"
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

// ---------------------------------------------------------------------------
// Certificates at service sizes. The generators below draw sets and goals
// shaped like the four loadbench workloads. The oracle above enumerates
// 2^(n - |X|) sets, too many at n = 24–32, so each verdict is checked
// against the raw premises by its certificate: a not-implied U by
// `IsValidCounterexample` (Theorem 3.5), an implied verdict by a Figure 1
// proof from `DeriveImplied` that `ValidateDerivation` accepts. A goal with
// at most 16 free attributes is checked against the oracle as well.

// A random constraint: lhs at density 2/n, `members` nonempty members at
// density `member_density`/n.
DifferentialConstraint WorkloadConstraint(Rng& rng, int n, int members,
                                          double member_density = 2.0) {
  ItemSet lhs(rng.RandomMask(n, 2.0 / n));
  std::vector<ItemSet> family;
  for (int i = 0; i < members; ++i) {
    Mask m = rng.RandomMask(n, member_density / n);
    if (m == 0) m = Mask{1} << rng.UniformInt(0, n - 1);
    family.push_back(ItemSet(m));
  }
  return DifferentialConstraint(lhs, SetFamily(std::move(family)));
}

ConstraintSet WorkloadSet(Rng& rng, int n, int count, double member_density) {
  ConstraintSet c;
  for (int i = 0; i < count; ++i) c.push_back(WorkloadConstraint(rng, n, 2, member_density));
  return c;
}

// `p` with a wider lhs: implied by `p` (Figure 1 augmentation).
DifferentialConstraint Augmented(Rng& rng, int n, const DifferentialConstraint& p) {
  return DifferentialConstraint(p.lhs().Union(ItemSet(rng.RandomMask(n, 2.0 / n))), p.rhs());
}

// 64 constraints with the redundancy the rewrite rules remove: augmented
// copies, split same-lhs singletons, members overlapping their lhs,
// non-minimal families and a trivial constraint.
ConstraintSet PlantedRedundancySet(Rng& rng, int n) {
  ConstraintSet c = WorkloadSet(rng, n, 36, 3.0);
  for (int i = 0; i < 8; ++i) c.push_back(Augmented(rng, n, c[static_cast<std::size_t>(i * 3)]));
  for (int i = 0; i < 4; ++i) {
    const ItemSet lhs(rng.RandomMask(n, 2.0 / n));
    for (int k = 0; k < 2; ++k) {
      Mask m = rng.RandomMask(n, 2.0 / n) & ~lhs.bits();
      if (m == 0) m = Mask{1} << rng.UniformInt(0, n - 1);
      c.push_back(DifferentialConstraint(lhs, SetFamily({ItemSet(m)})));
    }
  }
  for (int i = 0; i < 4; ++i) {
    const ItemSet lhs(rng.RandomMask(n, 3.0 / n));
    Mask outside = rng.RandomMask(n, 2.0 / n) & ~lhs.bits();
    if (outside == 0) outside = Mask{1} << rng.UniformInt(0, n - 1);
    c.push_back(DifferentialConstraint(
        lhs, SetFamily({ItemSet(outside | (lhs.bits() & (lhs.bits() >> 1)))})));
  }
  for (int i = 0; i < 7; ++i) {
    const DifferentialConstraint& p = c[static_cast<std::size_t>(i * 5)];
    c.push_back(DifferentialConstraint(
        p.lhs(), p.rhs().WithMember(p.rhs().member(0).Union(ItemSet(rng.RandomMask(n, 0.3))))));
  }
  c.push_back(DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}})));
  return c;
}

enum class Shape { kInteractive, kRevalidate, kRefute, kChurn };

struct ServiceBatch {
  int n = 0;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
};

ServiceBatch MakeServiceBatch(Shape shape, Rng& rng) {
  ServiceBatch b;
  switch (shape) {
    case Shape::kInteractive:  // 12 random premises, 8 random goals.
      b.n = 16;
      b.premises = WorkloadSet(rng, b.n, 12, 2.0);
      for (int g = 0; g < 8; ++g) b.goals.push_back(WorkloadConstraint(rng, b.n, 2));
      break;
    case Shape::kRevalidate:  // 64 premises, a trivial one, two duplicates;
                              // 128 augmented premises as goals.
      b.n = 32;
      b.premises = WorkloadSet(rng, b.n, 64, 2.0);
      b.premises.push_back(DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}})));
      b.premises.push_back(b.premises[0]);
      b.premises.push_back(b.premises[1]);
      for (std::size_t g = 0; g < 128; ++g) {
        b.goals.push_back(Augmented(rng, b.n, b.premises[g % 64]));
      }
      break;
    case Shape::kRefute:  // 64 random premises, 16 random 3-member goals.
      b.n = 24;
      b.premises = WorkloadSet(rng, b.n, 64, 2.0);
      for (int g = 0; g < 16; ++g) b.goals.push_back(WorkloadConstraint(rng, b.n, 3));
      break;
    case Shape::kChurn:  // A planted-redundancy set, 4 augmented premises.
      b.n = 16;
      b.premises = PlantedRedundancySet(rng, b.n);
      for (std::size_t g = 0; g < 4; ++g) {
        b.goals.push_back(Augmented(rng, b.n, b.premises[g * 9]));
      }
      break;
  }
  return b;
}

struct CertifiedCounts {
  std::size_t goals = 0;
  std::size_t implied = 0;
  std::size_t not_implied = 0;
  std::size_t oracle_checked = 0;
  std::size_t rewritten_sets = 0;
};

// Prepares `b` through the engine, checks the canonical set, and certifies
// every verdict of one batch against the raw premises.
void CertifyBatch(ImplicationEngine& engine, const ServiceBatch& b, CertifiedCounts* counts) {
  Result<std::shared_ptr<const PreparedPremises>> prepared = engine.Prepare(b.n, b.premises);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  // The canonicalizer's one pass finished within its budget, and it is a
  // fixpoint: simplifying the canonical arena again edits nothing.
  const rewrite::SimplifyStats& stats = (*prepared)->stats().rewrite;
  ASSERT_TRUE(stats.reached_fixpoint);
  if (stats.applied_total > 0) ++counts->rewritten_sets;
  PremiseMasks again = (*prepared)->masks();
  rewrite::SimplifyStats again_stats;
  rewrite::SimplifyInPlace(&again, &again_stats);
  EXPECT_EQ(again_stats.applied_total, 0u);
  EXPECT_EQ(again.Materialize(), (*prepared)->masks().Materialize());

  Result<BatchOutcome> batch = engine.CheckBatch(*prepared, b.goals);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->results.size(), b.goals.size());
  for (std::size_t i = 0; i < b.goals.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "goal " << i);
    const DifferentialConstraint& goal = b.goals[i];
    const EngineQueryResult& r = batch->results[i];
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ++counts->goals;
    if (r.outcome.verdict == ImplicationOutcome::kNotImplied) {
      ++counts->not_implied;
      ASSERT_TRUE(r.outcome.counterexample.has_value());
      EXPECT_TRUE(IsValidCounterexample(b.n, b.premises, goal, *r.outcome.counterexample))
          << "U=" << r.outcome.counterexample->bits();
    } else {
      ASSERT_EQ(r.outcome.verdict, ImplicationOutcome::kImplied);
      ++counts->implied;
      Result<Derivation> proof = DeriveImplied(b.n, b.premises, goal);
      ASSERT_TRUE(proof.ok()) << proof.status().ToString();
      EXPECT_TRUE(ValidateDerivation(b.n, b.premises, *proof).ok());
      EXPECT_EQ(proof->conclusion(), goal);
    }
    if (b.n - goal.lhs().size() <= 16) {
      ++counts->oracle_checked;
      Result<ImplicationOutcome> oracle = CheckImplicationExhaustive(b.n, b.premises, goal, 16);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      EXPECT_EQ(r.outcome.verdict, oracle->verdict);
    }
  }
}

TEST(PlannerDifferentialTest, EveryVerdictIsCertifiedOnWorkloadShapedSets) {
  const struct {
    const char* name;
    Shape shape;
    bool derived_goals;   // Every goal is an augmented premise, so implied.
    bool small_universe;  // n = 16: the oracle checks every goal.
  } shapes[] = {{"interactive", Shape::kInteractive, false, true},
                {"revalidate", Shape::kRevalidate, true, false},
                {"refute", Shape::kRefute, false, false},
                {"churn", Shape::kChurn, true, true}};
  ImplicationEngine engine;
  for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{104729}}) {
    for (const auto& [name, shape, derived_goals, small_universe] : shapes) {
      SCOPED_TRACE(::testing::Message() << name << " seed " << seed);
      Rng rng(seed);
      CertifiedCounts counts;
      for (int set = 0; set < 32; ++set) {
        SCOPED_TRACE(::testing::Message() << "set " << set);
        CertifyBatch(engine, MakeServiceBatch(shape, rng), &counts);
        if (::testing::Test::HasFatalFailure()) return;
      }
      // Each shape reaches the verdicts it is built for.
      EXPECT_GT(counts.implied, 0u);
      if (derived_goals) {
        EXPECT_EQ(counts.implied, counts.goals);
        // Every set of these shapes has redundancy to remove.
        EXPECT_EQ(counts.rewritten_sets, 32u);
      } else {
        EXPECT_GT(counts.not_implied, 0u);
      }
      if (small_universe) {
        EXPECT_EQ(counts.oracle_checked, counts.goals);
      }
    }
  }
}

}  // namespace
}  // namespace diffc
