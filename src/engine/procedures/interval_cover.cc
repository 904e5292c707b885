#include <algorithm>
#include <memory>

#include "engine/caches.h"
#include "engine/procedures/procedure.h"
#include "lattice/hitting_set.h"

namespace diffc {

namespace {

// Goal families whose leaf bound (`WitnessLeafBound`) is at most this are
// searched inline, with no lock and no allocation. Larger ones go through
// the process-wide witness-set cache, which amortizes their search and
// caches a blown budget negatively. DESIGN.md §10 has the measurements
// behind the value.
constexpr std::uint64_t kInlineLeafBound = 64;

// True iff `s` came from a fired StopCheck (as opposed to a budget-
// truncated enumeration, which is a property of the family, not the query).
bool IsStopStatus(const Status& s) {
  return s.code() == StatusCode::kDeadlineExceeded || s.code() == StatusCode::kCancelled;
}

// Covers the goal's L(X, Y) by the intervals [X, S∖W] of its minimal
// witness sets `witnesses` (masks or `ItemSet`s), in their sorted order.
// An inconclusive cover points `ctx->uncovered_witnesses` at the W of each
// interval no single premise covers, kept in this thread's buffer.
template <typename Witnesses>
Result<ImplicationOutcome> CoverIntervals(const PremiseMasks& masks, const ProcedureQuery& query,
                                          const Witnesses& witnesses, ProcedureContext* ctx) {
  thread_local std::vector<Mask> uncovered;
  uncovered.clear();
  const Mask x = query.goal->lhs().bits();
  ImplicationOutcome out;
  out.SetUnknown();
  for (const auto& witness : witnesses) {
    if (Status s = ctx->stop->Check(); !s.ok()) return s;
    const Mask w = MemberBits(witness);
    if ((x & w) != 0) continue;  // Empty interval.
    const Mask top = FullMask(query.n) & ~w;
    // Single-premise coverage of the whole interval [X, top]:
    // p.lhs ⊆ X keeps p.lhs inside every U ⊇ X, and no member of
    // p.rhs inside `top` keeps every U ⊆ top clear of p.rhs. The covering
    // premise keeps `top` itself in L(C), so the scan below can only
    // refute an interval no premise covers.
    const bool covered =
        std::any_of(masks.premises.begin(), masks.premises.end(), [&](const auto& p) {
          return IsSubset(p.lhs, x) && !masks.SomeMemberSubsetOf(p, top);
        });
    if (covered) continue;
    // `top` ∈ L(X, Y): X ⊆ top, and no goal member fits inside top
    // because W hits every member. If no premise excludes it, it is a
    // counterexample and the goal is not implied.
    if (!InConstraintLattice(masks, top)) {
      out.SetNotImplied(ItemSet(top));
      return out;
    }
    uncovered.push_back(w);
  }
  if (uncovered.empty()) {
    out.SetImplied();
  } else {
    ctx->uncovered_witnesses = uncovered;
  }
  return out;
}

}  // namespace

/// Interval cover over the minimal witness sets of the goal's right-hand
/// family: L(X, Y) = ∪_{W minimal} [X, S∖W] (Definition 2.6).
/// Sound in both directions when conclusive:
///   - a premise that absorbs the goal has L(X, Y) ⊆ L(p) ⊆ L(C), so the
///     goal is implied before any witness search (Thm. 3.5);
///   - an interval top S∖W outside L(C) is itself a counterexample;
///   - if every nonempty interval is covered by a single premise's
///     lattice, then L(X, Y) ⊆ L(C) and the goal is implied (Thm. 3.5).
/// Inconclusive covers (an interval needs several premises) and
/// budget-truncated witness enumerations return kUnknown, handing the
/// query to the complete SAT procedure. An inconclusive cover also hands
/// it the uncovered intervals (`ProcedureContext::uncovered_witnesses`),
/// the only ones that can hold a counterexample.
class IntervalCoverProcedure : public DecisionProcedureImpl {
 public:
  DecisionProcedure id() const override { return DecisionProcedure::kIntervalCover; }
  const char* name() const override { return "interval-cover"; }

  Applicability CanDecide(const PreparedPremises& /*premises*/,
                          const ProcedureQuery& /*query*/) const override {
    // Always runnable; completeness is what it lacks, not applicability.
    return Applicability::kYes;
  }

  Result<ImplicationOutcome> Decide(const PreparedPremises& premises,
                                    const ProcedureQuery& query,
                                    ProcedureContext* ctx) const override {
    const DifferentialConstraint& goal = *query.goal;
    // On every path: a truncated enumeration must leave `sat` unseeded,
    // never seeded with an earlier goal's intervals.
    ctx->uncovered_witnesses = {};
    // One premise p with p.lhs ⊆ X that absorbs the goal covers all of
    // L(X, Y) at once (`PremiseMasks::Absorbs`): no witness search, and so
    // no witness budget, decides for it.
    const PremiseMasks& masks = premises.masks();
    const Mask x = goal.lhs().bits();
    if (std::any_of(masks.premises.begin(), masks.premises.end(), [&](const auto& p) {
          return IsSubset(p.lhs, x) && masks.Absorbs(p, x, goal.rhs().members());
        })) {
      ImplicationOutcome implied;
      implied.SetImplied();
      return implied;
    }
    ImplicationOutcome unknown;
    unknown.SetUnknown();
    if (WitnessLeafBound(goal.rhs(), kInlineLeafBound) <= kInlineLeafBound) {
      // Small family: search it here, into this thread's buffers.
      thread_local WitnessScratch scratch;
      Status s = MinimalWitnessMasks(goal.rhs(), ctx->budgets.witness_max_results, &scratch,
                                     nullptr, ctx->stop);
      if (IsStopStatus(s)) return s;
      // A truncated enumeration is inconclusive here; complete SAT decides.
      if (!s.ok()) return unknown;
      return CoverIntervals(masks, query, scratch.witnesses, ctx);
    }
    ctx->stats->witness_cache_used = true;
    std::shared_ptr<const WitnessSetCache::Entry> entry;
    {
      obs::SpanGuard probe_span(ctx->tracer, "witness-cache-probe");
      entry = GlobalWitnessSetCache().Get(goal.rhs(), ctx->budgets.witness_max_results,
                                          &ctx->stats->witness_cache_hit, ctx->stop);
    }
    if (IsStopStatus(entry->status)) return entry->status;
    // Witness enumeration exhausted its budget (cached negatively):
    // inconclusive here, complete SAT decides.
    if (!entry->status.ok()) return unknown;
    return CoverIntervals(masks, query, entry->witnesses, ctx);
  }
};

constinit const IntervalCoverProcedure kIntervalCoverProcedureInstance{};
constinit const DecisionProcedureImpl& kIntervalCoverProcedure = kIntervalCoverProcedureInstance;

}  // namespace diffc
