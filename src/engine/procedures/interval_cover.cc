#include <algorithm>
#include <memory>

#include "engine/caches.h"
#include "engine/procedures/procedure.h"

namespace diffc {

namespace {

// True iff `s` came from a fired StopCheck (as opposed to a budget-
// truncated enumeration, which is a property of the family, not the query).
bool IsStopStatus(const Status& s) {
  return s.code() == StatusCode::kDeadlineExceeded || s.code() == StatusCode::kCancelled;
}

}  // namespace

/// Interval cover over the cached minimal witness sets of the goal's
/// right-hand family: L(X, Y) = ∪_{W minimal} [X, S∖W] (Definition 2.6).
/// Sound in both directions when conclusive:
///   - an interval top S∖W outside L(C) is itself a counterexample;
///   - if every nonempty interval is covered by a single premise's
///     lattice, then L(X, Y) ⊆ L(C) and the goal is implied (Thm. 3.5).
/// Inconclusive covers (an interval needs several premises) and
/// budget-truncated witness enumerations return kUnknown, handing the
/// query to the complete SAT procedure.
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
    ctx->stats->witness_cache_used = true;
    std::shared_ptr<const WitnessSetCache::Entry> entry;
    {
      obs::SpanGuard probe_span(ctx->tracer, "witness-cache-probe");
      entry = GlobalWitnessSetCache().Get(goal.rhs(), ctx->budgets.witness_max_results,
                                          &ctx->stats->witness_cache_hit, ctx->stop);
    }
    if (IsStopStatus(entry->status)) return entry->status;
    ImplicationOutcome out;
    out.SetUnknown();
    if (!entry->status.ok()) {
      // Witness enumeration exhausted its budget (cached negatively):
      // inconclusive here, complete SAT decides.
      return out;
    }
    const PremiseMasks& masks = premises.masks();
    const Mask x = goal.lhs().bits();
    bool every_interval_covered = true;
    for (const ItemSet& w : entry->witnesses) {
      if (Status s = ctx->stop->Check(); !s.ok()) return s;
      if ((x & w.bits()) != 0) continue;  // Empty interval.
      const Mask top = FullMask(query.n) & ~w.bits();
      // `top` ∈ L(X, Y): X ⊆ top, and no goal member fits inside top
      // because W hits every member. If no premise excludes it, it is a
      // counterexample and the goal is not implied.
      if (!InConstraintLattice(masks, top)) {
        out.SetNotImplied(ItemSet(top));
        return out;
      }
      // Single-premise coverage of the whole interval [X, top]:
      // p.lhs ⊆ X keeps p.lhs inside every U ⊇ X, and no member of
      // p.rhs inside `top` keeps every U ⊆ top clear of p.rhs.
      const bool covered =
          std::any_of(masks.premises.begin(), masks.premises.end(), [&](const auto& p) {
            return IsSubset(p.lhs, x) && !masks.SomeMemberSubsetOf(p, top);
          });
      if (!covered) every_interval_covered = false;
    }
    if (every_interval_covered) out.SetImplied();
    return out;
  }
};

constinit const IntervalCoverProcedure kIntervalCoverProcedureInstance{};
constinit const DecisionProcedureImpl& kIntervalCoverProcedure = kIntervalCoverProcedureInstance;

}  // namespace diffc
