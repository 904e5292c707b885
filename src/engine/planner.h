#ifndef DIFFC_ENGINE_PLANNER_H_
#define DIFFC_ENGINE_PLANNER_H_

#include <string>
#include <vector>

#include "engine/procedures/procedure.h"

namespace diffc {

/// The ordered execution plan of one query: every applicable procedure,
/// primaries (by ascending cost estimate) before fallbacks (likewise).
struct QueryPlan {
  struct Step {
    const DecisionProcedureImpl* procedure = nullptr;
    Applicability applicability = Applicability::kNo;
    double estimated_cost = 0.0;
  };
  std::vector<Step> steps;

  /// "trivial+interval-cover+sat+exhaustive" — the span / event-log label.
  std::string ToString() const;
};

/// Orders the built-in decision procedures for one query: filters by
/// `CanDecide` and the `EngineOptions` toggles (a disabled interval-cover
/// fast path drops that procedure from every plan), then sorts primaries
/// by `EstimateCost` ahead of fallbacks (a fallback only ever runs after a
/// primary exhausted a budget, so cost cannot promote it). Deterministic:
/// equal-cost steps keep a stable name order.
class QueryPlanner {
 public:
  /// Plans over `procedures` (typically `ProcedureRegistry::Global().
  /// Snapshot()`, taken once per engine).
  explicit QueryPlanner(std::vector<const DecisionProcedureImpl*> procedures);

  QueryPlan Plan(const PreparedPremises& premises, const ProcedureQuery& query,
                 const EngineOptions& options) const;

 private:
  std::vector<const DecisionProcedureImpl*> procedures_;
};

/// The terminal answer of an executed plan.
struct PlanOutcome {
  Status status;
  ImplicationOutcome outcome;
};

/// Runs `plan` step by step (the execute stage):
///
///   - zero-cost steps run before the first deadline sample; the sample
///     (one `StopCheck::CheckNow`) precedes the first costed step, failing
///     fast on a deadline that expired before the query started;
///   - a conclusive step (verdict kImplied / kNotImplied) is terminal and
///     names `QueryStats::procedure`;
///   - an inconclusive step (OK + kUnknown) passes to the next step;
///   - a primary step's ResourceExhausted is recorded as the pending
///     failure and arms the `Applicability::kFallback` steps (which are
///     skipped otherwise); a fallback's own failure never replaces the
///     pending primary status;
///   - DeadlineExceeded / Cancelled and any other primary error are
///     terminal (`QueryStats::stopped_in` names the stopping step for
///     stop / exhaustion statuses).
///
/// Records the plan in `ctx->stats->plan` and one span per executed step
/// in `ctx->tracer`.
PlanOutcome ExecutePlan(const QueryPlan& plan, const PreparedPremises& premises,
                        const ProcedureQuery& query, ProcedureContext* ctx);

}  // namespace diffc

#endif  // DIFFC_ENGINE_PLANNER_H_
