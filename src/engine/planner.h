#ifndef DIFFC_ENGINE_PLANNER_H_
#define DIFFC_ENGINE_PLANNER_H_

#include <string>
#include <vector>

#include "engine/procedures/procedure.h"

namespace diffc {

/// The ordered execution plan of one query: every applicable procedure,
/// in procedure-table order.
struct QueryPlan {
  struct Step {
    const DecisionProcedureImpl* procedure = nullptr;
    Applicability applicability = Applicability::kNo;
  };
  std::vector<Step> steps;

  /// "trivial+interval-cover+sat+exhaustive" — the `plan:` span label.
  std::string ToString() const;
};

/// Plans one query: the procedure table, in order, filtered by `CanDecide`.
/// The table order is the plan — trivial, fd-subclass, interval-cover, sat,
/// then the exhaustive fallback — so planning is deterministic and never
/// sorts.
class QueryPlanner {
 public:
  /// Plans over `procedures` (typically `ProcedureRegistry::Global().
  /// Snapshot()`, taken once per engine), which must list every
  /// `Applicability::kFallback` procedure after the primaries.
  explicit QueryPlanner(std::vector<const DecisionProcedureImpl*> procedures);

  /// `options` is unread; the parameter stays because loadbench's traced
  /// replay calls `Plan` with it.
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
///   - a `trivial` step runs before the deadline sample; the sample (one
///     `StopCheck::CheckNow`) precedes the first other step, failing fast
///     on a deadline that expired before the query started;
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
/// Records one span per executed step in `ctx->tracer`.
PlanOutcome ExecutePlan(const QueryPlan& plan, const PreparedPremises& premises,
                        const ProcedureQuery& query, ProcedureContext* ctx);

}  // namespace diffc

#endif  // DIFFC_ENGINE_PLANNER_H_
