#include "engine/planner.h"

#include <utility>

namespace diffc {

namespace {

// True iff `s` came from a fired StopCheck (as opposed to a solver budget
// or any other per-step failure).
bool IsStopStatus(const Status& s) {
  return s.code() == StatusCode::kDeadlineExceeded || s.code() == StatusCode::kCancelled;
}

}  // namespace

std::string QueryPlan::ToString() const {
  std::string out;
  for (const Step& step : steps) {
    if (!out.empty()) out += "+";
    out += step.procedure->name();
  }
  return out;
}

QueryPlanner::QueryPlanner(std::vector<const DecisionProcedureImpl*> procedures)
    : procedures_(std::move(procedures)) {}

QueryPlan QueryPlanner::Plan(const PreparedPremises& premises, const ProcedureQuery& query,
                             const EngineOptions& /*options*/) const {
  QueryPlan plan;
  plan.steps.reserve(procedures_.size());
  for (const DecisionProcedureImpl* procedure : procedures_) {
    const Applicability applicability = procedure->CanDecide(premises, query);
    if (applicability == Applicability::kNo) continue;
    plan.steps.push_back({procedure, applicability});
  }
  return plan;
}

PlanOutcome ExecutePlan(const QueryPlan& plan, const PreparedPremises& premises,
                        const ProcedureQuery& query, ProcedureContext* ctx) {
  PlanOutcome out;
  bool sampled_deadline = false;
  bool have_pending = false;
  Status pending;
  DecisionProcedure pending_proc = DecisionProcedure::kNone;
  for (const QueryPlan::Step& step : plan.steps) {
    const bool is_fallback = step.applicability == Applicability::kFallback;
    // Fallbacks exist to rescue a blown budget; without one they are
    // skipped entirely (the complete primaries already had their say).
    if (is_fallback && !have_pending) continue;
    if (!sampled_deadline && step.procedure->id() != DecisionProcedure::kTrivial) {
      // Fail fast on a deadline that expired before this query started
      // (the degrade path of an over-budget batch) — but only past the
      // trivial step, so an O(1) certain answer still wins.
      sampled_deadline = true;
      if (Status s = ctx->stop->CheckNow(); !s.ok()) {
        out.status = std::move(s);
        return out;
      }
    }
    obs::SpanGuard span(ctx->tracer, step.procedure->name());
    Result<ImplicationOutcome> r = step.procedure->Decide(premises, query, ctx);
    if (r.ok()) {
      if (r->verdict == ImplicationOutcome::kUnknown) continue;  // Inconclusive.
      out.outcome = *r;
      ctx->stats->procedure = step.procedure->id();
      return out;
    }
    if (IsStopStatus(r.status())) {
      out.status = r.status();
      ctx->stats->stopped_in = step.procedure->id();
      return out;
    }
    if (is_fallback) continue;  // The pending primary status stays authoritative.
    if (r.status().code() == StatusCode::kResourceExhausted) {
      pending = r.status();
      pending_proc = step.procedure->id();
      have_pending = true;
      continue;
    }
    out.status = r.status();  // Hard error (Internal, FailedPrecondition, ...).
    return out;
  }
  if (have_pending) {
    out.status = std::move(pending);
    ctx->stats->stopped_in = pending_proc;
    return out;
  }
  out.status = Status::Internal("no decision procedure settled the query");
  return out;
}

}  // namespace diffc
