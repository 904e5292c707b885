#include "engine/implication_engine.h"

#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "lattice/decomposition.h"
#include "obs/metrics.h"
#include "util/failpoint.h"

namespace diffc {

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// True for the statuses the exhaustion policy applies to; everything else
// (Cancelled, Internal, InvalidArgument, ...) always surfaces as-is.
bool IsExhaustion(const Status& s) {
  return s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kResourceExhausted;
}

// Registry handles of the engine subsystem (`diffc_engine_*` /
// `diffc_deadline_*`), looked up once. The per-procedure latency family
// carries a `procedure` label (its `_count` is the per-procedure query
// count); the array is indexed by `DecisionProcedure`.
struct EngineMetrics {
  static constexpr int kProcedures = 6;

  obs::Histogram* latency_by_proc[kProcedures];
  obs::Counter* implied;
  obs::Counter* not_implied;
  obs::Counter* unknown;
  obs::Counter* failed;
  obs::Counter* cancelled;
  obs::Counter* degraded_deadline;
  obs::Counter* degraded_resource;
  obs::Counter* deadline_exceeded;
  obs::Counter* unbounded_queries;
  obs::Histogram* deadline_slack;
  obs::Histogram* batch_seconds;

  EngineMetrics() {
    obs::Registry& r = obs::Registry::Global();
    for (int p = 0; p < kProcedures; ++p) {
      obs::Labels labels{
          {"procedure", DecisionProcedureName(static_cast<DecisionProcedure>(p))}};
      latency_by_proc[p] = r.GetHistogram(
          "diffc_engine_query_seconds",
          "End-to-end per-query wall time, by concluding decision procedure "
          "(procedure=none: failed before any procedure concluded).",
          obs::ExponentialBuckets(1e-6, 4.0, 14), labels);
    }
    implied = r.GetCounter("diffc_engine_outcomes_total", "Query verdicts.",
                           {{"outcome", "implied"}});
    not_implied = r.GetCounter("diffc_engine_outcomes_total", "Query verdicts.",
                               {{"outcome", "not_implied"}});
    unknown = r.GetCounter("diffc_engine_outcomes_total", "Query verdicts.",
                           {{"outcome", "unknown"}});
    failed = r.GetCounter("diffc_engine_outcomes_total", "Query verdicts.",
                          {{"outcome", "failed"}});
    cancelled = r.GetCounter("diffc_engine_cancelled_total",
                             "Queries that returned Cancelled.");
    degraded_deadline =
        r.GetCounter("diffc_engine_degraded_total",
                     "Queries degraded to kUnknown, by exhausted budget kind.",
                     {{"from", "deadline"}});
    degraded_resource =
        r.GetCounter("diffc_engine_degraded_total",
                     "Queries degraded to kUnknown, by exhausted budget kind.",
                     {{"from", "resource"}});
    deadline_exceeded = r.GetCounter(
        "diffc_deadline_exceeded_total",
        "Queries that hit a wall-clock deadline (surfaced or degraded).");
    unbounded_queries = r.GetCounter(
        "diffc_deadline_unbounded_queries_total",
        "Queries that ran without a finite deadline (no slack sample).");
    deadline_slack = r.GetHistogram(
        "diffc_deadline_slack_seconds",
        "Wall-clock budget remaining at query completion (0 = finished at or "
        "past the deadline); one sample per query run under a finite deadline.",
        obs::ExponentialBuckets(1e-5, 4.0, 12));
    batch_seconds =
        r.GetHistogram("diffc_engine_batch_seconds", "End-to-end CheckBatch wall time.",
                       obs::ExponentialBuckets(1e-5, 4.0, 12));
  }
};

EngineMetrics& Metrics() {
  static EngineMetrics* m = new EngineMetrics();
  return *m;
}

// Flushes one settled query into the registry: latency by procedure, and
// verdict. Called exactly once per query result, wherever it settles
// (normal run, exception guard, or cancelled before it started).
void RecordQueryMetrics(const EngineQueryResult& r) {
  EngineMetrics& m = Metrics();
  const int proc = static_cast<int>(r.stats.procedure);
  if (proc >= 0 && proc < EngineMetrics::kProcedures) {
    m.latency_by_proc[proc]->Observe(r.stats.wall_ns / 1e9);
  }
  if (!r.status.ok()) {
    m.failed->Inc();
    if (r.status.code() == StatusCode::kCancelled) m.cancelled->Inc();
    if (r.status.code() == StatusCode::kDeadlineExceeded) m.deadline_exceeded->Inc();
  } else if (r.outcome.verdict == ImplicationOutcome::kUnknown) {
    m.unknown->Inc();
    if (r.stats.degraded_from == StatusCode::kDeadlineExceeded) {
      m.degraded_deadline->Inc();
      m.deadline_exceeded->Inc();
    } else if (r.stats.degraded_from == StatusCode::kResourceExhausted) {
      m.degraded_resource->Inc();
    }
  } else if (r.outcome.implied) {
    m.implied->Inc();
  } else {
    m.not_implied->Inc();
  }
}

}  // namespace

Status CertifyNotImplied(const PreparedPremises& prepared, const DifferentialConstraint& goal,
                         const ImplicationOutcome& outcome) {
  if (outcome.counterexample.has_value() &&
      InDecomposition(prepared.n(), goal.lhs(), goal.rhs(), *outcome.counterexample) &&
      !InConstraintLattice(prepared.masks(), outcome.counterexample->bits())) {
    return Status::Ok();
  }
  return Status::Internal("not-implied verdict without a valid counterexample U ∈ L(X, Y) ∖ L(C)");
}

const char* DecisionProcedureName(DecisionProcedure p) {
  switch (p) {
    case DecisionProcedure::kNone:
      return "none";
    case DecisionProcedure::kTrivial:
      return "trivial";
    case DecisionProcedure::kFdSubclass:
      return "fd-subclass";
    case DecisionProcedure::kIntervalCover:
      return "interval-cover";
    case DecisionProcedure::kSat:
      return "sat";
    case DecisionProcedure::kExhaustive:
      return "exhaustive";
  }
  return "unknown";
}

std::string BatchStats::ToString() const {
  std::string s;
  s += "queries=" + std::to_string(queries);
  s += " implied=" + std::to_string(implied);
  s += " not_implied=" + std::to_string(not_implied);
  s += " degraded=" + std::to_string(degraded);
  s += " failed=" + std::to_string(failed);
  s += " | timed_out=" + std::to_string(timed_out);
  s += " cancelled=" + std::to_string(cancelled);
  s += " | trivial=" + std::to_string(by_trivial);
  s += " fd=" + std::to_string(by_fd);
  s += " cover=" + std::to_string(by_interval_cover);
  s += " sat=" + std::to_string(by_sat);
  s += " exhaustive=" + std::to_string(by_exhaustive);
  s += " | witness_cache=" + std::to_string(witness_cache_hits) + "h/" +
       std::to_string(witness_cache_misses) + "m";
  s += " premise_cache=" + std::to_string(premise_cache_hits) + "h/" +
       std::to_string(premise_cache_misses) + "m";
  s += " | decisions=" + std::to_string(solver_decisions);
  s += " conflicts=" + std::to_string(solver_conflicts);
  s += " batch_ms=" + std::to_string(batch_wall_ns / 1000000.0);
  return s;
}

ImplicationEngine::ImplicationEngine(EngineOptions options)
    : options_(options), planner_(ProcedureRegistry::Global().Snapshot()) {}

Result<std::shared_ptr<const PreparedPremises>> ImplicationEngine::Prepare(
    int n, PremiseMasks premises) const {
  return GlobalPreparedPremisesCache().Get(n, std::move(premises));
}

Result<std::shared_ptr<const PreparedPremises>> ImplicationEngine::Prepare(
    int n, const ConstraintSet& premises) const {
  return Prepare(n, PremiseMasks::Compile(premises));
}

EngineQueryResult ImplicationEngine::RunQuery(const PreparedPremises& prepared,
                                              const DifferentialConstraint& goal,
                                              const Deadline& batch_deadline,
                                              const CancelToken& cancel,
                                              bool prepared_from_cache) {
  if (DIFFC_FAILPOINT("engine/throw")) {
    throw std::runtime_error("failpoint engine/throw: query task threw");
  }
  // The query's one clock read before it runs: the per-query deadline
  // counts from it too.
  const Deadline::Clock::time_point start = Deadline::Clock::now();
  Deadline deadline = batch_deadline;
  if (options_.per_query_deadline.count() > 0) {
    deadline = Deadline::Earlier(Deadline::At(start + options_.per_query_deadline), deadline);
  }
  StopCheck stop(deadline, cancel, options_.stop_check_stride);
  obs::Tracer tracer(options_.trace);
  EngineQueryResult r;
  r.status = CheckInUniverse(prepared.n(), goal, "goal");
  if (r.status.ok()) {
    obs::SpanGuard attempt_span(&tracer, "attempt");
    const ProcedureQuery query{prepared.n(), &goal};
    const QueryPlan plan = planner_.Plan(prepared, query, options_);
    if (tracer.enabled()) {
      // The chosen plan, as an instantaneous marker span.
      obs::SpanGuard plan_span(&tracer, "plan:" + plan.ToString());
    }
    const ProcedureBudgets budgets{options_.max_solver_decisions, options_.witness_max_results};
    ProcedureContext ctx{&options_, budgets, &stop, &tracer, &r.stats, prepared_from_cache};
    PlanOutcome out = ExecutePlan(plan, prepared, query, &ctx);
    r.status = std::move(out.status);
    r.outcome = out.outcome;
  }
  if (r.status.ok() && r.outcome.verdict == ImplicationOutcome::kNotImplied) {
    if (Status s = CertifyNotImplied(prepared, goal, r.outcome); !s.ok()) {
      r.status = std::move(s);
      r.outcome = ImplicationOutcome();
    }
  }
  if (IsExhaustion(r.status) && options_.exhaustion_policy == ExhaustionPolicy::kDegrade) {
    // Answer OK + kUnknown and keep the partial evidence (stopped_in,
    // counters) in the stats.
    r.stats.degraded_from = r.status.code();
    r.status = Status::Ok();
    r.outcome.SetUnknown();
  }
  const Deadline::Clock::time_point end = Deadline::Clock::now();
  r.stats.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
  // Slack: how much of the wall-clock budget was left when the query
  // settled, read off the same end timestamp. 0 means it finished at (or
  // past) its deadline.
  if (deadline.IsNever()) {
    Metrics().unbounded_queries->Inc();
  } else {
    const double remaining_s = std::chrono::duration<double>(deadline.expiry() - end).count();
    Metrics().deadline_slack->Observe(remaining_s > 0 ? remaining_s : 0.0);
  }
  if (tracer.enabled()) {
    r.trace = std::make_shared<obs::TraceRecord>(tracer.Finish());
  }
  return r;
}

EngineQueryResult ImplicationEngine::GuardedRunQuery(const PreparedPremises& prepared,
                                                     const DifferentialConstraint& goal,
                                                     const Deadline& batch_deadline,
                                                     const CancelToken& cancel,
                                                     bool prepared_from_cache) {
  // A decision procedure that throws must fail its own query, not the
  // batch: an exception leaving `RunBatch` would unwind the caller (a diffcd
  // session) and lose every other goal's answer.
  EngineQueryResult r;
  try {
    r = RunQuery(prepared, goal, batch_deadline, cancel, prepared_from_cache);
  } catch (const std::exception& e) {
    r = EngineQueryResult{};
    r.status = Status::Internal(std::string("uncaught exception in query: ") + e.what());
  } catch (...) {
    r = EngineQueryResult{};
    r.status = Status::Internal("uncaught non-exception throw in query");
  }
  RecordQueryMetrics(r);
  return r;
}

EngineQueryResult ImplicationEngine::CheckOne(int n, const ConstraintSet& premises,
                                              const DifferentialConstraint& goal) {
  bool from_cache = false;
  Result<std::shared_ptr<const PreparedPremises>> prepared =
      GlobalPreparedPremisesCache().Get(n, premises, &from_cache);
  if (!prepared.ok()) {
    EngineQueryResult r;
    r.status = prepared.status();
    return r;
  }
  return GuardedRunQuery(**prepared, goal, OptionsBatchDeadline(), CancelToken(), from_cache);
}

EngineQueryResult ImplicationEngine::CheckOne(
    const std::shared_ptr<const PreparedPremises>& prepared,
    const DifferentialConstraint& goal) {
  if (prepared == nullptr) {
    EngineQueryResult r;
    r.status = Status::InvalidArgument("prepared premises must be non-null");
    return r;
  }
  // An explicitly prepared artifact is amortized by construction; queries
  // report it as a premise-compilation cache hit.
  return GuardedRunQuery(*prepared, goal, OptionsBatchDeadline(), CancelToken(),
                         /*prepared_from_cache=*/true);
}

Result<BatchOutcome> ImplicationEngine::CheckBatch(
    int n, const ConstraintSet& premises, const std::vector<DifferentialConstraint>& goals,
    CancelToken cancel) {
  bool from_cache = false;
  Result<std::shared_ptr<const PreparedPremises>> prepared =
      GlobalPreparedPremisesCache().Get(n, premises, &from_cache);
  if (!prepared.ok()) return prepared.status();
  return RunBatch(**prepared, goals, OptionsBatchDeadline(), cancel, from_cache);
}

Result<BatchOutcome> ImplicationEngine::CheckBatch(
    std::shared_ptr<const PreparedPremises> prepared,
    const std::vector<DifferentialConstraint>& goals, CancelToken cancel) {
  if (prepared == nullptr) {
    return Status::InvalidArgument("prepared premises must be non-null");
  }
  return RunBatch(*prepared, goals, OptionsBatchDeadline(), cancel,
                  /*prepared_from_cache=*/true);
}

Result<BatchOutcome> ImplicationEngine::CheckBatch(
    std::shared_ptr<const PreparedPremises> prepared,
    const std::vector<DifferentialConstraint>& goals, Deadline batch_deadline,
    CancelToken cancel) {
  if (prepared == nullptr) {
    return Status::InvalidArgument("prepared premises must be non-null");
  }
  return RunBatch(*prepared, goals, batch_deadline, cancel, /*prepared_from_cache=*/true);
}

Deadline ImplicationEngine::OptionsBatchDeadline() const {
  return options_.batch_deadline.count() > 0 ? Deadline::After(options_.batch_deadline)
                                             : Deadline::Never();
}

BatchOutcome ImplicationEngine::RunBatch(const PreparedPremises& prepared,
                                         const std::vector<DifferentialConstraint>& goals,
                                         const Deadline& batch_deadline,
                                         const CancelToken& cancel, bool prepared_from_cache) {
  BatchOutcome out;
  out.results.resize(goals.size());
  const std::uint64_t batch_start = NowNs();
  for (std::size_t i = 0; i < goals.size(); ++i) {
    // A fired token settles the remaining goals without running them; the
    // running query observes the same token at its next check-point.
    if (cancel.Cancelled()) {
      out.results[i].status = Status::Cancelled("batch cancelled before query started");
      RecordQueryMetrics(out.results[i]);
    } else {
      out.results[i] =
          GuardedRunQuery(prepared, goals[i], batch_deadline, cancel, prepared_from_cache);
    }
  }

  BatchStats& s = out.stats;
  s.queries = goals.size();
  for (const EngineQueryResult& r : out.results) {
    if (!r.status.ok()) {
      ++s.failed;
      if (r.status.code() == StatusCode::kCancelled) ++s.cancelled;
    } else if (r.outcome.verdict == ImplicationOutcome::kUnknown) {
      ++s.degraded;
    } else if (r.outcome.implied) {
      ++s.implied;
    } else {
      ++s.not_implied;
    }
    if (r.status.code() == StatusCode::kDeadlineExceeded ||
        r.stats.degraded_from == StatusCode::kDeadlineExceeded) {
      ++s.timed_out;
    }
    switch (r.stats.procedure) {
      case DecisionProcedure::kNone:
        break;
      case DecisionProcedure::kTrivial:
        ++s.by_trivial;
        break;
      case DecisionProcedure::kFdSubclass:
        ++s.by_fd;
        break;
      case DecisionProcedure::kIntervalCover:
        ++s.by_interval_cover;
        break;
      case DecisionProcedure::kSat:
        ++s.by_sat;
        break;
      case DecisionProcedure::kExhaustive:
        ++s.by_exhaustive;
        break;
    }
    if (r.stats.witness_cache_used) {
      r.stats.witness_cache_hit ? ++s.witness_cache_hits : ++s.witness_cache_misses;
    }
    if (r.stats.premise_cache_used) {
      r.stats.premise_cache_hit ? ++s.premise_cache_hits : ++s.premise_cache_misses;
    }
    s.solver_decisions += r.stats.solver.decisions;
    s.solver_propagations += r.stats.solver.propagations;
    s.solver_conflicts += r.stats.solver.conflicts;
    s.total_query_ns += r.stats.wall_ns;
  }
  s.batch_wall_ns = NowNs() - batch_start;
  Metrics().batch_seconds->Observe(s.batch_wall_ns / 1e9);
  return out;
}

}  // namespace diffc
