#include "engine/implication_engine.h"

#include <chrono>
#include <exception>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/counterexample.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/mutex.h"

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

// Sleeps a jittered exponential backoff before escalation attempt
// `attempt` (the one about to run, 2-based), capped by the remaining batch
// deadline. A zero base disables sleeping entirely.
void EscalationBackoff(std::chrono::nanoseconds base, int attempt,
                       const Deadline& batch_deadline) {
  if (base.count() <= 0) return;
  thread_local std::mt19937_64 rng{std::random_device{}()};
  const double jitter = std::uniform_real_distribution<double>(0.5, 1.5)(rng);
  auto wait = std::chrono::nanoseconds(static_cast<std::int64_t>(
      static_cast<double>(base.count()) * static_cast<double>(1 << (attempt - 2)) * jitter));
  if (!batch_deadline.IsNever()) {
    auto remaining = batch_deadline.Remaining();
    if (remaining.count() <= 0) return;
    wait = std::min(wait, std::chrono::duration_cast<std::chrono::nanoseconds>(remaining));
  }
  std::this_thread::sleep_for(wait);
}

// Registry handles of the engine subsystem (`diffc_engine_*` /
// `diffc_deadline_*`), looked up once. Per-procedure families carry a
// `procedure` label; the array is indexed by `DecisionProcedure`.
struct EngineMetrics {
  static constexpr int kProcedures = 6;

  obs::Counter* queries_by_proc[kProcedures];
  obs::Histogram* latency_by_proc[kProcedures];
  obs::Counter* implied;
  obs::Counter* not_implied;
  obs::Counter* unknown;
  obs::Counter* failed;
  obs::Counter* cancelled;
  obs::Counter* escalations;
  obs::Counter* degraded_deadline;
  obs::Counter* degraded_resource;
  obs::Counter* deadline_exceeded;
  obs::Counter* unbounded_queries;
  obs::Histogram* deadline_slack;
  obs::Counter* batches;
  obs::Histogram* batch_seconds;

  EngineMetrics() {
    obs::Registry& r = obs::Registry::Global();
    for (int p = 0; p < kProcedures; ++p) {
      obs::Labels labels{
          {"procedure", DecisionProcedureName(static_cast<DecisionProcedure>(p))}};
      queries_by_proc[p] =
          r.GetCounter("diffc_engine_queries_total",
                       "Queries answered, by concluding decision procedure "
                       "(procedure=none: failed before any procedure concluded).",
                       labels);
      latency_by_proc[p] = r.GetHistogram(
          "diffc_engine_query_seconds",
          "End-to-end per-query wall time across attempts, by procedure.",
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
    escalations = r.GetCounter("diffc_engine_escalations_total",
                               "Escalation retries run (attempts beyond the first).");
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
    batches = r.GetCounter("diffc_engine_batches_total", "CheckBatch calls.");
    batch_seconds =
        r.GetHistogram("diffc_engine_batch_seconds", "End-to-end CheckBatch wall time.",
                       obs::ExponentialBuckets(1e-5, 4.0, 12));
  }
};

EngineMetrics& Metrics() {
  static EngineMetrics* m = new EngineMetrics();
  return *m;
}

// Flushes one settled query into the registry: procedure mix, verdict, and
// latency. Called exactly once per query result, wherever it settles
// (normal run, exception guard, or queue drain).
void RecordQueryMetrics(const EngineQueryResult& r) {
  if (!obs::MetricsEnabled()) return;
  EngineMetrics& m = Metrics();
  const int proc = static_cast<int>(r.stats.procedure);
  if (proc >= 0 && proc < EngineMetrics::kProcedures) {
    m.queries_by_proc[proc]->Inc();
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
      IsValidCounterexample(prepared.n(), prepared.constraints(), goal,
                            *outcome.counterexample)) {
    return Status::Ok();
  }
  return Status::Internal("not-implied verdict without a valid counterexample U ∈ L(X, Y) ∖ L(C)");
}

const char* ExhaustionPolicyName(ExhaustionPolicy p) {
  switch (p) {
    case ExhaustionPolicy::kFail:
      return "fail";
    case ExhaustionPolicy::kDegrade:
      return "degrade";
    case ExhaustionPolicy::kEscalate:
      return "escalate";
  }
  return "unknown";
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
  s += " escalations=" + std::to_string(escalations);
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
    : options_(options),
      planner_(ProcedureRegistry::Global().Snapshot()),
      pool_(options.num_threads < 1 ? 1 : options.num_threads) {
  options_.num_threads = pool_.size();
}

Result<std::shared_ptr<const PreparedPremises>> ImplicationEngine::Prepare(
    int n, const ConstraintSet& premises) const {
  return PrepareOrFetch(n, premises, /*from_cache=*/nullptr);
}

Result<std::shared_ptr<const PreparedPremises>> ImplicationEngine::PrepareOrFetch(
    int n, const ConstraintSet& premises, bool* from_cache) const {
  if (options_.use_prepared_cache) {
    return GlobalPreparedPremisesCache().Get(n, premises, from_cache);
  }
  if (from_cache != nullptr) *from_cache = false;
  return PreparedPremises::Build(n, premises);
}

EngineQueryResult ImplicationEngine::RunQueryOnce(const PreparedPremises& prepared,
                                                  const DifferentialConstraint& goal,
                                                  StopCheck* stop,
                                                  const ProcedureBudgets& budgets,
                                                  obs::Tracer* tracer,
                                                  bool prepared_from_cache) {
  EngineQueryResult r;
  const std::uint64_t start = NowNs();

  const ProcedureQuery query{prepared.n(), &goal};
  QueryPlan plan = planner_.Plan(prepared, query, options_);
  if (tracer->enabled()) {
    // The chosen plan, as an instantaneous marker span and an event-log
    // record (both gated on tracing: plans repeat per query and would
    // drown the global event ring in large batches).
    const std::string label = "plan:" + plan.ToString();
    obs::SpanGuard plan_span(tracer, label);
    obs::GlobalEventLog().Record("query_plan", {{"plan", plan.ToString()}});
  }

  ProcedureContext ctx;
  ctx.options = &options_;
  ctx.budgets = budgets;
  ctx.stop = stop;
  ctx.tracer = tracer;
  ctx.stats = &r.stats;
  ctx.prepared_from_cache = prepared_from_cache;
  PlanOutcome out = ExecutePlan(plan, prepared, query, &ctx);
  r.status = std::move(out.status);
  r.outcome = out.outcome;
  r.stats.wall_ns = NowNs() - start;
  return r;
}

EngineQueryResult ImplicationEngine::RunQuery(const PreparedPremises& prepared,
                                              const DifferentialConstraint& goal,
                                              const Deadline& batch_deadline,
                                              const CancelToken& cancel,
                                              bool prepared_from_cache) {
  if (DIFFC_FAILPOINT("engine/throw")) {
    throw std::runtime_error("failpoint engine/throw: query task threw");
  }
  ProcedureBudgets budgets{options_.max_solver_decisions, options_.witness_max_results};
  const std::uint64_t start = NowNs();
  obs::Tracer tracer(options_.trace);
  EngineQueryResult r;
  int attempt = 1;
  // The deadline of the attempt that settled the query, for the slack
  // histogram below.
  Deadline deadline = batch_deadline;
  while (true) {
    // Each attempt gets a fresh per-query deadline; the batch deadline is
    // absolute and shared by every attempt.
    deadline = batch_deadline;
    if (options_.per_query_deadline.count() > 0) {
      deadline = Deadline::Earlier(Deadline::After(options_.per_query_deadline), deadline);
    }
    StopCheck stop(deadline, cancel, options_.stop_check_stride);
    {
      obs::SpanGuard attempt_span(&tracer,
                                  attempt == 1 ? "attempt" : "attempt-retry");
      r = RunQueryOnce(prepared, goal, &stop, budgets, &tracer, prepared_from_cache);
    }
    if (r.status.ok() && r.outcome.verdict == ImplicationOutcome::kNotImplied) {
      if (Status s = CertifyNotImplied(prepared, goal, r.outcome); !s.ok()) {
        r.status = std::move(s);
        r.outcome = ImplicationOutcome();
      }
    }
    r.stats.attempts = attempt;
    if (r.status.ok() || !IsExhaustion(r.status)) break;

    if (options_.exhaustion_policy == ExhaustionPolicy::kFail) break;
    if (options_.exhaustion_policy == ExhaustionPolicy::kEscalate &&
        attempt <= options_.max_retries) {
      budgets.max_decisions *= 2;
      budgets.witness_max_results *= 2;
      ++attempt;
      if (obs::MetricsEnabled()) Metrics().escalations->Inc();
      obs::GlobalEventLog().Record(
          "escalate", {{"attempt", std::to_string(attempt)},
                       {"stopped_in", DecisionProcedureName(r.stats.stopped_in)},
                       {"from", StatusCodeName(r.status.code())}});
      obs::SpanGuard backoff_span(&tracer, "escalate-backoff");
      EscalationBackoff(options_.escalate_backoff, attempt, batch_deadline);
      continue;
    }
    // kDegrade, or escalation retries exhausted: answer OK + kUnknown and
    // keep the partial evidence (stopped_in, counters) in the stats.
    r.stats.degraded_from = r.status.code();
    obs::GlobalEventLog().Record(
        "degrade", {{"stopped_in", DecisionProcedureName(r.stats.stopped_in)},
                    {"from", StatusCodeName(r.status.code())},
                    {"attempts", std::to_string(attempt)}});
    r.status = Status::Ok();
    r.outcome.SetUnknown();
    break;
  }
  r.stats.wall_ns = NowNs() - start;
  if (r.status.code() == StatusCode::kDeadlineExceeded ||
      r.stats.degraded_from == StatusCode::kDeadlineExceeded) {
    obs::GlobalEventLog().Record(
        "deadline_exceeded",
        {{"stopped_in", DecisionProcedureName(r.stats.stopped_in)},
         {"surfaced", r.status.ok() ? "degraded" : "status"}});
  }
  if (obs::MetricsEnabled()) {
    // Slack: how much of the wall-clock budget was left when the query
    // settled. 0 means it finished at (or past) its deadline.
    if (deadline.IsNever()) {
      Metrics().unbounded_queries->Inc();
    } else {
      const double remaining_s =
          std::chrono::duration<double>(deadline.Remaining()).count();
      Metrics().deadline_slack->Observe(remaining_s > 0 ? remaining_s : 0.0);
    }
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
  // process: the pool's loop-level catch would keep the worker alive but
  // lose the error.
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
      PrepareOrFetch(n, premises, &from_cache);
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
      PrepareOrFetch(n, premises, &from_cache);
  if (!prepared.ok()) return prepared.status();
  return RunBatch(*std::move(prepared), goals, OptionsBatchDeadline(), std::move(cancel),
                  from_cache);
}

Result<BatchOutcome> ImplicationEngine::CheckBatch(
    std::shared_ptr<const PreparedPremises> prepared,
    const std::vector<DifferentialConstraint>& goals, CancelToken cancel) {
  if (prepared == nullptr) {
    return Status::InvalidArgument("prepared premises must be non-null");
  }
  return RunBatch(std::move(prepared), goals, OptionsBatchDeadline(), std::move(cancel),
                  /*prepared_from_cache=*/true);
}

Result<BatchOutcome> ImplicationEngine::CheckBatch(
    std::shared_ptr<const PreparedPremises> prepared,
    const std::vector<DifferentialConstraint>& goals, Deadline batch_deadline,
    CancelToken cancel) {
  if (prepared == nullptr) {
    return Status::InvalidArgument("prepared premises must be non-null");
  }
  return RunBatch(std::move(prepared), goals, batch_deadline, std::move(cancel),
                  /*prepared_from_cache=*/true);
}

Deadline ImplicationEngine::OptionsBatchDeadline() const {
  return options_.batch_deadline.count() > 0 ? Deadline::After(options_.batch_deadline)
                                             : Deadline::Never();
}

Result<BatchOutcome> ImplicationEngine::RunBatch(
    std::shared_ptr<const PreparedPremises> prepared,
    const std::vector<DifferentialConstraint>& goals, Deadline batch_deadline,
    CancelToken cancel, bool prepared_from_cache) {
  BatchOutcome out;
  out.results.resize(goals.size());
  const std::uint64_t batch_start = NowNs();

  if (!goals.empty()) {
    // Countdown latch: workers fill disjoint slots of the pre-sized result
    // vector, the submitter blocks until the last query lands.
    Mutex done_mu;
    CondVarAny done_cv;
    std::size_t remaining = goals.size();

    for (std::size_t i = 0; i < goals.size(); ++i) {
      pool_.Submit([this, i, &prepared, &goals, &out, &done_mu, &done_cv, &remaining,
                    &batch_deadline, cancel, prepared_from_cache] {
        // A fired token drains still-queued queries without running them;
        // queries already inside a solver observe the same token at their
        // next check-point.
        if (cancel.Cancelled()) {
          out.results[i].status = Status::Cancelled("batch cancelled before query started");
          RecordQueryMetrics(out.results[i]);
        } else {
          out.results[i] = GuardedRunQuery(*prepared, goals[i], batch_deadline, cancel,
                                           prepared_from_cache);
        }
        MutexLock lock(&done_mu);
        if (--remaining == 0) done_cv.NotifyOne();
      });
    }

    MutexLock lock(&done_mu);
    done_cv.Wait(done_mu, [&] { return remaining == 0; });
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
    s.escalations += static_cast<std::size_t>(r.stats.attempts > 1 ? r.stats.attempts - 1 : 0);
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
  if (obs::MetricsEnabled()) {
    Metrics().batches->Inc();
    Metrics().batch_seconds->Observe(s.batch_wall_ns / 1e9);
  }
  return out;
}

}  // namespace diffc
