#ifndef DIFFC_ENGINE_ENGINE_OPTIONS_H_
#define DIFFC_ENGINE_ENGINE_OPTIONS_H_

#include <chrono>
#include <cstdint>

#include "prop/dpll.h"
#include "util/deadline.h"
#include "util/status.h"

namespace diffc {

/// The option, enum, and per-query stat types shared by the engine front
/// door (`engine/implication_engine.h`), the decision-procedure units
/// (`engine/procedures/`), and the planner (`engine/planner.h`). Split out
/// of the engine header so procedure implementations depend on these types
/// without pulling in (or cyclically re-entering) the engine itself.

/// What the engine does when a query exhausts a deadline or a solver
/// budget (DeadlineExceeded / ResourceExhausted). Cancellation is never
/// subject to this policy: a fired cancel token always surfaces as a
/// Cancelled status.
enum class ExhaustionPolicy {
  /// Surface the failure as the per-query `Status` (the default; matches
  /// the engine's historical behavior).
  kFail = 0,
  /// Return OK with `ImplicationOutcome::kUnknown`. The query stats keep
  /// the partial evidence: `stopped_in` names the procedure that ran out
  /// and `degraded_from` the status code it ran out with; solver / cache
  /// counters describe the work done before giving up.
  kDegrade,
};

/// Tuning knobs of the batched implication engine.
struct EngineOptions {
  /// Candidate budget for witness-set enumeration on the interval-cover
  /// fast path. Families whose transversal search exceeds it are cached
  /// negatively and handled by SAT; at 0 every search does. A goal one
  /// premise absorbs runs no search, so no budget sends it to SAT.
  std::size_t witness_max_results = 4096;
  /// Node budget of the `sat` procedure's counterexample search per query
  /// (ResourceExhausted beyond it, which arms the exhaustive fallback).
  std::uint64_t max_solver_decisions = 50'000'000;
  /// Free-attribute bound for the exhaustive fallback used when the SAT
  /// budget is exhausted.
  int exhaustive_max_free_bits = 24;
  /// Wall-clock budget per query; zero = unbounded. Checked cooperatively
  /// (amortized every `stop_check_stride` steps) inside every decision
  /// procedure, so a fired deadline surfaces at the next check-point, not
  /// instantly.
  std::chrono::nanoseconds per_query_deadline{0};
  /// Wall-clock budget for a whole `CheckBatch` call; zero = unbounded.
  /// Each query runs under the earlier of this and its own deadline.
  std::chrono::nanoseconds batch_deadline{0};
  /// What to do when a query exhausts a deadline or solver budget.
  ExhaustionPolicy exhaustion_policy = ExhaustionPolicy::kFail;
  /// Steps between cooperative deadline / cancellation checks inside the
  /// solvers and enumerations.
  std::uint32_t stop_check_stride = StopCheck::kDefaultStride;
  /// Records a per-query span tree (`EngineQueryResult::trace`): one
  /// `attempt` span with children for each decision-procedure phase (cache
  /// probe, interval cover, SAT, exhaustive). Latency *histograms* are
  /// aggregated regardless of this flag; the flag only controls the
  /// per-query record.
  bool trace = false;
};

/// Which decision procedure answered a query.
enum class DecisionProcedure {
  kNone = 0,        // Query failed before any procedure concluded.
  kTrivial,         // Goal trivial (Definition 3.1): implied outright.
  kFdSubclass,      // Polynomial closure check (singleton-RHS subclass).
  kIntervalCover,   // Witness-set interval cover was conclusive.
  kSat,             // Prop. 5.4 counterexample search over premise masks.
  kExhaustive,      // Exhaustive lattice containment (SAT-budget fallback).
};

/// Stable name of a `DecisionProcedure` ("fd-subclass", "sat", ...).
const char* DecisionProcedureName(DecisionProcedure p);

/// Per-query execution counters.
struct QueryStats {
  DecisionProcedure procedure = DecisionProcedure::kNone;
  /// The procedure that was running when a deadline / cancellation / budget
  /// stop fired (kNone when the query concluded normally). Under
  /// `ExhaustionPolicy::kDegrade` this is the partial evidence attached to
  /// a kUnknown verdict.
  DecisionProcedure stopped_in = DecisionProcedure::kNone;
  /// Under `ExhaustionPolicy::kDegrade`: the status code (DeadlineExceeded
  /// or ResourceExhausted) the query failed with before the engine converted
  /// it to OK + kUnknown; kOk otherwise.
  StatusCode degraded_from = StatusCode::kOk;
  /// Witness-set cache hit/lookup flags (fast-path queries only).
  bool witness_cache_used = false;
  bool witness_cache_hit = false;
  /// Premise-compilation cache hit/lookup flags (SAT queries only): whether
  /// the prepared artifact whose mask arena the SAT procedure used came
  /// out of the process-wide prepared-premises cache.
  bool premise_cache_used = false;
  bool premise_cache_hit = false;
  /// `sat` search counters: nodes in `decisions`, attributes placed by unit
  /// rules in `propagations`, dead ends in `conflicts` (zero off the SAT
  /// path).
  prop::SolverStats solver;
  /// Wall time of this query, nanoseconds.
  std::uint64_t wall_ns = 0;
};

}  // namespace diffc

#endif  // DIFFC_ENGINE_ENGINE_OPTIONS_H_
