#ifndef DIFFC_ENGINE_IMPLICATION_ENGINE_H_
#define DIFFC_ENGINE_IMPLICATION_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/constraint.h"
#include "core/implication.h"
#include "engine/caches.h"
#include "engine/engine_options.h"
#include "engine/planner.h"
#include "engine/prepared_premises.h"
#include "engine/worker_pool.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/status.h"

namespace diffc {

/// One query's answer: a per-query `Status` (the engine never aborts; every
/// failure is carried here), the outcome when OK, and the counters.
struct EngineQueryResult {
  Status status;
  ImplicationOutcome outcome;
  QueryStats stats;
  /// The query's span tree, present iff `EngineOptions::trace` was on. For
  /// a degraded query the hottest leaf span names the solver phase that
  /// consumed the budget.
  std::shared_ptr<const obs::TraceRecord> trace;
};

/// Aggregate counters of one `CheckBatch` call.
///
/// `implied + not_implied + degraded + failed == queries`; `cancelled` and
/// `timed_out` classify (subsets of) the other buckets, so they are not
/// part of the partition.
struct BatchStats {
  std::size_t queries = 0;
  std::size_t implied = 0;
  std::size_t not_implied = 0;
  std::size_t failed = 0;
  /// Queries whose verdict is kUnknown (OK status under
  /// `ExhaustionPolicy::kDegrade`).
  std::size_t degraded = 0;
  /// Queries that hit a deadline: final status DeadlineExceeded, or
  /// degraded from it.
  std::size_t timed_out = 0;
  /// Queries returned Cancelled (counted in `failed` as well).
  std::size_t cancelled = 0;
  /// Queries answered per procedure.
  std::size_t by_trivial = 0;
  std::size_t by_fd = 0;
  std::size_t by_interval_cover = 0;
  std::size_t by_sat = 0;
  std::size_t by_exhaustive = 0;
  /// Shared-cache traffic from this batch.
  std::size_t witness_cache_hits = 0;
  std::size_t witness_cache_misses = 0;
  std::size_t premise_cache_hits = 0;
  std::size_t premise_cache_misses = 0;
  /// Summed `sat` search counters (nodes in `solver_decisions`).
  std::uint64_t solver_decisions = 0;
  std::uint64_t solver_propagations = 0;
  std::uint64_t solver_conflicts = 0;
  /// Summed per-query wall time and end-to-end batch wall time.
  std::uint64_t total_query_ns = 0;
  std::uint64_t batch_wall_ns = 0;

  /// One-line human-readable rendering, for benchmark tables and logs.
  std::string ToString() const;
};

/// The results of a batch: one entry per goal, index-aligned, plus the
/// aggregate counters.
struct BatchOutcome {
  std::vector<EngineQueryResult> results;
  BatchStats stats;
};

/// Checks the certificate of a not-implied verdict in O(|C|), the checks
/// of core `IsValidCounterexample` over the prepared arena: the
/// counterexample `U` is present, lies in the universe, `U ⊇ X`, no goal
/// member lies inside `U`, and `U ∉ L(C)` for the prepared (canonical)
/// premises, whose `L(C)` is the raw set's.
/// Internal when any check fails. The engine runs it on every kNotImplied
/// answer and returns its failure instead of the verdict.
Status CertifyNotImplied(const PreparedPremises& prepared, const DifferentialConstraint& goal,
                         const ImplicationOutcome& outcome);

/// A batched, multi-threaded front door to the implication checkers, built
/// as a prepare/plan/execute pipeline:
///
///   - **Prepare**: `Prepare(n, premises)` compiles the premise set into
///     an immutable, shared `PreparedPremises` artifact (the canonical
///     premises as one mask arena, FD closure index).
///     Callers answering many queries against one premise set prepare once
///     and pass the artifact to every batch; the unprepared entry points
///     prepare on the caller's behalf through the process-wide
///     `PreparedPremisesCache`.
///   - **Plan**: per query, a `QueryPlanner` filters the procedure table
///     (trivial / FD-subclass closure / witness-set interval cover / SAT /
///     exhaustive fallback, in that order) by applicability and the
///     `EngineOptions` toggles; the plan lands in the query stats and
///     trace.
///   - **Execute**: the plan runs on a fixed-size `std::jthread` worker
///     pool, against the shared witness-set cache.
///
/// Verdicts are identical to `CheckImplication` (every procedure is sound
/// and the dispatch is deterministic per query); only speed depends on
/// cache state and thread count. The engine returns `Status` on every
/// failure path and never aborts the process.
///
/// Thread-safe: concurrent `CheckBatch` calls from different threads are
/// allowed and share the pool.
class ImplicationEngine {
 public:
  explicit ImplicationEngine(EngineOptions options = {});

  ImplicationEngine(const ImplicationEngine&) = delete;
  ImplicationEngine& operator=(const ImplicationEngine&) = delete;

  /// The options the engine was built with (threads already clamped).
  const EngineOptions& options() const { return options_; }

  /// Compiles `premises` into a shared artifact, served from the
  /// process-wide `PreparedPremisesCache`. Returns InvalidArgument for an
  /// out-of-range universe size. The artifact is immutable and may
  /// be used concurrently, across batches, and by other engine instances.
  Result<std::shared_ptr<const PreparedPremises>> Prepare(int n,
                                                          const ConstraintSet& premises) const;

  /// Decides `premises |= goals[i]` for every goal, in parallel. Returns
  /// InvalidArgument for an out-of-range universe size; per-query failures
  /// land in the corresponding `EngineQueryResult::status`, never abort.
  ///
  /// `cancel` is a cooperative batch-wide cancel handle: fire it (from any
  /// thread) and queries not yet started return Cancelled without running,
  /// while running queries stop at their next check-point and return
  /// Cancelled from there. The call still waits for every slot to settle,
  /// so the returned vector is fully populated.
  Result<BatchOutcome> CheckBatch(int n, const ConstraintSet& premises,
                                  const std::vector<DifferentialConstraint>& goals,
                                  CancelToken cancel = CancelToken());

  /// `CheckBatch` against an already-prepared premise set — the
  /// prepare-once / execute-many fast path. `prepared` must be non-null.
  Result<BatchOutcome> CheckBatch(std::shared_ptr<const PreparedPremises> prepared,
                                  const std::vector<DifferentialConstraint>& goals,
                                  CancelToken cancel = CancelToken());

  /// As above, with an explicit per-call batch deadline overriding
  /// `EngineOptions::batch_deadline` — the entry point for callers (the
  /// diffcd service) whose requests each carry their own wall-clock
  /// budget. `Deadline::Never()` means unbounded; per-query deadlines from
  /// the options still compose via `Deadline::Earlier`.
  Result<BatchOutcome> CheckBatch(std::shared_ptr<const PreparedPremises> prepared,
                                  const std::vector<DifferentialConstraint>& goals,
                                  Deadline batch_deadline, CancelToken cancel = CancelToken());

  /// Single-query convenience: the same dispatch, caches, deadlines, and
  /// exhaustion policy, no pool round-trip.
  EngineQueryResult CheckOne(int n, const ConstraintSet& premises,
                             const DifferentialConstraint& goal);

  /// `CheckOne` against an already-prepared premise set.
  EngineQueryResult CheckOne(const std::shared_ptr<const PreparedPremises>& prepared,
                             const DifferentialConstraint& goal);

 private:
  /// One query: plan, execute under the earlier of `batch_deadline` and
  /// the per-query deadline, certify a not-implied answer, then apply the
  /// exhaustion policy. `prepared_from_cache` feeds the premise-cache stat
  /// flags.
  EngineQueryResult RunQuery(const PreparedPremises& prepared,
                             const DifferentialConstraint& goal, const Deadline& batch_deadline,
                             const CancelToken& cancel, bool prepared_from_cache);
  /// `RunQuery` with exceptions converted to an Internal per-query status.
  EngineQueryResult GuardedRunQuery(const PreparedPremises& prepared,
                                    const DifferentialConstraint& goal,
                                    const Deadline& batch_deadline, const CancelToken& cancel,
                                    bool prepared_from_cache);
  /// Shared batch driver for the prepared and unprepared entry points;
  /// `batch_deadline` is the already-resolved wall-clock bound.
  Result<BatchOutcome> RunBatch(std::shared_ptr<const PreparedPremises> prepared,
                                const std::vector<DifferentialConstraint>& goals,
                                Deadline batch_deadline, CancelToken cancel,
                                bool prepared_from_cache);
  /// The batch deadline implied by `EngineOptions::batch_deadline`.
  Deadline OptionsBatchDeadline() const;

  EngineOptions options_;
  QueryPlanner planner_;
  WorkerPool pool_;
};

}  // namespace diffc

#endif  // DIFFC_ENGINE_IMPLICATION_ENGINE_H_
