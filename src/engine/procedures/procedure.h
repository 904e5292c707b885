#ifndef DIFFC_ENGINE_PROCEDURES_PROCEDURE_H_
#define DIFFC_ENGINE_PROCEDURES_PROCEDURE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/constraint.h"
#include "core/implication.h"
#include "engine/engine_options.h"
#include "engine/prepared_premises.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/status.h"

namespace diffc {

/// One implication query against a prepared premise set.
struct ProcedureQuery {
  int n = 0;
  const DifferentialConstraint* goal = nullptr;
};

/// How a procedure relates to a query, per `DecisionProcedureImpl::CanDecide`.
enum class Applicability {
  /// The procedure cannot run on this (premises, query) pair.
  kNo = 0,
  /// The procedure can run; the planner schedules it in table order.
  kYes,
  /// The procedure can run, but only as a fallback: it sits last in the
  /// table, and the plan runs it only when a prior procedure exhausted a
  /// resource budget (the exhaustive enumerator backing up a
  /// budget-stopped SAT search).
  kFallback,
};

/// Solver budgets of one query.
struct ProcedureBudgets {
  std::uint64_t max_decisions = 0;
  std::size_t witness_max_results = 0;
};

/// Mutable per-query state handed to `Decide`: the engine options and
/// budgets in force, the cooperative stop handle, the tracer (never null;
/// disabled when tracing is off), the query stats the procedure annotates
/// (cache flags, solver counters), and interval cover's handoff to `sat`.
struct ProcedureContext {
  const EngineOptions* options = nullptr;
  ProcedureBudgets budgets;
  StopCheck* stop = nullptr;
  obs::Tracer* tracer = nullptr;
  QueryStats* stats = nullptr;
  /// True iff the prepared artifact came out of the process-wide
  /// prepared-premises cache (for `QueryStats::premise_cache_hit`).
  bool prepared_from_cache = false;
  /// The witness sets W of the intervals [X, S∖W] that no single premise
  /// covers, left by an inconclusive interval cover; `sat` searches only
  /// those. Interval cover empties the list at the top of every `Decide`,
  /// so it is empty (search all of L(X, Y)) after a truncated witness
  /// enumeration, and stays empty when interval cover does not run. It
  /// points into interval cover's per-thread buffer, valid until that
  /// thread's next interval-cover step.
  std::span<const Mask> uncovered_witnesses = {};
};

/// A decision procedure: one strategy for deciding `premises |= goal`,
/// scheduled by the `QueryPlanner`.
///
/// Contract for `Decide`:
///   - a conclusive answer returns OK with verdict kImplied / kNotImplied;
///   - an *inconclusive* pass (the procedure ran but could not settle the
///     query, e.g. an interval cover needing several premises) returns OK
///     with verdict kUnknown — the planner moves to the next procedure;
///   - ResourceExhausted reports a blown budget — the planner records it
///     and continues (enabling `Applicability::kFallback` procedures);
///   - DeadlineExceeded / Cancelled from the stop handle, and any other
///     error, terminate the query with that status.
///
/// Implementations must be stateless (or internally synchronized): one
/// instance serves every engine and thread in the process.
class DecisionProcedureImpl {
 public:
  virtual ~DecisionProcedureImpl() = default;

  /// The enum value this implementation decides for.
  virtual DecisionProcedure id() const = 0;

  /// Stable name; must equal `DecisionProcedureName(id())`.
  virtual const char* name() const = 0;

  /// Whether (and how) the procedure applies to this query.
  virtual Applicability CanDecide(const PreparedPremises& premises,
                                  const ProcedureQuery& query) const = 0;

  /// Runs the procedure (see the class contract above).
  virtual Result<ImplicationOutcome> Decide(const PreparedPremises& premises,
                                            const ProcedureQuery& query,
                                            ProcedureContext* ctx) const = 0;
};

/// The built-in procedures: one stateless singleton per unit under
/// engine/procedures/.
extern const DecisionProcedureImpl& kTrivialProcedure;
extern const DecisionProcedureImpl& kFdSubclassProcedure;
extern const DecisionProcedureImpl& kIntervalCoverProcedure;
extern const DecisionProcedureImpl& kSatProcedure;
extern const DecisionProcedureImpl& kExhaustiveProcedure;

/// The fixed procedure table: every `DecisionProcedure` except `kNone`
/// has exactly one entry (checked by `ProcedureTableTest`).
class ProcedureRegistry {
 public:
  static ProcedureRegistry& Global();

  /// The five built-in procedures, in enum order: trivial, fd-subclass,
  /// interval-cover, sat, exhaustive. The order is the plan: cheapest
  /// certain answer first, the complete search next, the fallback last.
  std::vector<const DecisionProcedureImpl*> Snapshot() const;

 private:
  ProcedureRegistry() = default;
};

}  // namespace diffc

#endif  // DIFFC_ENGINE_PROCEDURES_PROCEDURE_H_
