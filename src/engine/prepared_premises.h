#ifndef DIFFC_ENGINE_PREPARED_PREMISES_H_
#define DIFFC_ENGINE_PREPARED_PREMISES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/constraint.h"
#include "core/implication.h"
#include "core/premise_masks.h"
#include "util/status.h"

namespace diffc {

/// Per-artifact build counters of a `PreparedPremises` compilation.
struct PrepareStats {
  /// Constraints in the input set / surviving canonicalization.
  std::size_t input_constraints = 0;
  std::size_t canonical_constraints = 0;
  /// Trivial premises dropped (`L(X, Y) = ∅` constrains nothing): the
  /// `drop-trivial` edit count.
  std::size_t dropped_trivial = 0;
  /// Constraints dropped by `absorb-subsumed`, which subsumes exact
  /// duplicates (DESIGN.md §14).
  std::size_t dropped_duplicates = 0;
  /// Right-hand members removed by `minimize-rhs`.
  std::size_t minimized_members = 0;
  /// Constraints removed by `merge-same-lhs`.
  std::size_t merged_constraints = 0;
  /// Member items removed by `narrow-members`.
  std::size_t narrowed_items = 0;
  /// Rewriter fixpoint passes / total rule edits.
  std::size_t rewrite_passes = 0;
  std::size_t rewrite_applied = 0;
  /// False when the rewriter's step budget ran out before a fixpoint: the
  /// canonical set is then partly rewritten, with `L(C)` still exact.
  bool rewrite_reached_fixpoint = false;
  /// Steps the rewriter charged against `rewrite::kSimplifyStepBudget`.
  std::uint64_t rewrite_steps = 0;
  /// The simplifier cost triple — (constraints, witness-family members,
  /// total member sizes) — before and after canonicalization.
  std::size_t cost_constraints_before = 0;
  std::size_t cost_members_before = 0;
  std::size_t cost_items_before = 0;
  std::size_t cost_constraints_after = 0;
  std::size_t cost_members_after = 0;
  std::size_t cost_items_after = 0;
  /// (rule name, edit count) per rule the rewriter ran, in application
  /// order.
  std::vector<std::pair<std::string, std::size_t>> rewrite_rule_applied;
  /// True iff the canonical set is in the polynomial FD subclass.
  bool fd_eligible = false;
  /// Wall time per compilation stage and end-to-end, nanoseconds.
  std::uint64_t canonicalize_ns = 0;
  std::uint64_t fd_index_ns = 0;
  std::uint64_t total_ns = 0;
};

/// An immutable compilation of a `ConstraintSet`, built once per premise
/// set and shared (`shared_ptr`) across queries, batches, and engine
/// instances — the prepare side of the engine's prepare/plan/execute
/// pipeline. Holds:
///
///   - the canonical premises as one mask arena (`PremiseMasks`): the
///     premise set flattened and rewritten in place to a fixpoint by
///     `rewrite::SimplifyInPlace` (DESIGN.md §14), whose every rule
///     preserves `L(C)` exactly. Interval cover, the `sat` search, the
///     not-implied certificate and the server read it;
///   - the FD-subclass closure index (`FdPremiseIndex`), when eligible;
///   - the per-stage build stats.
///
/// Canonicalization never changes the closure lattice `L(C)`, so verdicts
/// and counterexamples computed against the artifact are valid against the
/// original set. Thread-safe by immutability: every accessor is a const
/// read of state fixed at `Build` time.
class PreparedPremises {
 public:
  /// Compiles `premises` over an `n`-attribute universe, canonicalizing
  /// with the rewrite simplifier under default `rewrite::SimplifyOptions`.
  /// Returns InvalidArgument for `n` outside [0, 64]; never fails otherwise.
  static Result<std::shared_ptr<const PreparedPremises>> Build(int n,
                                                               const ConstraintSet& premises);

  /// The universe size the artifact was compiled for.
  int n() const { return n_; }

  /// A process-unique identity, assigned at build time — the cache /
  /// trace key for "same compilation", cheaper and stricter than
  /// re-comparing constraint sets.
  std::uint64_t id() const { return id_; }

  /// The canonical premises (see class comment for the invariants);
  /// `masks().Materialize()` gives them as a `ConstraintSet`.
  const PremiseMasks& masks() const { return masks_; }

  /// The FD view of the canonical set (`eligible` false when some premise
  /// has a non-singleton right-hand family).
  const FdPremiseIndex& fd_index() const { return fd_index_; }

  /// The build counters.
  const PrepareStats& stats() const { return stats_; }

 private:
  PreparedPremises() = default;

  int n_ = 0;
  std::uint64_t id_ = 0;
  PremiseMasks masks_;
  FdPremiseIndex fd_index_;
  PrepareStats stats_;
};

}  // namespace diffc

#endif  // DIFFC_ENGINE_PREPARED_PREMISES_H_
