#ifndef DIFFC_ENGINE_PREPARED_PREMISES_H_
#define DIFFC_ENGINE_PREPARED_PREMISES_H_

#include <cstdint>
#include <memory>

#include "core/constraint.h"
#include "core/implication.h"
#include "core/premise_masks.h"
#include "rewrite/simplifier.h"
#include "util/status.h"

namespace diffc {

/// Per-artifact build counters of a `PreparedPremises` compilation.
struct PrepareStats {
  /// The canonicalizer's counters: the cost triple before and after, the
  /// passes, and the edits per rule.
  rewrite::SimplifyStats rewrite;
  /// Wall time per compilation stage and end-to-end, nanoseconds.
  std::uint64_t canonicalize_ns = 0;
  std::uint64_t fd_index_ns = 0;
  std::uint64_t total_ns = 0;
};

/// An immutable compilation of a premise set, built once per premise
/// set and shared (`shared_ptr`) across queries, batches, and engine
/// instances — the prepare side of the engine's prepare/plan/execute
/// pipeline. Holds:
///
///   - the canonical premises as one mask arena (`PremiseMasks`): the
///     premise arena rewritten in place to a fixpoint by
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
  /// with the rewrite simplifier in place: the artifact keeps the arena it
  /// is given. Every family must be sorted and unique (`PremiseMasks`'
  /// invariant), as `Compile` and the wire decoder leave them. Returns
  /// InvalidArgument for `n` outside [0, 64] or a premise outside the
  /// universe (`CheckInUniverse`); never fails otherwise.
  static Result<std::shared_ptr<const PreparedPremises>> Build(int n, PremiseMasks premises);

  /// `Build` over `PremiseMasks::Compile(premises)`.
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
