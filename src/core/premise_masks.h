#ifndef DIFFC_CORE_PREMISE_MASKS_H_
#define DIFFC_CORE_PREMISE_MASKS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/constraint.h"
#include "util/bitops.h"

namespace diffc {

/// A premise set flattened into attribute masks: the one premise
/// representation from REGISTER to verdict. The rewrite rules edit it in
/// place (DESIGN.md §14), `PreparedPremises` stores it, and the engine's
/// deciders and certificate read it (DESIGN.md §10).
///
/// Premise `p` is `premises[p].lhs -> {members[begin], ..., members[end - 1]}`.
/// Every family keeps `SetFamily`'s invariant: sorted and unique. The
/// families of a compiled or compacted arena lie in premise order, back to
/// back; a rewrite may leave unreferenced members in the pool until
/// `Compact`.
struct PremiseMasks {
  struct Premise {
    Mask lhs = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    /// The rewriter's change stamp (`rewrite::RewriteArena`); nothing
    /// else reads it.
    std::uint64_t tick = 0;

    /// Number of members.
    std::size_t size() const { return end - begin; }
  };

  std::vector<Premise> premises;
  std::vector<Mask> members;

  /// Flattens `premises`, keeping their order.
  static PremiseMasks Compile(const ConstraintSet& premises);

  /// The arena as a `ConstraintSet`, in premise order. For the callers
  /// whose API takes or returns one; the engine's own paths read masks.
  ConstraintSet Materialize() const;

  /// Rewrites the pool so the families lie in premise order with no gaps.
  void Compact();

  /// Number of premises.
  std::size_t size() const { return premises.size(); }

  /// The members of premise `p`.
  std::span<const Mask> family(const Premise& p) const {
    return {members.data() + p.begin, p.size()};
  }

  /// True iff some member of `p` is a subset of `u`.
  bool SomeMemberSubsetOf(const Premise& p, Mask u) const {
    for (Mask y : family(p)) {
      if (IsSubset(y, u)) return true;
    }
    return false;
  }
};

}  // namespace diffc

#endif  // DIFFC_CORE_PREMISE_MASKS_H_
