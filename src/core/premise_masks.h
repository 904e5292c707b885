#ifndef DIFFC_CORE_PREMISE_MASKS_H_
#define DIFFC_CORE_PREMISE_MASKS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/constraint.h"
#include "util/bitops.h"

namespace diffc {

/// The mask of a family member, whether the family holds masks (an arena's
/// `family(p)`, a witness list) or `ItemSet`s (a `SetFamily`).
inline Mask MemberBits(Mask y) { return y; }
inline Mask MemberBits(const ItemSet& y) { return y.bits(); }

/// A premise set flattened into attribute masks: the one premise
/// representation from the client's REGISTER encoder to verdict. The wire
/// codec writes and reads it (DESIGN.md §11), the rewrite rules edit it in
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
    return SomeMemberSubsetOf(family(p), u);
  }

  /// True iff some member of `family` (masks or `ItemSet`s) is a subset of
  /// `u`.
  template <typename Family>
  static bool SomeMemberSubsetOf(const Family& family, Mask u) {
    for (const auto& y : family) {
      if (IsSubset(MemberBits(y), u)) return true;
    }
    return false;
  }

  /// True iff premise `a` absorbs the constraint `x -> ys`, for an `a` with
  /// a.lhs ⊆ x: every member Y_a of `a` has a member of `ys` (masks or
  /// `ItemSet`s) inside x ∪ Y_a. That is exactly L(x, ys) ⊆ L(a). A U in
  /// L(x, ys) contains x ⊇ a.lhs, and a Y_a ⊆ U would put a member of ys
  /// inside x ∪ Y_a ⊆ U. Conversely, a Y_a with no such member makes
  /// U = x ∪ Y_a a set of L(x, ys) outside L(a). It generalizes Figure 1
  /// augmentation (X -> Y absorbs X∪Z -> Y) and addition (X -> Y absorbs
  /// X -> Y∪{Z}), and covers exact duplicates. `absorb-subsumed` deletes a
  /// premise another one absorbs (DESIGN.md §14); interval cover answers a
  /// goal one premise absorbs (DESIGN.md §10).
  template <typename Family>
  bool Absorbs(const Premise& a, Mask x, const Family& ys) const {
    for (Mask ya : family(a)) {
      if (!SomeMemberSubsetOf(ys, x | ya)) return false;
    }
    return true;
  }
};

}  // namespace diffc

#endif  // DIFFC_CORE_PREMISE_MASKS_H_
