#ifndef DIFFC_LATTICE_SET_FAMILY_H_
#define DIFFC_LATTICE_SET_FAMILY_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "lattice/itemset.h"
#include "lattice/universe.h"

namespace diffc {

/// A finite set of subsets of the universe — the `Y` of a differential
/// constraint `X -> Y` (Definition 3.1) and the argument of witness sets and
/// lattice decompositions (Definitions 2.5, 2.6).
///
/// Members are kept sorted and deduplicated, so two families with equal
/// member sets compare equal.
class SetFamily {
 public:
  /// The empty family (note: distinct from the family {∅}).
  SetFamily() = default;
  /// A family with the given members (duplicates collapse).
  explicit SetFamily(std::vector<ItemSet> members);
  /// A family of raw masks.
  static SetFamily FromMasks(const std::vector<Mask>& masks);
  /// The family of singletons {{u} | u ∈ set} — the paper's overline
  /// notation `set̄`.
  static SetFamily Singletons(ItemSet set);

  /// Number of members.
  int size() const { return static_cast<int>(members_.size()); }
  /// True iff there are no members.
  bool empty() const { return members_.empty(); }
  /// The members in sorted order. On a temporary family they are returned
  /// by value, so `for (const ItemSet& m : f.Minimized().members())` cannot
  /// dangle.
  const std::vector<ItemSet>& members() const& { return members_; }
  std::vector<ItemSet> members() && { return std::move(members_); }
  /// Member `i` (by value on a temporary family, as above).
  const ItemSet& member(int i) const& { return members_[i]; }
  ItemSet member(int i) && { return members_[i]; }

  /// True iff `s` is a member (not a subset-of-member).
  bool HasMember(const ItemSet& s) const;
  /// True iff the empty set is a member.
  bool HasEmptyMember() const { return !members_.empty() && members_[0].empty(); }
  /// True iff some member is a subset of `u` — the condition that excludes
  /// `u` from a lattice decomposition (proof of Proposition 2.9).
  bool SomeMemberSubsetOf(const ItemSet& u) const;

  /// The union of all members, `∪Y`.
  ItemSet UnionOfMembers() const;

  /// The family with `s` added.
  SetFamily WithMember(const ItemSet& s) const;
  /// The family with `s` removed (no-op when absent).
  SetFamily WithoutMember(const ItemSet& s) const;
  /// The family {Y ∩ mask | Y ∈ this}.
  SetFamily IntersectMembersWith(const ItemSet& mask) const;

  /// The ⊆-minimal members. Lattice decompositions, witness-set existence
  /// and constraint satisfaction depend on the family only through this
  /// antichain.
  SetFamily Minimized() const;

  /// Renders "{M1, M2, ...}" using the universe's names.
  std::string ToString(const Universe& u) const;

  /// A hash of the member masks, suitable for unordered containers (the
  /// implication engine keys its witness-set cache on the right-hand
  /// family). Equal families hash equal because members are sorted and
  /// deduplicated.
  std::size_t Hash() const;

  friend bool operator==(const SetFamily& a, const SetFamily& b) {
    return a.members_ == b.members_;
  }
  friend bool operator!=(const SetFamily& a, const SetFamily& b) { return !(a == b); }
  friend bool operator<(const SetFamily& a, const SetFamily& b) {
    return a.members_ < b.members_;
  }

 private:
  std::vector<ItemSet> members_;
};

}  // namespace diffc

#endif  // DIFFC_LATTICE_SET_FAMILY_H_
