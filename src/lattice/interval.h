#ifndef DIFFC_LATTICE_INTERVAL_H_
#define DIFFC_LATTICE_INTERVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lattice/itemset.h"

namespace diffc {

/// The interval `[X, Z] = {U | X ⊆ U ⊆ Z}` of the subset lattice (paper
/// Section 2.2). An interval with `lo ⊄ hi` is empty.
struct Interval {
  ItemSet lo;
  ItemSet hi;

  /// True iff the interval has no elements.
  bool IsEmpty() const { return !lo.IsSubsetOf(hi); }

  /// Number of elements: 2^(|hi|-|lo|) for nonempty intervals.
  std::uint64_t Size() const {
    if (IsEmpty()) return 0;
    return std::uint64_t{1} << hi.Minus(lo).size();
  }

  /// True iff `u` lies in the interval.
  bool Contains(const ItemSet& u) const { return lo.IsSubsetOf(u) && u.IsSubsetOf(hi); }

  /// All elements, lowest mask first. Requires Size() small enough to
  /// materialize.
  std::vector<ItemSet> Enumerate() const;

  /// Renders "[lo, hi]".
  std::string ToString(const Universe& u) const {
    std::string out(1, '[');
    out += lo.ToString(u);
    out += ", ";
    out += hi.ToString(u);
    out += ']';
    return out;
  }

  friend bool operator==(const Interval& a, const Interval& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

}  // namespace diffc

#endif  // DIFFC_LATTICE_INTERVAL_H_
