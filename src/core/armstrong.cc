#include "core/armstrong.h"

#include "core/implication.h"
#include "lattice/decomposition.h"

namespace diffc {

Result<SetFunction<std::int64_t>> ArmstrongFunction(int n, const ConstraintSet& c) {
  Result<SetFunction<std::int64_t>> density = SetFunction<std::int64_t>::Make(n);
  if (!density.ok()) return density.status();
  for (Mask m = 0; m < density->size(); ++m) {
    if (!InConstraintLattice(c, ItemSet(m))) density->at(m) = 1;
  }
  return FromDensity(*density);
}

Result<BasketList> ArmstrongBaskets(int n, const ConstraintSet& c, int max_bits) {
  if (n > max_bits) {
    return Status::ResourceExhausted("Armstrong basket list over " + std::to_string(n) +
                                     " items");
  }
  std::vector<Mask> baskets;
  const Mask full = FullMask(n);
  for (Mask m = 0;; ++m) {
    if (!InConstraintLattice(c, ItemSet(m))) baskets.push_back(m);
    if (m == full) break;
  }
  return BasketList::Make(n, std::move(baskets));
}

bool IsArmstrongFunction(const SetFunction<std::int64_t>& f, const ConstraintSet& c) {
  SetFunction<std::int64_t> density = Density(f);
  for (Mask m = 0; m < f.size(); ++m) {
    const bool in_lattice = InConstraintLattice(c, ItemSet(m));
    if (in_lattice && density.at(m) != 0) return false;
    if (!in_lattice && density.at(m) == 0) return false;
  }
  return true;
}

}  // namespace diffc
