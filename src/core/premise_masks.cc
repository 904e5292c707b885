#include "core/premise_masks.h"

#include <utility>

namespace diffc {

PremiseMasks PremiseMasks::Compile(const ConstraintSet& premises) {
  PremiseMasks out;
  out.premises.reserve(premises.size());
  std::size_t members = 0;
  for (const DifferentialConstraint& c : premises) members += c.rhs().members().size();
  out.members.reserve(members);
  for (const DifferentialConstraint& c : premises) {
    Premise p;
    p.lhs = c.lhs().bits();
    p.begin = static_cast<std::uint32_t>(out.members.size());
    for (const ItemSet& member : c.rhs().members()) out.members.push_back(member.bits());
    p.end = static_cast<std::uint32_t>(out.members.size());
    out.premises.push_back(p);
  }
  return out;
}

ConstraintSet PremiseMasks::Materialize() const {
  ConstraintSet out;
  out.reserve(premises.size());
  for (const Premise& p : premises) {
    std::vector<ItemSet> family;
    family.reserve(p.size());
    for (Mask y : this->family(p)) family.push_back(ItemSet(y));
    out.push_back(DifferentialConstraint(ItemSet(p.lhs), SetFamily(std::move(family))));
  }
  return out;
}

void PremiseMasks::Compact() {
  std::vector<Mask> pool;
  pool.reserve(members.size());
  for (Premise& p : premises) {
    const auto begin = static_cast<std::uint32_t>(pool.size());
    pool.insert(pool.end(), members.begin() + p.begin, members.begin() + p.end);
    p.begin = begin;
    p.end = static_cast<std::uint32_t>(pool.size());
  }
  members = std::move(pool);
}

}  // namespace diffc
