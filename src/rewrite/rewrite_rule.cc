#include "rewrite/rewrite_rule.h"

#include <algorithm>

namespace diffc {
namespace rewrite {

RewriteCost RewriteCost::Of(const PremiseMasks& c) {
  RewriteCost cost;
  cost.constraints = c.size();
  for (const PremiseMasks::Premise& p : c.premises) {
    cost.members += p.size();
    for (Mask y : c.family(p)) cost.member_items += static_cast<std::size_t>(Popcount(y));
  }
  return cost;
}

RewriteArena::RewriteArena(PremiseMasks* masks) : masks_(masks) {
  for (PremiseMasks::Premise& p : masks_->premises) p.tick = 0;
}

void RewriteArena::BeginRule(std::uint64_t* last_start) {
  since_ = *last_start;
  now_ = ++tick_;
  *last_start = now_;
  Charge(masks_->size());
}

bool RewriteArena::ChargeSquare(std::uint64_t k) {
  // Past the remaining budget k * k cannot fit either, and might overflow.
  return Charge(k > remaining_ ? ~std::uint64_t{0} : k * k);
}

namespace {

// Lexicographic order of two families of `m`.
bool FamilyLess(const PremiseMasks& m, const PremiseMasks::Premise& a,
                const PremiseMasks::Premise& b) {
  const std::span<const Mask> fa = m.family(a);
  const std::span<const Mask> fb = m.family(b);
  return std::lexicographical_compare(fa.begin(), fa.end(), fb.begin(), fb.end());
}

}  // namespace

void RewriteArena::Sort() {
  const PremiseMasks& m = *masks_;
  std::sort(masks_->premises.begin(), masks_->premises.end(),
            [&m](const PremiseMasks::Premise& a, const PremiseMasks::Premise& b) {
              return a.lhs != b.lhs ? a.lhs < b.lhs : FamilyLess(m, a, b);
            });
  runs_sorted_ = true;
}

void RewriteArena::SortRuns() {
  if (runs_sorted_) return;
  runs_sorted_ = true;
  std::vector<PremiseMasks::Premise>& ps = masks_->premises;
  const PremiseMasks& m = *masks_;
  auto less = [&m](const PremiseMasks::Premise& a, const PremiseMasks::Premise& b) {
    return FamilyLess(m, a, b);
  };
  for (std::size_t begin = 0; begin < ps.size();) {
    std::size_t end = begin + 1;
    while (end < ps.size() && ps[end].lhs == ps[begin].lhs) ++end;
    if (end - begin > 1 && !std::is_sorted(ps.begin() + begin, ps.begin() + end, less)) {
      std::sort(ps.begin() + begin, ps.begin() + end, less);
    }
    begin = end;
  }
}

RuleProbe Probe(const RewriteRule& rule, int n, const ConstraintSet& c) {
  (void)n;  // No rule reads the universe size.
  PremiseMasks masks = PremiseMasks::Compile(c);
  RuleProbe probe;
  probe.before = RewriteCost::Of(masks);
  // The rules need the arena sorted by lhs; a stable sort keeps the order
  // of `c` within each run, as the driver's rule sequence does.
  std::stable_sort(masks.premises.begin(), masks.premises.end(),
                   [](const PremiseMasks::Premise& a, const PremiseMasks::Premise& b) {
                     return a.lhs < b.lhs;
                   });
  RewriteArena arena(&masks);
  std::uint64_t last_start = 0;
  arena.BeginRule(&last_start);
  probe.edits = rule.Apply(&arena);
  probe.after = RewriteCost::Of(masks);
  probe.result = masks.Materialize();
  return probe;
}

}  // namespace rewrite
}  // namespace diffc
