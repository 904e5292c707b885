#include "rewrite/rewrite_rule.h"

namespace diffc {
namespace rewrite {

RewriteCost RewriteCost::Of(const ConstraintSet& c) {
  RewriteCost cost;
  cost.constraints = c.size();
  for (const DifferentialConstraint& dc : c) {
    cost.members += static_cast<std::size_t>(dc.rhs().size());
    for (const ItemSet& y : dc.rhs().members()) {
      cost.member_items += static_cast<std::size_t>(y.size());
    }
  }
  return cost;
}

bool RewriteRule::Matches(int n, const ConstraintSet& c) const {
  ConstraintSet copy = c;
  return Apply(n, &copy) > 0;
}

RuleProbe Probe(const RewriteRule& rule, int n, const ConstraintSet& c) {
  RuleProbe probe;
  probe.before = RewriteCost::Of(c);
  probe.result = c;
  probe.edits = rule.Apply(n, &probe.result);
  probe.after = RewriteCost::Of(probe.result);
  return probe;
}

}  // namespace rewrite
}  // namespace diffc
