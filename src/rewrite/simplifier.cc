#include "rewrite/simplifier.h"

#include <utility>

#include "obs/metrics.h"

namespace diffc {
namespace rewrite {

namespace {

// Registry handles of the simplifier (`diffc_rewrite_*`), looked up once.
// The per-rule counters share one metric name with a `rule` label, indexed
// like `BuiltinRules()`.
struct RewriteMetrics {
  obs::Counter* simplify_calls;
  obs::Counter* budget_exhausted;
  std::vector<obs::Counter*> applied;

  RewriteMetrics() {
    obs::Registry& r = obs::Registry::Global();
    simplify_calls = r.GetCounter("diffc_rewrite_simplify_total",
                                  "Simplifier fixpoint-driver invocations.");
    budget_exhausted =
        r.GetCounter("diffc_rewrite_budget_exhausted_total",
                     "Simplifier invocations stopped by the step budget before a fixpoint.");
    for (const RewriteRule* rule : BuiltinRules()) {
      applied.push_back(r.GetCounter("diffc_rewrite_applied_total",
                                     "Rewrite-rule edits performed, labeled by rule.",
                                     {{"rule", rule->name()}}));
    }
  }
};

RewriteMetrics& Metrics() {
  static RewriteMetrics* m = new RewriteMetrics();
  return *m;
}

}  // namespace

std::size_t SimplifyStats::Applied(std::string_view rule) const {
  for (const auto& [name, edits] : applied_by_rule) {
    if (name == rule) return edits;
  }
  return 0;
}

void SimplifyInPlace(PremiseMasks* premises, SimplifyStats* stats) {
  SimplifyStats local;
  SimplifyStats& s = stats != nullptr ? *stats : local;
  s = SimplifyStats();
  s.before = RewriteCost::Of(*premises);

  const std::vector<const RewriteRule*>& rules = BuiltinRules();
  s.applied_by_rule.reserve(rules.size());

  RewriteArena arena(premises);
  arena.Sort();
  for (const RewriteRule* rule : rules) {
    // One step per premise, the rule's scan; no rule runs once the budget
    // is spent.
    const std::size_t edits = arena.Charge(premises->size()) ? rule->Apply(&arena) : 0;
    s.applied_by_rule.emplace_back(rule->name(), edits);
    s.applied_total += edits;
  }
  arena.SortRuns();
  premises->Compact();
  s.passes = 1;
  s.reached_fixpoint = !arena.exhausted();
  s.after = RewriteCost::Of(*premises);
  s.steps = arena.steps();

  RewriteMetrics& m = Metrics();
  m.simplify_calls->Inc();
  if (arena.exhausted()) m.budget_exhausted->Inc();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (s.applied_by_rule[i].second > 0) m.applied[i]->Inc(s.applied_by_rule[i].second);
  }
}

ConstraintSet Simplify(int n, ConstraintSet c, const SimplifyOptions& /*options*/,
                       SimplifyStats* stats) {
  (void)n;  // No rule reads the universe size.
  PremiseMasks premises = PremiseMasks::Compile(c);
  SimplifyInPlace(&premises, stats);
  return premises.Materialize();
}

}  // namespace rewrite
}  // namespace diffc
