#include "rewrite/simplifier.h"

#include <cassert>
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
  obs::Counter* passes;
  obs::Counter* budget_exhausted;
  std::vector<obs::Counter*> applied;

  RewriteMetrics() {
    obs::Registry& r = obs::Registry::Global();
    simplify_calls = r.GetCounter("diffc_rewrite_simplify_total",
                                  "Simplifier fixpoint-driver invocations.");
    passes = r.GetCounter("diffc_rewrite_passes_total",
                          "Fixpoint passes across all simplifier invocations.");
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

std::size_t SimplifyPassBound(const RewriteCost& before) {
  return 2 + before.constraints + before.members;
}

void SimplifyInPlace(PremiseMasks* premises, SimplifyStats* stats) {
  SimplifyStats local;
  SimplifyStats& s = stats != nullptr ? *stats : local;
  s = SimplifyStats();
  s.before = RewriteCost::Of(*premises);

  const std::vector<const RewriteRule*>& rules = BuiltinRules();
  std::vector<std::size_t> applied(rules.size(), 0);
  // The tick at which each rule last started (0: never).
  std::vector<std::uint64_t> last_start(rules.size(), 0);

  const std::size_t pass_cap = SimplifyPassBound(s.before);

  RewriteArena arena(premises);
  arena.Sort();
  [[maybe_unused]] RewriteCost cost = s.before;
  while (s.passes < pass_cap) {
    ++s.passes;
    std::size_t edits = 0;
    for (std::size_t i = 0; i < rules.size() && !arena.exhausted(); ++i) {
      arena.BeginRule(&last_start[i]);
      const std::size_t k = rules[i]->Apply(&arena);
      applied[i] += k;
      edits += k;
    }
    arena.SortRuns();
    s.applied_total += edits;
    if (arena.exhausted()) break;
    if (edits == 0) {
      s.reached_fixpoint = true;
      break;
    }
#ifndef NDEBUG
    const RewriteCost next = RewriteCost::Of(*premises);
    assert(next.constraints + next.members < cost.constraints + cost.members &&
           "a rewrite pass with edits must remove a constraint or a member");
    cost = next;
#endif
  }
  premises->Compact();
  s.after = RewriteCost::Of(*premises);
  s.steps = arena.steps();
  s.applied_by_rule.reserve(rules.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    s.applied_by_rule.emplace_back(rules[i]->name(), applied[i]);
  }

  RewriteMetrics& m = Metrics();
  m.simplify_calls->Inc();
  if (s.passes > 0) m.passes->Inc(s.passes);
  if (arena.exhausted()) m.budget_exhausted->Inc();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (applied[i] > 0) m.applied[i]->Inc(applied[i]);
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
