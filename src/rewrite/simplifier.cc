#include "rewrite/simplifier.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

#include "obs/metrics.h"

namespace diffc {
namespace rewrite {

namespace {

// Process-wide totals for /statusz. Relaxed: monotonic counters, no
// ordering dependencies.
std::atomic<std::uint64_t> g_simplify_calls{0};
std::atomic<std::uint64_t> g_passes{0};
std::atomic<std::uint64_t> g_applied{0};
std::atomic<std::uint64_t> g_constraints_removed{0};

// Registry handles of the simplifier (`diffc_rewrite_*`), looked up once.
// The per-rule counters share one metric name with a `rule` label, in
// driver order.
struct RewriteMetrics {
  obs::Counter* simplify_calls;
  obs::Counter* passes;
  std::vector<std::pair<const RewriteRule*, obs::Counter*>> applied;

  RewriteMetrics() {
    obs::Registry& r = obs::Registry::Global();
    simplify_calls = r.GetCounter("diffc_rewrite_simplify_total",
                                  "Simplifier fixpoint-driver invocations.");
    passes = r.GetCounter("diffc_rewrite_passes_total",
                          "Fixpoint passes across all simplifier invocations.");
    for (const RewriteRule* rule : BuiltinRules()) {
      applied.emplace_back(
          rule, r.GetCounter("diffc_rewrite_applied_total",
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

std::size_t SimplifyPassBound(const RewriteCost& before) {
  return static_cast<std::size_t>(2 + before.Potential());
}

ConstraintSet Simplify(int n, ConstraintSet c, const SimplifyOptions& options,
                       SimplifyStats* stats) {
  SimplifyStats local;
  SimplifyStats& s = stats != nullptr ? *stats : local;
  s = SimplifyStats();
  s.before = RewriteCost::Of(c);

  const int level = options.level < 1 ? 1 : options.level;
  std::vector<const RewriteRule*> active;
  for (const RewriteRule* rule : BuiltinRules()) {
    if (rule->min_level() <= level) active.push_back(rule);
  }
  std::vector<std::size_t> applied(active.size(), 0);

  const std::size_t pass_cap =
      options.max_passes > 0 ? options.max_passes : SimplifyPassBound(s.before);

  std::sort(c.begin(), c.end());
  RewriteCost cost = RewriteCost::Of(c);
  while (s.passes < pass_cap) {
    ++s.passes;
    std::size_t edits = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const std::size_t k = active[i]->Apply(n, &c);
      applied[i] += k;
      edits += k;
    }
    std::sort(c.begin(), c.end());
    if (edits == 0) {
      s.reached_fixpoint = true;
      break;
    }
    s.applied_total += edits;
    const RewriteCost next = RewriteCost::Of(c);
    assert(next < cost && "a rewrite pass with edits must strictly decrease the cost");
    cost = next;
  }
  s.after = cost;
  s.applied_by_rule.reserve(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    s.applied_by_rule.emplace_back(active[i]->name(), applied[i]);
  }

  g_simplify_calls.fetch_add(1, std::memory_order_relaxed);
  g_passes.fetch_add(s.passes, std::memory_order_relaxed);
  g_applied.fetch_add(s.applied_total, std::memory_order_relaxed);
  g_constraints_removed.fetch_add(s.before.constraints - s.after.constraints,
                                  std::memory_order_relaxed);

  if (obs::MetricsEnabled()) {
    RewriteMetrics& m = Metrics();
    m.simplify_calls->Inc();
    if (s.passes > 0) m.passes->Inc(s.passes);
    for (const auto& [rule, counter] : m.applied) {
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (active[i] == rule && applied[i] > 0) counter->Inc(applied[i]);
      }
    }
  }
  return c;
}

RewriteTotals GlobalRewriteTotals() {
  RewriteTotals t;
  t.simplify_calls = g_simplify_calls.load(std::memory_order_relaxed);
  t.passes = g_passes.load(std::memory_order_relaxed);
  t.applied = g_applied.load(std::memory_order_relaxed);
  t.constraints_removed = g_constraints_removed.load(std::memory_order_relaxed);
  return t;
}

}  // namespace rewrite
}  // namespace diffc
