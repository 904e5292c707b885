// Experiment E10 — the rewrite canonicalizer vs the old inline path:
// one revalidation-style workload (a premise set with the redundancy shapes
// real mining loops accumulate: augmented copies of existing constraints,
// non-minimal witness families, members overlapping their left-hand side,
// and split same-lhs constraints) canonicalized two ways:
//
//   raw        — `InlineCanonicalize` below: the inline canonicalization
//                prepare ran before the rewriter (drop trivial, minimize
//                families, dedupe), kept here as the baseline now that
//                prepare always rewrites.
//   simplified — the rule-driven simplifier (DESIGN.md §14).
//
// The headline number is the artifact shrink attributable to the rewriter
// beyond the inline path: member_reduction = 1 − members(simplified) /
// members(raw). Of the planted shapes, only the augmented copies are
// redundancy the inline path keeps and absorb-subsumed removes; both keep
// the split same-lhs constraints and the lhs-overlapping members. The
// acceptance bar is >= 10%, encoded in bench/BENCH_E10.schema.json and
// checked in CI. The repeated-query rows time the `sat` kernel
// (`SearchCounterexample`) over each set's mask arena, so the speedup is
// the smaller artifact's effect on the search alone; verdict agreement
// across the two sets is pinned. Results land in BENCH_E10.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/implication_engine.h"
#include "engine/sat_kernel.h"
#include "rewrite/rewrite_rule.h"
#include "rewrite/simplifier.h"
#include "util/random.h"

namespace diffc {
namespace {

// The E10 workload: a base set plus planted redundancy. The inline path
// keeps the augmented (non-identical) copies, so absorbing them is the
// rewriter's contribution.
void MakeWorkload(int n, ConstraintSet* premises,
                  std::vector<DifferentialConstraint>* goals) {
  Rng rng(20260809);
  premises->clear();
  const int kBase = 48;
  for (int i = 0; i < kBase; ++i) premises->push_back(bench::RandomConstraint(rng, n, 2, 2.0 / n, 3.0 / n));
  // Augmented copies (wider lhs, same family): absorbed by their base.
  for (int i = 0; i < 16; ++i) {
    const DifferentialConstraint& p = (*premises)[static_cast<std::size_t>(i * 3 % kBase)];
    premises->push_back(DifferentialConstraint(
        p.lhs().Union(ItemSet(rng.RandomMask(n, 2.0 / n))), p.rhs()));
  }
  // Split same-lhs singleton constraints: both paths keep them.
  for (int i = 0; i < 12; ++i) {
    ItemSet lhs(rng.RandomMask(n, 2.0 / n));
    Mask a = rng.RandomMask(n, 2.0 / n) & ~lhs.bits();
    Mask b = rng.RandomMask(n, 2.0 / n) & ~lhs.bits();
    if (a == 0) a = Mask{1} << rng.UniformInt(0, n - 1);
    if (b == 0) b = Mask{1} << rng.UniformInt(0, n - 1);
    premises->push_back(DifferentialConstraint(lhs, SetFamily({ItemSet(a)})));
    premises->push_back(DifferentialConstraint(lhs, SetFamily({ItemSet(b)})));
  }
  // Members overlapping their lhs: both paths keep them.
  for (int i = 0; i < 8; ++i) {
    ItemSet lhs(rng.RandomMask(n, 3.0 / n));
    Mask outside = rng.RandomMask(n, 2.0 / n) & ~lhs.bits();
    if (outside == 0) outside = Mask{1} << rng.UniformInt(0, n - 1);
    premises->push_back(DifferentialConstraint(
        lhs, SetFamily({ItemSet(outside | (lhs.bits() & (lhs.bits() >> 1)))})));
  }
  // Non-minimal families and trivial constraints: both paths remove these,
  // so they add canonicalization work without skewing the differential.
  for (int i = 0; i < 8; ++i) {
    const DifferentialConstraint& p = (*premises)[static_cast<std::size_t>(i * 5 % kBase)];
    premises->push_back(DifferentialConstraint(
        p.lhs(), p.rhs().WithMember(p.rhs().member(0).Union(ItemSet(rng.RandomMask(n, 0.3))))));
  }
  premises->push_back(DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}})));

  goals->clear();
  const int kQueries = 400;
  goals->reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    if (i % 4 != 3) {  // Mostly revalidation: augmented premises (implied).
      const DifferentialConstraint& p = (*premises)[static_cast<std::size_t>(i % kBase)];
      goals->push_back(DifferentialConstraint(
          p.lhs().Union(ItemSet(rng.RandomMask(n, 2.0 / n))), p.rhs()));
    } else {
      goals->push_back(bench::RandomConstraint(rng, n, 2, 2.0 / n, 3.0 / n));
    }
  }
}

// The old inline canonicalization: drop trivial premises (they exclude no
// set from L(C)), minimize each right-hand family (SomeMemberSubsetOf — and
// so L(X, Y) — is invariant under dropping non-minimal members), then sort
// and dedupe.
ConstraintSet InlineCanonicalize(const ConstraintSet& premises) {
  ConstraintSet out;
  out.reserve(premises.size());
  for (const DifferentialConstraint& p : premises) {
    if (p.IsTrivial()) continue;
    out.push_back(DifferentialConstraint(p.lhs(), p.rhs().Minimized()));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void RunRewriteExperiment() {
  std::printf("=== E10: rewrite canonicalizer vs inline path "
              "(n=16, planted redundancy, 400 queries) ===\n");
  const int n = 16;
  const int kTrials = 5;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeWorkload(n, &premises, &goals);

  const ConstraintSet raw = InlineCanonicalize(premises);
  rewrite::SimplifyStats ss;
  const ConstraintSet simplified =
      rewrite::Simplify(n, premises, rewrite::SimplifyOptions(), &ss);

  const PremiseMasks raw_masks = PremiseMasks::Compile(raw);
  const PremiseMasks simplified_masks = PremiseMasks::Compile(simplified);
  const rewrite::RewriteCost input_cost = rewrite::RewriteCost::Of(PremiseMasks::Compile(premises));
  const rewrite::RewriteCost raw_cost = rewrite::RewriteCost::Of(raw_masks);
  const rewrite::RewriteCost simplified_cost = rewrite::RewriteCost::Of(simplified_masks);
  const double member_reduction =
      raw_cost.members == 0
          ? 0.0
          : 1.0 - static_cast<double>(simplified_cost.members) /
                      static_cast<double>(raw_cost.members);
  const double constraint_reduction =
      raw_cost.constraints == 0
          ? 0.0
          : 1.0 - static_cast<double>(simplified_cost.constraints) /
                      static_cast<double>(raw_cost.constraints);
  const double item_reduction =
      raw_cost.member_items == 0
          ? 0.0
          : 1.0 - static_cast<double>(simplified_cost.member_items) /
                      static_cast<double>(raw_cost.member_items);

  // Both rows run the engine's `sat` kernel, under its default node budget,
  // over the mask arena of their set; a failed search counts as a
  // disagreement.
  const std::uint64_t max_nodes = EngineOptions().max_solver_decisions;
  auto run_row = [&](const PremiseMasks& masks, std::vector<int>* verdicts) {
    double best = 1e100;
    for (int t = 0; t < kTrials; ++t) {
      std::vector<int> got;
      got.reserve(goals.size());
      best = std::min(best, bench::MeasureMs([&] {
        for (const DifferentialConstraint& g : goals) {
          Result<ImplicationOutcome> r =
              SearchCounterexample(n, masks, g, max_nodes, nullptr, nullptr);
          got.push_back(r.ok() ? static_cast<int>(r->implied) : -1);
        }
      }));
      *verdicts = std::move(got);
    }
    return best;
  };

  std::vector<int> raw_verdicts;
  std::vector<int> simplified_verdicts;
  const double raw_ms = run_row(raw_masks, &raw_verdicts);
  const double simplified_ms = run_row(simplified_masks, &simplified_verdicts);
  const bool verdicts_agree =
      raw_verdicts == simplified_verdicts &&
      std::find(raw_verdicts.begin(), raw_verdicts.end(), -1) == raw_verdicts.end();
  const double query_speedup = simplified_ms > 0 ? raw_ms / simplified_ms : 0.0;

  std::printf("%22s %12s %10s %10s\n", "", "constraints", "members", "items");
  std::printf("%22s %12zu %10zu %10zu\n", "input", input_cost.constraints,
              input_cost.members, input_cost.member_items);
  std::printf("%22s %12zu %10zu %10zu\n", "inline (raw)", raw_cost.constraints,
              raw_cost.members, raw_cost.member_items);
  std::printf("%22s %12zu %10zu %10zu\n", "rewriter",
              simplified_cost.constraints, simplified_cost.members,
              simplified_cost.member_items);
  std::printf("reduction vs inline: %.1f%% constraints, %.1f%% members, %.1f%% items\n",
              100 * constraint_reduction, 100 * member_reduction, 100 * item_reduction);
  std::printf("rewriter: %zu passes, %zu edits, %llu budget steps", ss.passes,
              ss.applied_total, static_cast<unsigned long long>(ss.steps));
  for (const auto& [rule, edits] : ss.applied_by_rule) {
    std::printf("  %s=%zu", rule.c_str(), edits);
  }
  std::printf("\nsat kernel: raw %.3fms, simplified %.3fms (%.2fx), verdicts %s\n\n",
              raw_ms, simplified_ms, query_speedup, verdicts_agree ? "agree" : "DISAGREE");

  // Machine-readable record, shape-checked against BENCH_E10.schema.json
  // (which pins member_reduction >= 0.10 and verdicts_agree).
  std::ofstream json("BENCH_E10.json");
  json << "{\n";
  json << "  \"experiment\": \"E10\",\n";
  json << "  \"n\": " << n << ",\n";
  json << "  \"input_constraints\": " << premises.size() << ",\n";
  json << "  \"queries\": " << goals.size() << ",\n";
  json << "  \"trials\": " << kTrials << ",\n";
  json << "  \"raw\": {\"constraints\": " << raw_cost.constraints
       << ", \"members\": " << raw_cost.members
       << ", \"items\": " << raw_cost.member_items << "},\n";
  json << "  \"simplified\": {\"constraints\": " << simplified_cost.constraints
       << ", \"members\": " << simplified_cost.members
       << ", \"items\": " << simplified_cost.member_items << "},\n";
  json << "  \"member_reduction\": " << member_reduction << ",\n";
  json << "  \"constraint_reduction\": " << constraint_reduction << ",\n";
  json << "  \"item_reduction\": " << item_reduction << ",\n";
  json << "  \"rewrite_passes\": " << ss.passes << ",\n";
  json << "  \"rewrite_applied\": " << ss.applied_total << ",\n";
  json << "  \"raw_ms\": " << raw_ms << ",\n";
  json << "  \"simplified_ms\": " << simplified_ms << ",\n";
  json << "  \"query_speedup\": " << query_speedup << ",\n";
  json << "  \"verdicts_agree\": " << (verdicts_agree ? "true" : "false") << "\n";
  json << "}\n";
  std::printf("wrote BENCH_E10.json\n\n");
}

void BM_SimplifyWorkload(benchmark::State& state) {
  const int n = 16;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeWorkload(n, &premises, &goals);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rewrite::Simplify(n, premises, rewrite::SimplifyOptions()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(premises.size()));
}
BENCHMARK(BM_SimplifyWorkload);

void BM_PrepareWithRewriter(benchmark::State& state) {
  const int n = 16;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeWorkload(n, &premises, &goals);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PreparedPremises::Build(n, premises));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrepareWithRewriter);

}  // namespace
}  // namespace diffc

int main(int argc, char** argv) {
  // Fast path for CI schema validation: only the E10 table.
  if (std::getenv("DIFFC_BENCH_E10_ONLY") != nullptr) {
    diffc::RunRewriteExperiment();
    return 0;
  }
  diffc::RunRewriteExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
