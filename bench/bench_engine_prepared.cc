// Experiment E5 — prepared premises vs the per-query compilation path:
// the same revalidation workload (repeated premises, mostly-derived goals)
// through three paths:
//
//   per-query  — `PreparedPremises::Build` then CheckOne on the fresh
//                artifact, per query: every query re-canonicalizes and
//                re-compiles the premise set from scratch.
//   prepared   — one explicit `Prepare()` call, then CheckOne on the shared
//                artifact: compilation amortized over the whole run.
//   cached     — the default unprepared API: the process-wide
//                PreparedPremisesCache turns every call after the first into
//                a prepared one.
//
// The headline number is prepared-vs-per-query speedup (the acceptance bar
// is >= 1.5x, encoded in bench/BENCH_E5.schema.json and checked in CI);
// the cached row shows the unchanged old API recovers almost all of it.
// Results land in BENCH_E5.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/implication.h"
#include "engine/caches.h"
#include "engine/implication_engine.h"
#include "util/random.h"

namespace diffc {
namespace {

// The E5 workload: a premise set big enough that compiling it is real work
// (with trivial and duplicate members for canonicalization to earn its
// keep), and goals that are cheap once compiled — mostly augmented
// premises, the derived-constraint revalidation pattern.
void MakeWorkload(int n, int premise_count, int num_queries, ConstraintSet* premises,
                  std::vector<DifferentialConstraint>* goals) {
  Rng rng(20260806);
  premises->clear();
  for (int i = 0; i < premise_count; ++i) {
    premises->push_back(bench::RandomConstraint(rng, n, 2, 2.0 / n, 2.0 / n));
  }
  // Trivial premise (member inside the left-hand side) plus duplicates:
  // dropped at canonicalization.
  premises->push_back(DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}})));
  premises->push_back((*premises)[0]);
  premises->push_back((*premises)[1]);
  goals->clear();
  goals->reserve(num_queries);
  for (int i = 0; i < num_queries; ++i) {
    if (i % 10 != 9) {
      const DifferentialConstraint& p = (*premises)[i % premise_count];
      goals->push_back(DifferentialConstraint(
          p.lhs().Union(ItemSet(rng.RandomMask(n, 2.0 / n))), p.rhs()));
    } else {
      goals->push_back(bench::RandomConstraint(rng, n, 2, 2.0 / n, 2.0 / n));
    }
  }
}

// The per-query baseline: compile the premises from scratch, then answer
// the one goal against the fresh artifact.
EngineQueryResult CheckOnePerQueryCompile(ImplicationEngine& engine, int n,
                                          const ConstraintSet& premises,
                                          const DifferentialConstraint& goal) {
  Result<std::shared_ptr<const PreparedPremises>> prepared = PreparedPremises::Build(n, premises);
  if (!prepared.ok()) {
    EngineQueryResult r;
    r.status = prepared.status();
    return r;
  }
  return engine.CheckOne(*prepared, goal);
}

void RunPreparedExperiment() {
  std::printf("=== E5: prepared premises vs per-query compilation "
              "(n=32, |C|=67, 2000 queries) ===\n");
  const int n = 32;
  const int kPremises = 64;  // +3 trivial/duplicate seeds in MakeWorkload.
  const int kQueries = 2000;
  const int kTrials = 5;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeWorkload(n, kPremises, kQueries, &premises, &goals);

  EngineOptions default_opts;
  default_opts.num_threads = 1;
  ImplicationEngine engine(default_opts);

  Result<std::shared_ptr<const PreparedPremises>> prepared = engine.Prepare(n, premises);
  if (!prepared.ok()) {
    std::fprintf(stderr, "Prepare failed: %s\n", prepared.status().ToString().c_str());
    return;
  }

  // Warm the witness cache once so all three rows measure the steady state
  // of *premise* compilation, not first-touch witness enumeration.
  for (const DifferentialConstraint& g : goals) (void)engine.CheckOne(*prepared, g);

  std::vector<bool> reference;
  reference.reserve(goals.size());
  for (const DifferentialConstraint& g : goals) {
    EngineQueryResult r = engine.CheckOne(*prepared, g);
    reference.push_back(r.status.ok() && r.outcome.implied);
  }

  bool all_agree = true;
  auto run_row = [&](ImplicationEngine& e, auto&& check) {
    double best = 1e100;
    for (int t = 0; t < kTrials; ++t) {
      best = std::min(best, bench::MeasureMs([&] {
        for (std::size_t i = 0; i < goals.size(); ++i) {
          EngineQueryResult r = check(e, goals[i]);
          if (!r.status.ok() || r.outcome.implied != reference[i]) all_agree = false;
        }
      }));
    }
    return best;
  };

  const double per_query_ms =
      run_row(engine, [&](ImplicationEngine& e, const DifferentialConstraint& g) {
        return CheckOnePerQueryCompile(e, n, premises, g);
      });
  const double prepared_ms =
      run_row(engine, [&](ImplicationEngine& e, const DifferentialConstraint& g) {
        return e.CheckOne(*prepared, g);
      });
  const double cached_ms =
      run_row(engine, [&](ImplicationEngine& e, const DifferentialConstraint& g) {
        return e.CheckOne(n, premises, g);
      });

  const double prepared_speedup = prepared_ms > 0 ? per_query_ms / prepared_ms : 0.0;
  const double cached_speedup = cached_ms > 0 ? per_query_ms / cached_ms : 0.0;
  std::printf("%22s %12s %10s %10s\n", "", "batch(ms)", "speedup", "agree");
  std::printf("%22s %12.3f %10s %10s\n", "per-query compile", per_query_ms, "1.00x", "-");
  std::printf("%22s %12.3f %9.2fx %10s\n", "explicit Prepare()", prepared_ms,
              prepared_speedup, all_agree ? "yes" : "NO");
  std::printf("%22s %12.3f %9.2fx %10s\n", "prepared cache", cached_ms, cached_speedup,
              all_agree ? "yes" : "NO");

  const PrepareStats& ps = (*prepared)->stats();
  const CacheCounters cache = GlobalPreparedPremisesCache().counters();
  // The engine no longer compiles the Proposition 5.4 CNF; its size is
  // still recorded, from the canonical set the artifact holds.
  const PremiseTranslation translation =
      TranslatePremises(n, (*prepared)->masks().Materialize());
  std::printf("prepare: %zu -> %zu constraints (%zu trivial, %zu duplicates dropped), "
              "%d vars, %zu clauses, %.3fms build\n",
              ps.input_constraints, ps.canonical_constraints, ps.dropped_trivial,
              ps.dropped_duplicates, translation.num_vars, translation.clauses.size(),
              static_cast<double>(ps.total_ns) / 1e6);
  std::printf("prepared cache: %.4f lifetime hit ratio\n\n", cache.HitRatio());

  // Machine-readable record, shape-checked against BENCH_E5.schema.json
  // (which pins prepared_speedup >= 1.5).
  std::ofstream json("BENCH_E5.json");
  json << "{\n";
  json << "  \"experiment\": \"E5\",\n";
  json << "  \"n\": " << n << ",\n";
  json << "  \"premises\": " << premises.size() << ",\n";
  json << "  \"queries\": " << goals.size() << ",\n";
  json << "  \"trials\": " << kTrials << ",\n";
  json << "  \"per_query_ms\": " << per_query_ms << ",\n";
  json << "  \"prepared_ms\": " << prepared_ms << ",\n";
  json << "  \"cached_ms\": " << cached_ms << ",\n";
  json << "  \"prepared_speedup\": " << prepared_speedup << ",\n";
  json << "  \"cached_speedup\": " << cached_speedup << ",\n";
  json << "  \"verdicts_agree\": " << (all_agree ? "true" : "false") << ",\n";
  json << "  \"prepare\": {\"input_constraints\": " << ps.input_constraints
       << ", \"canonical_constraints\": " << ps.canonical_constraints
       << ", \"dropped_trivial\": " << ps.dropped_trivial
       << ", \"dropped_duplicates\": " << ps.dropped_duplicates
       << ", \"translation_vars\": " << translation.num_vars
       << ", \"translation_clauses\": " << translation.clauses.size()
       << ", \"build_ms\": " << static_cast<double>(ps.total_ns) / 1e6 << "},\n";
  json << "  \"prepared_cache\": {\"hits\": " << cache.hits
       << ", \"misses\": " << cache.misses << ", \"hit_ratio\": " << cache.HitRatio()
       << "}\n";
  json << "}\n";
  std::printf("wrote BENCH_E5.json\n\n");
}

void BM_CheckOnePerQueryCompile(benchmark::State& state) {
  const int n = 32;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeWorkload(n, static_cast<int>(state.range(0)), 64, &premises, &goals);
  EngineOptions opts;
  opts.num_threads = 1;
  ImplicationEngine engine(opts);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CheckOnePerQueryCompile(engine, n, premises, goals[i++ % goals.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckOnePerQueryCompile)->Arg(8)->Arg(64);

void BM_CheckOnePrepared(benchmark::State& state) {
  const int n = 32;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeWorkload(n, static_cast<int>(state.range(0)), 64, &premises, &goals);
  EngineOptions opts;
  opts.num_threads = 1;
  ImplicationEngine engine(opts);
  Result<std::shared_ptr<const PreparedPremises>> prepared = engine.Prepare(n, premises);
  if (!prepared.ok()) {
    state.SkipWithError("Prepare failed");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.CheckOne(*prepared, goals[i++ % goals.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckOnePrepared)->Arg(8)->Arg(64);

void BM_PrepareBuild(benchmark::State& state) {
  const int n = 32;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeWorkload(n, static_cast<int>(state.range(0)), 1, &premises, &goals);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PreparedPremises::Build(n, premises));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrepareBuild)->Arg(8)->Arg(64)->Arg(256);

}  // namespace
}  // namespace diffc

int main(int argc, char** argv) {
  // Fast path for CI schema validation: only the E5 table.
  if (std::getenv("DIFFC_BENCH_E5_ONLY") != nullptr) {
    diffc::RunPreparedExperiment();
    return 0;
  }
  diffc::RunPreparedExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
