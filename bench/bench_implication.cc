// Experiment E1 — implication-checker scaling (Theorem 3.5 vs
// Proposition 5.4): the exhaustive lattice-containment checker is
// exponential in the number of free attributes, while the SAT-based
// procedure scales with formula size on typical instances. The table shows
// the crossover; the benchmarks measure both deciders across universe size
// and constraint-set size.

// Experiment E2 — batched implication engine vs the sequential front door:
// a 1000-query batch re-validating derived constraints (repeated right-hand
// families, shared premises) through `ImplicationEngine`, which amortizes
// witness-set enumeration and premise compilation across the batch.

// Experiment E3 — cost and output of the observability layer: the E2 batch
// untraced and traced (interleaved min-of-trials; metrics are always on),
// the deadline-slack distribution from an adversarial
// deadline run, per-procedure latency histograms, and the full metrics
// snapshot, all recorded in BENCH_E3.json (validated against
// bench/BENCH_E3.schema.json in CI).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
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
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "prop/tautology.h"
#include "util/random.h"

namespace diffc {
namespace {

ConstraintSet RandomSet(Rng& rng, int n, int count) {
  ConstraintSet out;
  for (int i = 0; i < count; ++i) out.push_back(bench::RandomConstraint(rng, n, 2, 2.0 / n, 2.0 / n));
  return out;
}

void PrintScalingTable() {
  std::printf("=== E1: implication deciders vs universe size (|C|=6, 20 queries) ===\n");
  std::printf("%6s %16s %16s %10s\n", "n", "exhaustive(ms)", "sat(ms)", "agree");
  for (int n : {8, 12, 16, 20, 24}) {
    Rng rng(n * 131);
    ConstraintSet premises = RandomSet(rng, n, 6);
    std::vector<DifferentialConstraint> goals;
    for (int i = 0; i < 20; ++i) goals.push_back(bench::RandomConstraint(rng, n, 2, 2.0 / n, 2.0 / n));

    bool all_agree = true;
    double ex_ms = bench::MeasureMs(
        [&] {
          for (const DifferentialConstraint& g : goals) {
            (void)CheckImplicationExhaustive(n, premises, g);
          }
        },
        1);
    double sat_ms = bench::MeasureMs(
        [&] {
          for (const DifferentialConstraint& g : goals) {
            (void)CheckImplicationSat(n, premises, g);
          }
        },
        1);
    for (const DifferentialConstraint& g : goals) {
      Result<ImplicationOutcome> a = CheckImplicationExhaustive(n, premises, g);
      Result<ImplicationOutcome> b = CheckImplicationSat(n, premises, g);
      if (!a.ok() || !b.ok() || a->implied != b->implied) all_agree = false;
    }
    std::printf("%6d %16.3f %16.3f %10s\n", n, ex_ms, sat_ms, all_agree ? "yes" : "NO");
  }
  std::printf("\n=== E1b: SAT decider vs |C| (n=32) ===\n");
  std::printf("%6s %16s\n", "|C|", "sat(ms)");
  for (int count : {2, 8, 32, 128}) {
    Rng rng(count * 17 + 3);
    const int n = 32;
    ConstraintSet premises = RandomSet(rng, n, count);
    std::vector<DifferentialConstraint> goals;
    for (int i = 0; i < 20; ++i) goals.push_back(bench::RandomConstraint(rng, n, 2, 2.0 / n, 2.0 / n));
    double sat_ms = bench::MeasureMs(
        [&] {
          for (const DifferentialConstraint& g : goals) {
            (void)CheckImplicationSat(n, premises, g);
          }
        },
        1);
    std::printf("%6d %16.3f\n", count, sat_ms);
  }
  std::printf("\n");
}

// The E2 workload: a service re-validating derived constraints. Most goals
// are augmented premises (right-hand family repeated from a premise, widened
// left-hand side); the rest are fresh random queries that need SAT.
void MakeBatchWorkload(int n, int num_queries, ConstraintSet* premises,
                       std::vector<DifferentialConstraint>* goals) {
  Rng rng(12345);
  *premises = RandomSet(rng, n, 8);
  goals->clear();
  goals->reserve(num_queries);
  for (int i = 0; i < num_queries; ++i) {
    if (i % 10 != 9) {
      const DifferentialConstraint& p = (*premises)[i % premises->size()];
      goals->push_back(DifferentialConstraint(
          p.lhs().Union(ItemSet(rng.RandomMask(n, 2.0 / n))), p.rhs()));
    } else {
      goals->push_back(bench::RandomConstraint(rng, n, 2, 2.0 / n, 2.0 / n));
    }
  }
}

// The adversarial deadline workload: pigeonhole DNF tautologies through the
// Proposition 5.5 reduction. The interval cover is inconclusive on them, so
// every query is pinned to the sat search. Each of the `pads` conjuncts
// ¬a ∧ ¬b on fresh variables becomes a premise ∅ -> {{a}, {b}} the search
// branches on first, doubling its work: PHP(7,6) behind 8 pads takes about
// 3.7·10^5 nodes, far past a ~10ms deadline.
prop::DnfFormula PigeonholeDnf(int holes, int pads) {
  prop::DnfFormula f;
  f.num_vars = (holes + 1) * holes + 2 * pads;
  auto var = [&](int pigeon, int hole) { return pigeon * holes + hole; };
  for (int i = 0; i <= holes; ++i) {
    prop::DnfConjunct c;
    for (int k = 0; k < holes; ++k) c.neg |= Mask{1} << var(i, k);
    f.conjuncts.push_back(c);
  }
  for (int i = 0; i <= holes; ++i)
    for (int j = i + 1; j <= holes; ++j)
      for (int k = 0; k < holes; ++k) {
        prop::DnfConjunct c;
        c.pos = (Mask{1} << var(i, k)) | (Mask{1} << var(j, k));
        f.conjuncts.push_back(c);
      }
  for (int p = 0; p < pads; ++p) {
    prop::DnfConjunct c;
    c.neg = Mask{3} << ((holes + 1) * holes + 2 * p);
    f.conjuncts.push_back(c);
  }
  return f;
}

void PrintBatchEngineTable() {
  std::printf(
      "=== E2: batched engine vs sequential front door (n=32, |C|=8, 1000 queries) ===\n");
  const int n = 32;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeBatchWorkload(n, 1000, &premises, &goals);

  std::vector<bool> sequential_verdicts;
  double seq_ms = bench::MeasureMs(
      [&] {
        sequential_verdicts.clear();
        for (const DifferentialConstraint& g : goals) {
          Result<ImplicationOutcome> r = CheckImplication(n, premises, g);
          sequential_verdicts.push_back(r.ok() && r->implied);
        }
      },
      1);

  GlobalWitnessSetCache().Clear();
  GlobalPreparedPremisesCache().Clear();
  ImplicationEngine engine;
  Result<BatchOutcome> batch = Status::InvalidArgument("not yet run");
  double engine_ms = bench::MeasureMs([&] { batch = engine.CheckBatch(n, premises, goals); }, 1);

  bool all_agree = batch.ok();
  if (batch.ok()) {
    for (std::size_t i = 0; i < goals.size(); ++i) {
      const EngineQueryResult& r = batch->results[i];
      if (!r.status.ok() || r.outcome.implied != sequential_verdicts[i]) all_agree = false;
    }
  }

  std::printf("%22s %12s %10s %10s\n", "", "batch(ms)", "speedup", "agree");
  std::printf("%22s %12.3f %10s %10s\n", "sequential loop", seq_ms, "1.00x", "-");
  std::printf("%22s %12.3f %9.2fx %10s\n", "engine", engine_ms,
              engine_ms > 0 ? seq_ms / engine_ms : 0.0, all_agree ? "yes" : "NO");
  if (batch.ok()) std::printf("engine stats: %s\n", batch->stats.ToString().c_str());

  // Deadline-check overhead: the same hot-cache batch with no deadline vs a
  // deadline generous enough to never fire — the difference is purely the
  // amortized clock sampling inside the solvers.
  // Interleaved min-of-trials: the hot-cache batch is ~1ms, so scheduler
  // noise dwarfs a single measurement.
  const int kOverheadReps = 5;
  const int kOverheadTrials = 8;
  auto make_engine = [&](std::chrono::nanoseconds per_query) {
    EngineOptions o;
    o.per_query_deadline = per_query;
    return std::make_unique<ImplicationEngine>(o);
  };
  auto plain = make_engine(std::chrono::nanoseconds(0));
  auto guarded = make_engine(std::chrono::hours(1));
  (void)plain->CheckBatch(n, premises, goals);  // Warm the caches.
  (void)guarded->CheckBatch(n, premises, goals);
  double no_deadline_ms = 1e100, generous_ms = 1e100;
  for (int t = 0; t < kOverheadTrials; ++t) {
    no_deadline_ms = std::min(
        no_deadline_ms,
        bench::MeasureMs([&] { (void)plain->CheckBatch(n, premises, goals); }, kOverheadReps));
    generous_ms = std::min(
        generous_ms,
        bench::MeasureMs([&] { (void)guarded->CheckBatch(n, premises, goals); }, kOverheadReps));
  }
  double overhead_pct =
      no_deadline_ms > 0 ? (generous_ms / no_deadline_ms - 1.0) * 100.0 : 0.0;
  std::printf("deadline-check overhead: no-deadline %.3fms, generous-deadline %.3fms "
              "(%+.2f%%)\n",
              no_deadline_ms, generous_ms, overhead_pct);

  // Adversarial deadline run: 200 pigeonhole queries that each want far
  // more than 10ms of search under a 10ms per-query deadline and kDegrade.
  // They run in series, so the batch reaches its 1s deadline, and every
  // query after that stops at its first check.
  const int kPhpHoles = 6;
  prop::DnfFormula php = PigeonholeDnf(kPhpHoles, 8);
  ConstraintSet php_premises = DnfTautologyReduction(php);
  const std::size_t kAdversarialQueries = 200;
  std::vector<DifferentialConstraint> php_goals(kAdversarialQueries, TautologyGoal());
  EngineOptions adv;
  adv.per_query_deadline = std::chrono::milliseconds(10);
  adv.batch_deadline = std::chrono::seconds(1);
  adv.exhaustion_policy = ExhaustionPolicy::kDegrade;
  ImplicationEngine adv_engine(adv);
  Result<BatchOutcome> adv_out = Status::InvalidArgument("not yet run");
  double adv_ms = bench::MeasureMs(
      [&] { adv_out = adv_engine.CheckBatch(php.num_vars, php_premises, php_goals); }, 1);
  if (adv_out.ok()) {
    std::printf("adversarial deadlines (PHP(%d,%d) + 8 pads, 10ms/query, degrade): %.1fms, %s\n",
                kPhpHoles + 1, kPhpHoles, adv_ms, adv_out->stats.ToString().c_str());
  }
  std::printf("\n");

  // Machine-readable record of the experiment, for CI artifacts.
  std::ofstream json("BENCH_E2.json");
  json << "{\n";
  json << "  \"experiment\": \"E2\",\n";
  json << "  \"n\": " << n << ",\n";
  json << "  \"queries\": " << goals.size() << ",\n";
  json << "  \"threads\": 1,\n";
  json << "  \"sequential_ms\": " << seq_ms << ",\n";
  json << "  \"engine_ms\": " << engine_ms << ",\n";
  json << "  \"speedup\": " << (engine_ms > 0 ? seq_ms / engine_ms : 0.0) << ",\n";
  json << "  \"verdicts_agree\": " << (all_agree ? "true" : "false") << ",\n";
  if (batch.ok()) {
    const BatchStats& s = batch->stats;
    json << "  \"procedure_mix\": {\"trivial\": " << s.by_trivial
         << ", \"fd\": " << s.by_fd << ", \"interval_cover\": " << s.by_interval_cover
         << ", \"sat\": " << s.by_sat << ", \"exhaustive\": " << s.by_exhaustive
         << "},\n";
    json << "  \"cache\": {\"witness_hits\": " << s.witness_cache_hits
         << ", \"witness_misses\": " << s.witness_cache_misses
         << ", \"premise_hits\": " << s.premise_cache_hits
         << ", \"premise_misses\": " << s.premise_cache_misses << "},\n";
  }
  json << "  \"deadline_overhead\": {\"reps\": " << kOverheadReps
       << ", \"no_deadline_ms\": " << no_deadline_ms
       << ", \"generous_deadline_ms\": " << generous_ms
       << ", \"overhead_pct\": " << overhead_pct << "},\n";
  json << "  \"adversarial_deadline\": {\"queries\": " << kAdversarialQueries
       << ", \"per_query_deadline_ms\": 10, \"policy\": \"degrade\", \"batch_ms\": "
       << adv_ms;
  if (adv_out.ok()) {
    const BatchStats& s = adv_out->stats;
    json << ", \"degraded\": " << s.degraded << ", \"timed_out\": " << s.timed_out
         << ", \"cancelled\": " << s.cancelled
         << ", \"failed\": " << s.failed;
  }
  json << "}\n";
  json << "}\n";
  std::printf("wrote BENCH_E2.json\n\n");
}

// One histogram as a JSON object: {"bounds": [...], "counts": [...],
// "count": N, "sum": X}. Counts are non-cumulative with +Inf last, matching
// `obs::RenderJson`.
std::string HistogramJson(const obs::HistogramSample& h) {
  std::string out = "{\"bounds\": [";
  for (std::size_t i = 0; i < h.bounds.size(); ++i) {
    if (i > 0) out += ", ";
    out += obs::FormatDouble(h.bounds[i]);
  }
  out += "], \"counts\": [";
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(h.buckets[i]);
  }
  out += "], \"count\": " + std::to_string(h.count) +
         ", \"sum\": " + obs::FormatDouble(h.sum) + "}";
  return out;
}

void PrintObservabilityTable() {
  std::printf("=== E3: trace cost and exposition (n=32, 1000 queries) ===\n");
  const int n = 32;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeBatchWorkload(n, 1000, &premises, &goals);

  EngineOptions opts;
  ImplicationEngine engine(opts);
  EngineOptions traced_opts = opts;
  traced_opts.trace = true;
  ImplicationEngine traced_engine(traced_opts);

  // Warm the shared caches so the measured batches are the hot-path steady
  // state where instrumentation cost is proportionally largest.
  (void)engine.CheckBatch(n, premises, goals);
  (void)traced_engine.CheckBatch(n, premises, goals);

  // Interleaved min-of-trials (the hot batch is ~1ms, scheduler noise
  // dominates single runs): untraced / traced.
  const int kReps = 5;
  const int kTrials = 8;
  double enabled_ms = 1e100, trace_ms = 1e100;
  for (int t = 0; t < kTrials; ++t) {
    enabled_ms = std::min(
        enabled_ms,
        bench::MeasureMs([&] { (void)engine.CheckBatch(n, premises, goals); }, kReps));
    trace_ms = std::min(
        trace_ms,
        bench::MeasureMs([&] { (void)traced_engine.CheckBatch(n, premises, goals); }, kReps));
  }
  const double trace_pct = enabled_ms > 0 ? (trace_ms / enabled_ms - 1.0) * 100.0 : 0.0;
  std::printf("trace overhead: untraced %.3fms, traced %.3fms (%+.2f%%)\n", enabled_ms,
              trace_ms, trace_pct);

  // Populate the deadline-slack histogram: the adversarial PHP degrade run
  // (near-zero slack) plus the friendly batch under a generous deadline
  // (large slack), so the distribution has both tails.
  const int kPhpHoles = 6;
  prop::DnfFormula php = PigeonholeDnf(kPhpHoles, 8);
  ConstraintSet php_premises = DnfTautologyReduction(php);
  std::vector<DifferentialConstraint> php_goals(100, TautologyGoal());
  EngineOptions adv;
  adv.per_query_deadline = std::chrono::milliseconds(10);
  adv.batch_deadline = std::chrono::seconds(2);
  adv.exhaustion_policy = ExhaustionPolicy::kDegrade;
  ImplicationEngine adv_engine(adv);
  Result<BatchOutcome> adv_out = adv_engine.CheckBatch(php.num_vars, php_premises, php_goals);

  EngineOptions friendly = opts;
  friendly.per_query_deadline = std::chrono::seconds(10);
  ImplicationEngine friendly_engine(friendly);
  (void)friendly_engine.CheckBatch(n, premises, goals);

  // Pull the distributions out of the registry snapshot.
  obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  const obs::HistogramSample* slack = nullptr;
  std::vector<const obs::HistogramSample*> latency;
  for (const obs::HistogramSample& h : snap.histograms) {
    if (h.name == "diffc_deadline_slack_seconds") slack = &h;
    if (h.name == "diffc_engine_query_seconds") latency.push_back(&h);
  }
  if (slack != nullptr) {
    std::printf("deadline slack: %llu samples, mean %.4fs\n",
                static_cast<unsigned long long>(slack->count),
                slack->count > 0 ? slack->sum / static_cast<double>(slack->count) : 0.0);
  }

  // Machine-readable record, shape-checked against BENCH_E3.schema.json.
  std::ofstream json("BENCH_E3.json");
  json << "{\n";
  json << "  \"experiment\": \"E3\",\n";
  json << "  \"n\": " << n << ",\n";
  json << "  \"queries\": " << goals.size() << ",\n";
  json << "  \"threads\": 1,\n";
  json << "  \"overhead\": {\"reps\": " << kReps << ", \"trials\": " << kTrials
       << ", \"enabled_ms\": " << enabled_ms << ", \"enabled_trace_ms\": " << trace_ms
       << ", \"trace_overhead_pct\": " << trace_pct << "},\n";
  json << "  \"deadline_slack\": "
       << (slack != nullptr ? HistogramJson(*slack) : std::string("null")) << ",\n";
  json << "  \"adversarial\": {\"queries\": " << php_goals.size()
       << ", \"per_query_deadline_ms\": 10, \"policy\": \"degrade\", \"degraded\": "
       << (adv_out.ok() ? adv_out->stats.degraded : 0) << "},\n";
  json << "  \"query_latency\": [";
  for (std::size_t i = 0; i < latency.size(); ++i) {
    if (i > 0) json << ",";
    std::string procedure;
    for (const auto& [k, v] : latency[i]->labels) {
      if (k == "procedure") procedure = v;
    }
    json << "\n    {\"procedure\": \"" << procedure
         << "\", \"histogram\": " << HistogramJson(*latency[i]) << "}";
  }
  json << (latency.empty() ? "],\n" : "\n  ],\n");
  json << "  \"metrics\": " << obs::SnapshotJson() << "\n";
  json << "}\n";
  std::printf("wrote BENCH_E3.json\n\n");
}

void BM_Exhaustive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(n);
  ConstraintSet premises = RandomSet(rng, n, 6);
  DifferentialConstraint goal = bench::RandomConstraint(rng, n, 2, 2.0 / n, 2.0 / n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckImplicationExhaustive(n, premises, goal)->implied);
  }
}
BENCHMARK(BM_Exhaustive)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_Sat(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(n);
  ConstraintSet premises = RandomSet(rng, n, 6);
  DifferentialConstraint goal = bench::RandomConstraint(rng, n, 2, 2.0 / n, 2.0 / n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckImplicationSat(n, premises, goal)->implied);
  }
}
BENCHMARK(BM_Sat)->Arg(8)->Arg(16)->Arg(32)->Arg(48)->Arg(64);

void BM_SatVsConstraintCount(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const int n = 32;
  Rng rng(count);
  ConstraintSet premises = RandomSet(rng, n, count);
  DifferentialConstraint goal = bench::RandomConstraint(rng, n, 2, 2.0 / n, 2.0 / n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckImplicationSat(n, premises, goal)->implied);
  }
}
BENCHMARK(BM_SatVsConstraintCount)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_SequentialBatch(benchmark::State& state) {
  const int n = 32;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeBatchWorkload(n, static_cast<int>(state.range(0)), &premises, &goals);
  for (auto _ : state) {
    for (const DifferentialConstraint& g : goals) {
      benchmark::DoNotOptimize(CheckImplication(n, premises, g)->implied);
    }
  }
  state.SetItemsProcessed(state.iterations() * goals.size());
}
BENCHMARK(BM_SequentialBatch)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_EngineBatch(benchmark::State& state) {
  const int n = 32;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeBatchWorkload(n, 1000, &premises, &goals);
  ImplicationEngine engine;
  for (auto _ : state) {
    Result<BatchOutcome> out = engine.CheckBatch(n, premises, goals);
    benchmark::DoNotOptimize(out.ok() && out->stats.implied > 0);
  }
  state.SetItemsProcessed(state.iterations() * goals.size());
}
BENCHMARK(BM_EngineBatch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace diffc

int main(int argc, char** argv) {
  // Fast path for CI schema validation: only the E3 experiment.
  if (std::getenv("DIFFC_BENCH_E3_ONLY") != nullptr) {
    diffc::PrintObservabilityTable();
    return 0;
  }
  diffc::PrintScalingTable();
  diffc::PrintBatchEngineTable();
  diffc::PrintObservabilityTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
