// Observability layer: registry semantics (exact concurrent sums, histogram
// bucket boundaries, snapshot-vs-reset), Prometheus / JSON exposition
// (golden outputs plus a mini text-format parser), span-tree tracing, the
// trace store, and end-to-end metric deltas through
// `ImplicationEngine::CheckBatch` under every exhaustion policy.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/implication.h"
#include "engine/implication_engine.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_store.h"
#include "prop/tautology.h"
#include "test_helpers.h"

namespace diffc {
namespace {

using obs::Labels;
using obs::MetricsSnapshot;
using obs::Registry;
using obs::TraceRecord;
using obs::Tracer;

// ---------------------------------------------------------------------------
// Registry semantics.

TEST(MetricsRegistryTest, CounterSumsConcurrentIncrementsExactly) {
  Registry reg;
  obs::Counter* c = reg.GetCounter("t_ops_total", "ops");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kIncrements; ++i) c->Inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameHandle) {
  Registry reg;
  obs::Counter* a = reg.GetCounter("t_total", "h", {{"k", "v"}});
  obs::Counter* b = reg.GetCounter("t_total", "h", {{"k", "v"}});
  obs::Counter* other = reg.GetCounter("t_total", "h", {{"k", "w"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->Inc(2);
  b->Inc(3);
  EXPECT_EQ(a->Value(), 5u);
  EXPECT_EQ(other->Value(), 0u);
}

TEST(MetricsRegistryTest, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  Registry reg;
  obs::Histogram* h = reg.GetHistogram("t_seconds", "h", {0.1, 1.0, 10.0});
  h->Observe(0.1);   // le="0.1": boundary values land in their bucket.
  h->Observe(0.05);  // le="0.1"
  h->Observe(0.5);   // le="1"
  h->Observe(1.0);   // le="1"
  h->Observe(10.0);  // le="10"
  h->Observe(99.0);  // +Inf
  std::vector<std::uint64_t> buckets = h->BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h->Count(), 6u);
  EXPECT_DOUBLE_EQ(h->Sum(), 0.1 + 0.05 + 0.5 + 1.0 + 10.0 + 99.0);
}

TEST(MetricsRegistryTest, ExponentialAndLinearBucketShapes) {
  std::vector<double> exp = obs::ExponentialBuckets(1e-3, 10.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[0], 1e-3);
  EXPECT_DOUBLE_EQ(exp[3], 1.0);
  std::vector<double> lin = obs::LinearBuckets(0.0, 0.5, 3);
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_DOUBLE_EQ(lin[2], 1.0);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsHandles) {
  Registry reg;
  obs::Counter* c = reg.GetCounter("t_total", "h");
  obs::Gauge* g = reg.GetGauge("t_depth", "h");
  obs::Histogram* h = reg.GetHistogram("t_seconds", "h", {1.0});
  c->Inc(7);
  g->Set(-3);
  h->Observe(0.5);
  MetricsSnapshot before = reg.Snapshot();
  ASSERT_EQ(before.counters.size(), 1u);
  EXPECT_EQ(before.counters[0].value, 7u);
  ASSERT_EQ(before.gauges.size(), 1u);
  EXPECT_EQ(before.gauges[0].value, -3);
  ASSERT_EQ(before.histograms.size(), 1u);
  EXPECT_EQ(before.histograms[0].count, 1u);

  reg.ResetValues();
  // The snapshot is a copy: resetting the registry does not mutate it.
  EXPECT_EQ(before.counters[0].value, 7u);
  // Old handles keep working against the zeroed values.
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->Count(), 0u);
  c->Inc();
  EXPECT_EQ(reg.Snapshot().counters[0].value, 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByNameThenLabels) {
  Registry reg;
  reg.GetCounter("t_b_total", "h");
  reg.GetCounter("t_a_total", "h", {{"k", "2"}});
  reg.GetCounter("t_a_total", "h", {{"k", "1"}});
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "t_a_total");
  EXPECT_EQ(snap.counters[0].labels[0].second, "1");
  EXPECT_EQ(snap.counters[1].labels[0].second, "2");
  EXPECT_EQ(snap.counters[2].name, "t_b_total");
}

// ---------------------------------------------------------------------------
// Exposition.

// A registry with one of everything, for the golden tests.
void PopulateGolden(Registry& reg) {
  reg.GetCounter("t_requests_total", "Requests served.", {{"code", "200"}})->Inc(3);
  reg.GetGauge("t_queue_depth", "Queued tasks.")->Set(5);
  obs::Histogram* h =
      reg.GetHistogram("t_latency_seconds", "Request latency.", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(5.0);
}

TEST(ExpositionTest, PrometheusGolden) {
  Registry reg;
  PopulateGolden(reg);
  const std::string expected =
      "# HELP t_requests_total Requests served.\n"
      "# TYPE t_requests_total counter\n"
      "t_requests_total{code=\"200\"} 3\n"
      "# HELP t_queue_depth Queued tasks.\n"
      "# TYPE t_queue_depth gauge\n"
      "t_queue_depth 5\n"
      "# HELP t_latency_seconds Request latency.\n"
      "# TYPE t_latency_seconds histogram\n"
      "t_latency_seconds_bucket{le=\"0.1\"} 1\n"
      "t_latency_seconds_bucket{le=\"1\"} 2\n"
      "t_latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "t_latency_seconds_sum 5.55\n"
      "t_latency_seconds_count 3\n";
  EXPECT_EQ(obs::RenderPrometheus(reg.Snapshot()), expected);
}

TEST(ExpositionTest, JsonGolden) {
  Registry reg;
  PopulateGolden(reg);
  const std::string expected =
      "{\n"
      "  \"counters\": [\n"
      "    {\"name\": \"t_requests_total\", \"labels\": {\"code\": \"200\"}, "
      "\"value\": 3}\n"
      "  ],\n"
      "  \"gauges\": [\n"
      "    {\"name\": \"t_queue_depth\", \"labels\": {}, \"value\": 5}\n"
      "  ],\n"
      "  \"histograms\": [\n"
      "    {\"name\": \"t_latency_seconds\", \"labels\": {}, \"bounds\": [0.1, 1], "
      "\"counts\": [1, 1, 1], \"count\": 3, \"sum\": 5.55}\n"
      "  ]\n"
      "}";
  EXPECT_EQ(obs::RenderJson(reg.Snapshot()), expected);
}

TEST(ExpositionTest, LabelValuesAreEscaped) {
  Registry reg;
  reg.GetCounter("t_total", "h", {{"k", "a\"b\\c\nd"}})->Inc();
  std::string prom = obs::RenderPrometheus(reg.Snapshot());
  EXPECT_NE(prom.find("k=\"a\\\"b\\\\c\\nd\""), std::string::npos) << prom;
  std::string json = obs::RenderJson(reg.Snapshot());
  EXPECT_NE(json.find("\"k\": \"a\\\"b\\\\c\\nd\""), std::string::npos) << json;
}

TEST(ExpositionTest, FormatDoubleRoundTripsAndHandlesNonFinite) {
  EXPECT_EQ(obs::FormatDouble(0.1), "0.1");
  EXPECT_EQ(obs::FormatDouble(1.0), "1");
  EXPECT_EQ(obs::FormatDouble(1e-06), "1e-06");
  EXPECT_EQ(obs::FormatDouble(std::numeric_limits<double>::infinity()), "+Inf");
  EXPECT_EQ(obs::FormatDouble(-std::numeric_limits<double>::infinity()), "-Inf");
  EXPECT_EQ(obs::FormatDouble(std::nan("")), "NaN");
}

// A tiny parser of the Prometheus text format: every line must be a comment
// (`# HELP` / `# TYPE`) or a sample `name[{labels}] value`; histogram
// `_bucket` series must be cumulative and end at `_count`'s value. Applied
// to the full global-registry snapshot, so every exported family in the
// library is checked for well-formedness.
void CheckPrometheusParses(const std::string& text) {
  std::uint64_t last_bucket = 0;
  std::string bucket_family;
  std::size_t pos = 0;
  int samples = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "missing trailing newline";
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    // Sample: metric name, optional {labels}, space, value.
    std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    std::string series = line.substr(0, sp);
    std::string value = line.substr(sp + 1);
    EXPECT_FALSE(value.empty()) << line;
    std::string name = series.substr(0, series.find('{'));
    ASSERT_FALSE(name.empty()) << line;
    for (char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')
          << line;
    }
    if (series.find('{') != std::string::npos) {
      EXPECT_EQ(series.back(), '}') << line;
    }
    // Cumulative-bucket check per (family, labels) series run.
    if (name.size() > 7 && name.compare(name.size() - 7, 7, "_bucket") == 0) {
      if (series != bucket_family) {
        // A new histogram series starts; its first bucket resets the run.
        last_bucket = 0;
      }
      std::uint64_t v = std::stoull(value);
      EXPECT_GE(v, last_bucket) << line;
      last_bucket = v;
      std::size_t le = series.find("le=\"");
      ASSERT_NE(le, std::string::npos) << line;
      bucket_family = series;
    } else {
      bucket_family.clear();
      last_bucket = 0;
    }
    ++samples;
  }
  EXPECT_GT(samples, 0);
}

TEST(ExpositionTest, GlobalSnapshotPrometheusParses) {
  // Make sure the library families exist (engine construction registers
  // pool metrics; one query registers engine/solver/cache families).
  ImplicationEngine engine(EngineOptions{});
  ConstraintSet premises;
  premises.push_back(DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}})));
  (void)engine.CheckOne(4, premises, DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{2}})));
  CheckPrometheusParses(obs::SnapshotPrometheus());
}

// ---------------------------------------------------------------------------
// Tracing.

TEST(TraceTest, SpansNestWithParentAndDepth) {
  Tracer tracer(true);
  int outer = tracer.Begin("outer");
  int inner = tracer.Begin("inner");
  tracer.End(inner);
  int second = tracer.Begin("second");
  tracer.End(second);
  tracer.End(outer);
  TraceRecord rec = tracer.Finish();
  ASSERT_EQ(rec.spans.size(), 3u);
  EXPECT_EQ(rec.spans[0].name, "outer");
  EXPECT_EQ(rec.spans[0].parent, -1);
  EXPECT_EQ(rec.spans[0].depth, 0);
  EXPECT_EQ(rec.spans[1].name, "inner");
  EXPECT_EQ(rec.spans[1].parent, 0);
  EXPECT_EQ(rec.spans[1].depth, 1);
  EXPECT_EQ(rec.spans[2].name, "second");
  EXPECT_EQ(rec.spans[2].parent, 0);
  EXPECT_EQ(rec.spans[2].depth, 1);
  // Children are contained in the parent.
  EXPECT_GE(rec.spans[1].start_ns, rec.spans[0].start_ns);
  EXPECT_LE(rec.spans[1].start_ns + rec.spans[1].duration_ns,
            rec.spans[0].start_ns + rec.spans[0].duration_ns);
  EXPECT_EQ(rec.TotalNs(), rec.spans[0].duration_ns);
}

TEST(TraceTest, EndClosesStillOpenDescendants) {
  // An early return unwinds guards in LIFO order, but a hand-written End on
  // an outer span must not leave orphans open.
  Tracer tracer(true);
  int outer = tracer.Begin("outer");
  tracer.Begin("leaked-child");
  tracer.End(outer);
  TraceRecord rec = tracer.Finish();
  ASSERT_EQ(rec.spans.size(), 2u);
  EXPECT_GT(rec.spans[1].duration_ns, 0u);
  EXPECT_LE(rec.spans[1].start_ns + rec.spans[1].duration_ns,
            rec.spans[0].start_ns + rec.spans[0].duration_ns);
}

TEST(TraceTest, HottestLeafFindsTheExpensiveSpan) {
  Tracer tracer(true);
  {
    obs::SpanGuard a(&tracer, "cheap");
  }
  {
    obs::SpanGuard b(&tracer, "expensive");
    obs::SpanGuard c(&tracer, "expensive-child");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  TraceRecord rec = tracer.Finish();
  int hottest = rec.HottestLeaf();
  ASSERT_GE(hottest, 0);
  EXPECT_EQ(rec.spans[hottest].name, "expensive-child");
  EXPECT_NE(rec.ToString().find("expensive-child"), std::string::npos);
  EXPECT_NE(rec.ToJson().find("\"expensive-child\""), std::string::npos);
}

TEST(TraceTest, DisabledTracerRecordsNothing) {
  Tracer tracer;  // Default: disabled.
  EXPECT_FALSE(tracer.enabled());
  {
    obs::SpanGuard a(&tracer, "ignored");
  }
  EXPECT_EQ(tracer.Begin("also-ignored"), -1);
  EXPECT_TRUE(tracer.Finish().spans.empty());
  // Null tracer is legal for SpanGuard too.
  obs::SpanGuard b(nullptr, "ignored");
}

TEST(TraceTest, RecordsCarryOneWallClockAnchor) {
  // Regression (PR 8): /tracez needs absolute times, so every enabled
  // tracer stamps exactly one system_clock anchor; the spans themselves
  // stay on steady_clock offsets. The anchor must fall inside the
  // [before, after] window bracketing the tracer's construction.
  const auto before = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count();
  Tracer tracer(true);
  {
    obs::SpanGuard a(&tracer, "work");
  }
  const auto after = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  TraceRecord rec = tracer.Finish();
  EXPECT_GE(rec.wall_start_unix_ns, static_cast<std::uint64_t>(before));
  EXPECT_LE(rec.wall_start_unix_ns, static_cast<std::uint64_t>(after));
  // A disabled tracer has no anchor to offer.
  EXPECT_EQ(Tracer().Finish().wall_start_unix_ns, 0u);
  // Reuse after Finish re-anchors: the second record's anchor is no
  // earlier than the first's.
  tracer.Begin("again");
  EXPECT_GE(tracer.Finish().wall_start_unix_ns, rec.wall_start_unix_ns);
}

TEST(TraceTest, NoteRecordsInstantEventsWithDetail) {
  Tracer tracer(true);
  int root = tracer.Begin("call");
  tracer.Note("backoff", "25ms shed");
  tracer.Note("plain");
  tracer.End(root);
  TraceRecord rec = tracer.Finish();
  ASSERT_EQ(rec.spans.size(), 3u);
  EXPECT_EQ(rec.spans[1].name, "backoff");
  EXPECT_EQ(rec.spans[1].parent, 0);
  EXPECT_EQ(rec.spans[1].duration_ns, 0u);
  EXPECT_EQ(rec.spans[1].detail, "25ms shed");
  // Detail shows up in JSON only when non-empty.
  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"detail\": \"25ms shed\""), std::string::npos);
  EXPECT_EQ(json.find("\"detail\": \"\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace store.

TEST(TraceStoreTest, StoredTraceJsonGolden) {
  obs::StoredTrace st;
  st.trace_id_hi = 0x0123456789ABCDEFull;
  st.trace_id_lo = 0xFEDCBA9876543210ull;
  st.span_id = 0x1111;
  st.parent_span_id = 0;
  st.kind = "server";
  st.name = "check-batch";
  st.status = "ok";
  st.sampled = true;
  st.record.wall_start_unix_ns = 1700000000000000000ull;
  st.record.spans.push_back(obs::TraceSpan{"server:check-batch", -1, 0, 0, 42, ""});
  st.duration_ns = 42;
  EXPECT_EQ(st.TraceIdHex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(st.ToJson(),
            "{\"trace_id\": \"0123456789abcdeffedcba9876543210\", "
            "\"span_id\": \"0000000000001111\", "
            "\"parent_span_id\": \"0000000000000000\", "
            "\"kind\": \"server\", \"name\": \"check-batch\", \"status\": \"ok\", "
            "\"sampled\": true, \"forced\": false, \"slow\": false, "
            "\"shed\": false, \"errored\": false, \"duration_ns\": 42, "
            "\"wall_start_unix_ns\": 1700000000000000000, "
            "\"spans\": [{\"name\": \"server:check-batch\", \"parent\": -1, "
            "\"depth\": 0, \"start_ns\": 0, \"duration_ns\": 42}]}");
}

TEST(TraceStoreTest, RingOverwritesOldestAndFindsById) {
  obs::TraceStore store(2);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    obs::StoredTrace st;
    st.trace_id_hi = i;
    st.trace_id_lo = i;
    store.Add(st);
  }
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.total(), 3u);
  EXPECT_EQ(store.dropped(), 1u);
  std::vector<obs::StoredTrace> all = store.Snapshot();
  ASSERT_EQ(all.size(), 2u);
  // Oldest first; trace 1 was overwritten.
  EXPECT_EQ(all[0].trace_id_hi, 2u);
  EXPECT_EQ(all[1].trace_id_hi, 3u);
  EXPECT_TRUE(store.FindByTraceId(1, 1).empty());
  EXPECT_EQ(store.FindByTraceId(3, 3).size(), 1u);
}

TEST(TraceStoreTest, AppendChildRecordGraftsUnderAttachSpan) {
  // The server grafts engine records under its "execute" span: parents and
  // depths shift, and the child's steady offsets are re-based via the two
  // wall anchors.
  TraceRecord server;
  server.wall_start_unix_ns = 1000;
  server.spans.push_back(obs::TraceSpan{"server:check-batch", -1, 0, 0, 500, ""});
  server.spans.push_back(obs::TraceSpan{"execute", 0, 1, 100, 300, ""});
  TraceRecord engine;
  engine.wall_start_unix_ns = 1150;  // 150 ns after the server anchor.
  engine.spans.push_back(obs::TraceSpan{"sat", -1, 0, 0, 200, ""});
  engine.spans.push_back(obs::TraceSpan{"solve", 0, 1, 10, 100, ""});

  obs::AppendChildRecord(&server, 1, engine);
  ASSERT_EQ(server.spans.size(), 4u);
  EXPECT_EQ(server.spans[2].name, "sat");
  EXPECT_EQ(server.spans[2].parent, 1);  // Re-parented under "execute".
  EXPECT_EQ(server.spans[2].depth, 2);
  EXPECT_EQ(server.spans[2].start_ns, 150u);  // Wall-anchor delta.
  EXPECT_EQ(server.spans[3].name, "solve");
  EXPECT_EQ(server.spans[3].parent, 2);  // Internal edges preserved.
  EXPECT_EQ(server.spans[3].depth, 3);
  EXPECT_EQ(server.spans[3].start_ns, 160u);

  // A child without an anchor lands at the attach span's start.
  TraceRecord bare;
  bare.spans.push_back(obs::TraceSpan{"unanchored", -1, 0, 0, 5, ""});
  obs::AppendChildRecord(&server, 1, bare);
  EXPECT_EQ(server.spans[4].start_ns, 100u);
}

TEST(TraceStoreTest, AddReturnsTheRunningSequenceAcrossWraparound) {
  // The sequence number is the store's running total, so it keeps counting
  // through wraparound and Clear: diffcd prints it as a slow request's seq.
  obs::TraceStore store(2);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    obs::StoredTrace st;
    st.trace_id_hi = i;
    EXPECT_EQ(store.Add(st), i);
  }
  EXPECT_EQ(store.total(), 3u);
  EXPECT_EQ(store.dropped(), 1u);
  ASSERT_EQ(store.Snapshot().size(), 2u);
  EXPECT_EQ(store.Snapshot()[0].trace_id_hi, 2u);  // Oldest surviving entry.
  store.Clear();
  EXPECT_EQ(store.Add(obs::StoredTrace{}), 4u);
  EXPECT_EQ(store.size(), 1u);

  // The slow store behind /slowz is a separate ring of fixed capacity.
  EXPECT_NE(&obs::GlobalSlowTraceStore(), &obs::GlobalTraceStore());
  EXPECT_EQ(obs::GlobalSlowTraceStore().capacity(), obs::kSlowTraceStoreCapacity);
}

TEST(TraceStoreTest, RandomTraceBitsAreNonzeroAndSamplingDrawInRange) {
  for (int i = 0; i < 64; ++i) {
    EXPECT_NE(obs::RandomTraceBits(), 0u);
    const double d = obs::SamplingDraw();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: engine instrumentation.

// Handles into the global registry for delta assertions. Help strings must
// not conflict with the library's registrations — re-registration returns
// the existing handle regardless of help text (and of buckets, so these pass
// the library's own in case they register first).
obs::Histogram* QueryLatency(const char* procedure) {
  return Registry::Global().GetHistogram("diffc_engine_query_seconds", "",
                                         obs::ExponentialBuckets(1e-6, 4.0, 14),
                                         {{"procedure", procedure}});
}

obs::Histogram* BatchLatency() {
  return Registry::Global().GetHistogram("diffc_engine_batch_seconds", "",
                                         obs::ExponentialBuckets(1e-5, 4.0, 12));
}

obs::Counter* OutcomeCounter(const char* outcome) {
  return Registry::Global().GetCounter("diffc_engine_outcomes_total", "",
                                       {{"outcome", outcome}});
}

TEST(EngineObservabilityTest, CheckBatchFlushesQueryAndOutcomeCounters) {
  const std::uint64_t implied0 = OutcomeCounter("implied")->Value();
  const std::uint64_t trivial0 = QueryLatency("trivial")->Count();
  const std::uint64_t batches0 = BatchLatency()->Count();

  ImplicationEngine engine(EngineOptions{});
  ConstraintSet premises;
  premises.push_back(DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}})));
  // Trivial goal: a member inside the left-hand side.
  std::vector<DifferentialConstraint> goals(
      3, DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}})));
  Result<BatchOutcome> out = engine.CheckBatch(4, premises, goals);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->stats.implied, 3u);

  EXPECT_EQ(OutcomeCounter("implied")->Value(), implied0 + 3);
  EXPECT_EQ(QueryLatency("trivial")->Count(), trivial0 + 3);
  EXPECT_EQ(BatchLatency()->Count(), batches0 + 1);
}

TEST(EngineObservabilityTest, DegradedQueryPopulatesSlackTraceAndCounters) {
  obs::Histogram* slack = Registry::Global().GetHistogram(
      "diffc_deadline_slack_seconds", "", obs::ExponentialBuckets(1e-5, 4.0, 12));
  obs::Counter* degraded = Registry::Global().GetCounter(
      "diffc_engine_degraded_total", "", {{"from", "deadline"}});
  obs::Counter* unknown = OutcomeCounter("unknown");
  const std::uint64_t slack0 = slack->Count();
  const std::uint64_t degraded0 = degraded->Value();
  const std::uint64_t unknown0 = unknown->Value();

  // PHP(5,4) behind 22 pads needs about 2·10^8 search nodes, over a minute:
  // the 10 ms deadline fires inside the search with a margin of >1000×.
  prop::DnfFormula f = testing::PigeonholeDnf(4, 22);
  ConstraintSet premises = DnfTautologyReduction(f);
  EngineOptions opts;
  opts.per_query_deadline = std::chrono::milliseconds(10);
  opts.exhaustion_policy = ExhaustionPolicy::kDegrade;
  opts.trace = true;
  // A zero witness budget: the witness probe stops at its first candidate
  // transversal instead of spending the 10 ms on a slow machine, so
  // interval cover is inconclusive and the budget runs out in `sat`.
  opts.witness_max_results = 0;
  ImplicationEngine engine(opts);
  EngineQueryResult r = engine.CheckOne(f.num_vars, premises, TautologyGoal());
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.outcome.verdict, ImplicationOutcome::kUnknown);

  // The acceptance criterion: the trace names the phase that consumed the
  // budget. The query dies inside the search, so the hottest leaf is "sat".
  ASSERT_NE(r.trace, nullptr);
  ASSERT_FALSE(r.trace->spans.empty());
  int hottest = r.trace->HottestLeaf();
  ASSERT_GE(hottest, 0);
  EXPECT_EQ(r.trace->spans[hottest].name, "sat") << r.trace->ToString();

  // The slack histogram got a sample (a degraded query finished with ~zero
  // slack, which still counts), and the degrade surfaced in the counters.
  EXPECT_EQ(slack->Count(), slack0 + 1);
  EXPECT_EQ(degraded->Value(), degraded0 + 1);
  EXPECT_EQ(unknown->Value(), unknown0 + 1);
}

TEST(EngineObservabilityTest, UntracedQueriesCarryNoTraceRecord) {
  ImplicationEngine engine(EngineOptions{});  // trace defaults off.
  ConstraintSet premises;
  premises.push_back(DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}})));
  EngineQueryResult r = engine.CheckOne(
      4, premises, DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{2}})));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.trace, nullptr);
}

}  // namespace
}  // namespace diffc
