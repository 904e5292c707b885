#ifndef DIFFC_OBS_TRACE_H_
#define DIFFC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace diffc::obs {

/// Per-query tracing: a lightweight span tree on `steady_clock`, recorded
/// by the engine when `EngineOptions::trace` is on. One `Tracer` lives per
/// query on the thread that runs it (not thread-safe, by design);
/// the finished `TraceRecord` is attached to the query result.
///
/// A disabled tracer (the default) costs one branch per span — every
/// `SpanGuard` checks `enabled()` before touching the clock — so tracing
/// adds nothing to untraced queries.

/// One completed (or still-open) span.
struct TraceSpan {
  std::string name;
  /// Index of the enclosing span in `TraceRecord::spans`, -1 for roots.
  int parent = -1;
  /// Nesting depth (roots at 0).
  int depth = 0;
  /// Start offset from the trace's start, nanoseconds.
  std::uint64_t start_ns = 0;
  /// Span duration, nanoseconds (0 while open).
  std::uint64_t duration_ns = 0;
  /// Free-form annotation (set for `Tracer::Note` event spans; empty for
  /// ordinary phase spans).
  std::string detail;
};

/// The span tree of one traced query, in span-start order (a parent always
/// precedes its children).
struct TraceRecord {
  std::vector<TraceSpan> spans;
  /// Wall-clock (`system_clock`) Unix nanoseconds at the tracer's
  /// construction — the anchor that turns the spans' steady-clock offsets
  /// into absolute times. Span offsets stay on `steady_clock` (monotonic,
  /// immune to NTP steps); renderers add the anchor when they need
  /// absolute timestamps (e.g. /tracez). 0 for records from a disabled
  /// tracer.
  std::uint64_t wall_start_unix_ns = 0;

  /// Total traced wall time: the sum of root-span durations.
  std::uint64_t TotalNs() const;

  /// The span with the largest *self* time (duration minus children), ties
  /// broken toward the deeper span — where the query actually spent its
  /// time. For a degraded query this names the solver phase that consumed
  /// the budget. Returns -1 when empty.
  int HottestLeaf() const;

  /// Human-readable indented tree, one span per line:
  ///     sat                        12.3ms
  std::string ToString() const;

  /// JSON array of span objects: [{"name", "parent", "depth", "start_ns",
  /// "duration_ns"}, ...].
  std::string ToJson() const;
};

/// Builds a `TraceRecord`. Spans nest by Begin/End pairing (LIFO); use
/// `SpanGuard` rather than calling Begin/End directly.
class Tracer {
 public:
  /// A tracer that records nothing (all calls are no-ops).
  Tracer() = default;

  /// `enabled` true: record spans. false: a no-op tracer.
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span. Returns a handle for End,
  /// or -1 when disabled.
  int Begin(std::string_view name);

  /// Closes the span `handle` (and any still-open descendants).
  void End(int handle);

  /// Records an instant event: a zero-duration span under the innermost
  /// open span, carrying `detail` as its annotation. The client's retry /
  /// backoff / reconnect events use this.
  void Note(std::string_view name, std::string_view detail = {});

  /// Closes every open span and returns the finished record. The tracer is
  /// left empty and may be reused.
  TraceRecord Finish();

 private:
  std::uint64_t NowRelNs() const;

  bool enabled_ = false;
  std::uint64_t start_ns_ = 0;  // Absolute steady_clock ns at construction.
  std::uint64_t wall_start_unix_ns_ = 0;  // system_clock anchor, see TraceRecord.
  TraceRecord record_;
  std::vector<int> open_;  // Stack of open span indices.
};

/// RAII span: opens on construction (when the tracer is non-null and
/// enabled), closes on destruction.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, std::string_view name) : tracer_(tracer) {
    if (tracer_ != nullptr && tracer_->enabled()) handle_ = tracer_->Begin(name);
  }
  ~SpanGuard() {
    if (tracer_ != nullptr && handle_ >= 0) tracer_->End(handle_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;
  int handle_ = -1;
};

}  // namespace diffc::obs

#endif  // DIFFC_OBS_TRACE_H_
