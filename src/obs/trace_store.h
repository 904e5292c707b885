#ifndef DIFFC_OBS_TRACE_STORE_H_
#define DIFFC_OBS_TRACE_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace diffc::obs {

/// Storage for completed request traces (PR 8). Where `Tracer` builds one
/// in-process span tree, `StoredTrace` wraps that tree with the wire-level
/// identity (trace id, span ids) that lets a client-side record and the
/// server-side record of the same request be found together, and
/// `TraceStore` is the bounded ring the /tracez endpoint reads. A second
/// instance keeps only requests that crossed the slow-query threshold and
/// backs /slowz.

/// One finished request-scoped trace as retained for /tracez.
struct StoredTrace {
  /// 16-byte trace id, split into two u64 halves (hi printed first).
  std::uint64_t trace_id_hi = 0;
  std::uint64_t trace_id_lo = 0;
  /// This record's own span id (client root span or server span).
  std::uint64_t span_id = 0;
  /// Span id of the remote parent (0 when this side minted the trace).
  std::uint64_t parent_span_id = 0;
  /// "client" or "server" — which side of the wire recorded this.
  std::string kind;
  /// Operation name, e.g. "check-batch", "register-premises".
  std::string name;
  /// "ok", "error", or "shed".
  std::string status = "ok";
  /// Head-sampling decision that was propagated on the wire.
  bool sampled = false;
  /// True when sampling was forced (client --trace / wire flag) rather
  /// than drawn.
  bool forced = false;
  /// Tail always-sample reasons (any one of these stores an otherwise
  /// unsampled trace).
  bool slow = false;
  bool shed = false;
  bool errored = false;
  /// End-to-end duration of this record's root span, nanoseconds.
  std::uint64_t duration_ns = 0;
  /// The span tree (carries the wall-clock anchor for absolute times).
  TraceRecord record;

  /// 32 lower-case hex digits, hi half first.
  std::string TraceIdHex() const;

  /// One JSON object (schema documented in DESIGN.md §12):
  ///     {"trace_id": "...", "span_id": "...", "parent_span_id": "...",
  ///      "kind": "server", "name": "check-batch", "status": "ok",
  ///      "sampled": true, "forced": false, "slow": false, "shed": false,
  ///      "errored": false, "duration_ns": N, "wall_start_unix_ns": N,
  ///      "spans": [...]}
  std::string ToJson() const;
};

/// Bounded thread-safe ring of `StoredTrace`s, newest-wins. One process
/// global (`GlobalTraceStore()`) collects both client- and server-side
/// records so an in-process loopback test sees the joined trace.
class TraceStore {
 public:
  explicit TraceStore(std::size_t capacity = 256);

  /// Retains `trace`, overwriting the oldest entry when full, and returns
  /// its sequence number: the store's running total, 1 for the first
  /// trace ever added. Thread-safe.
  std::uint64_t Add(StoredTrace trace) EXCLUDES(mu_);

  /// Oldest-to-newest copy of the retained traces.
  std::vector<StoredTrace> Snapshot() const EXCLUDES(mu_);

  /// All retained records carrying the given trace id, oldest first —
  /// a joined view of one request (client record + server records).
  std::vector<StoredTrace> FindByTraceId(std::uint64_t hi, std::uint64_t lo) const
      EXCLUDES(mu_);

  /// Resizes the ring (drops retained entries; counters survive). Used at
  /// server start to apply --trace_store_capacity.
  void SetCapacity(std::size_t capacity) EXCLUDES(mu_);

  /// Drops every retained trace; counters survive.
  void Clear() EXCLUDES(mu_);

  std::size_t capacity() const EXCLUDES(mu_);
  std::size_t size() const EXCLUDES(mu_);
  /// Traces ever added (including overwritten ones).
  std::uint64_t total() const EXCLUDES(mu_);
  /// Traces overwritten by wraparound.
  std::uint64_t dropped() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::size_t capacity_ GUARDED_BY(mu_);
  std::vector<StoredTrace> ring_ GUARDED_BY(mu_);  // Up to capacity_ entries.
  std::size_t next_ GUARDED_BY(mu_) = 0;           // Overwrite position once full.
  std::uint64_t total_ GUARDED_BY(mu_) = 0;
  std::uint64_t dropped_ GUARDED_BY(mu_) = 0;
};

/// The process-wide trace sink /tracez reads.
TraceStore& GlobalTraceStore();

/// Retained slow requests in `GlobalSlowTraceStore()`: fixed, so /slowz
/// keeps the last slow requests however busy the main store is.
inline constexpr std::size_t kSlowTraceStoreCapacity = 128;

/// The process-wide store of slow requests /slowz reads. A slow request
/// lands here and in `GlobalTraceStore()`; this one holds nothing else.
TraceStore& GlobalSlowTraceStore();

/// A nonzero pseudo-random 64-bit value from a thread-local generator
/// seeded with entropy — trace- and span-id minting. Not cryptographic;
/// collision odds across a store of hundreds of traces are negligible.
std::uint64_t RandomTraceBits();

/// Uniform double in [0, 1) from the same thread-local generator — the
/// head-sampling draw.
double SamplingDraw();

/// Grafts `child` (e.g. an engine TraceRecord) into `dst` under the span at
/// `attach_idx`: child roots become children of `attach_idx`, depths and
/// parent indices shift accordingly. Start offsets are re-based onto
/// `dst`'s timeline using the two records' wall-clock anchors; when the
/// child has no anchor its spans start at the attach span's start. Used by
/// the server to join engine traces into the request trace.
void AppendChildRecord(TraceRecord* dst, int attach_idx, const TraceRecord& child);

}  // namespace diffc::obs

#endif  // DIFFC_OBS_TRACE_STORE_H_
