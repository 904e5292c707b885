#ifndef DIFFC_OBS_EVENT_LOG_H_
#define DIFFC_OBS_EVENT_LOG_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace diffc::obs {

/// A discrete, structured occurrence worth keeping for a post-mortem:
/// deadline exceeded, degrade, cache eviction, fail-point fire, worker
/// exception. Events are rare by construction — per-decision /
/// per-propagation happenings belong in metrics, not here.
struct Event {
  /// steady_clock nanoseconds at record time.
  std::uint64_t ns = 0;
  /// Monotonic sequence number across the log's lifetime (survives
  /// wraparound, so dropped ranges are visible as seq gaps).
  std::uint64_t seq = 0;
  /// Event type, e.g. "degrade", "deadline_exceeded", "cache_eviction".
  std::string type;
  /// Key/value payload, insertion-ordered.
  std::vector<std::pair<std::string, std::string>> fields;

  /// One JSONL line (no trailing newline):
  ///     {"seq": 7, "ns": 123, "type": "degrade", "k": "v", ...}
  std::string ToJsonLine() const;
};

/// A bounded, thread-safe sink of `Event`s operating as a ring-buffer
/// "flight recorder": the newest `capacity` events are retained, older ones
/// are overwritten (and counted in `dropped()`). Recording takes a mutex —
/// events are rare, and the lock keeps the ring and the sequence counter
/// consistent for dumps taken mid-flight.
class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 1024);

  /// Records an event (no-op while disabled). Thread-safe.
  void Record(std::string type,
              std::vector<std::pair<std::string, std::string>> fields = {})
      EXCLUDES(mu_);

  /// Oldest-to-newest copy of the retained events.
  std::vector<Event> Snapshot() const EXCLUDES(mu_);

  /// The retained events as JSONL, one event per line — the post-mortem
  /// dump format.
  std::string DumpJsonl() const;

  /// Drops every retained event; counters (`total`, `dropped`) survive.
  void Clear() EXCLUDES(mu_);

  /// Enables/disables recording (enabled by default). Disabling is the
  /// production off-switch; the flight recorder costs nothing when off.
  void SetEnabled(bool enabled) EXCLUDES(mu_);
  bool enabled() const EXCLUDES(mu_);

  std::size_t capacity() const { return capacity_; }
  /// Events ever recorded (including overwritten ones).
  std::uint64_t total() const EXCLUDES(mu_);
  /// Events overwritten by wraparound.
  std::uint64_t dropped() const EXCLUDES(mu_);

 private:
  const std::size_t capacity_;
  mutable Mutex mu_;
  bool enabled_ GUARDED_BY(mu_) = true;
  std::vector<Event> ring_ GUARDED_BY(mu_);   // Up to capacity_ entries.
  std::size_t next_ GUARDED_BY(mu_) = 0;      // Overwrite position once full.
  std::uint64_t total_ GUARDED_BY(mu_) = 0;
  std::uint64_t dropped_ GUARDED_BY(mu_) = 0;
};

/// The process-wide flight recorder every library site records into.
EventLog& GlobalEventLog();

}  // namespace diffc::obs

#endif  // DIFFC_OBS_EVENT_LOG_H_
