#ifndef DIFFC_OBS_EXPOSITION_H_
#define DIFFC_OBS_EXPOSITION_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace diffc::obs {

/// Renders a snapshot in the Prometheus text exposition format (version
/// 0.0.4): `# HELP` / `# TYPE` per family, samples as `name{labels} value`,
/// histograms as cumulative `_bucket{le=...}` series plus `_sum` and
/// `_count`. Families sharing a name emit one HELP/TYPE block. Output is
/// deterministic (snapshot order).
std::string RenderPrometheus(const MetricsSnapshot& snapshot);

/// Renders a snapshot as a JSON object:
///
///     {"counters": [{"name": ..., "labels": {...}, "value": N}, ...],
///      "gauges": [...],
///      "histograms": [{"name": ..., "labels": {...}, "bounds": [...],
///                      "counts": [...], "count": N, "sum": X}, ...]}
///
/// Histogram `counts` are non-cumulative with the +Inf bucket last
/// (`counts.size() == bounds.size() + 1`). Deterministic ordering.
std::string RenderJson(const MetricsSnapshot& snapshot);

/// Convenience: render the global registry right now.
std::string SnapshotPrometheus();
std::string SnapshotJson();

/// Escapes `s` for inclusion inside a JSON double-quoted string (quotes,
/// backslashes, control characters).
std::string JsonEscape(std::string_view s);

/// Formats a double the way the exposition layer does: shortest-roundtrip
/// decimal, "+Inf"/"-Inf"/"NaN" for non-finite values (Prometheus only; the
/// JSON renderer never emits non-finite numbers).
std::string FormatDouble(double v);

/// Lower-case zero-padded 16-digit hex, no "0x" prefix — the rendering used
/// for trace and span ids in /tracez and /slowz.
std::string HexU64(std::uint64_t v);

}  // namespace diffc::obs

#endif  // DIFFC_OBS_EXPOSITION_H_
