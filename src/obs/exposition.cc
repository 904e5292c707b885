#include "obs/exposition.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace diffc::obs {

namespace {

// Prometheus label values escape backslash, double-quote, and newline.
std::string PromLabelEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// HELP text escapes backslash and newline (quotes are legal there).
std::string PromHelpEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// `{k="v",...}`, with `extra` appended last (used for the `le` label);
// empty when there are no labels at all.
std::string PromLabels(const Labels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + PromLabelEscape(v) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

void EmitFamilyHeader(std::string& out, std::string& last_family,
                      const std::string& name, const std::string& help,
                      const char* type) {
  if (name == last_family) return;
  last_family = name;
  out += "# HELP " + name + " " + PromHelpEscape(help) + "\n";
  out += "# TYPE " + name + " " + type + "\n";
}

void AppendJsonLabels(std::string& out, const Labels& labels) {
  out += "\"labels\": {";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += JsonEscape(k);
    out += "\": \"";
    out += JsonEscape(v);
    out += '"';
  }
  out += "}";
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    double back = 0;
    std::sscanf(shorter, "%lf", &back);
    if (back == v) return shorter;
  }
  return buf;
}

std::string HexU64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_family;
  for (const CounterSample& c : snapshot.counters) {
    EmitFamilyHeader(out, last_family, c.name, c.help, "counter");
    out += c.name + PromLabels(c.labels) + " " + std::to_string(c.value) + "\n";
  }
  last_family.clear();
  for (const GaugeSample& g : snapshot.gauges) {
    EmitFamilyHeader(out, last_family, g.name, g.help, "gauge");
    out += g.name + PromLabels(g.labels) + " " + FormatDouble(g.value) + "\n";
  }
  last_family.clear();
  for (const HistogramSample& h : snapshot.histograms) {
    EmitFamilyHeader(out, last_family, h.name, h.help, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.buckets[i];
      out += h.name + "_bucket" +
             PromLabels(h.labels, "le=\"" + FormatDouble(h.bounds[i]) + "\"") + " " +
             std::to_string(cumulative) + "\n";
    }
    cumulative += h.buckets.empty() ? 0 : h.buckets.back();
    out += h.name + "_bucket" + PromLabels(h.labels, "le=\"+Inf\"") + " " +
           std::to_string(cumulative) + "\n";
    out += h.name + "_sum" + PromLabels(h.labels) + " " + FormatDouble(h.sum) + "\n";
    out += h.name + "_count" + PromLabels(h.labels) + " " + std::to_string(h.count) +
           "\n";
  }
  return out;
}

std::string RenderJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": [";
  bool first = true;
  for (const CounterSample& c : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + JsonEscape(c.name) + "\", ";
    AppendJsonLabels(out, c.labels);
    out += ", \"value\": " + std::to_string(c.value) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"gauges\": [";
  first = true;
  for (const GaugeSample& g : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + JsonEscape(g.name) + "\", ";
    AppendJsonLabels(out, g.labels);
    out += ", \"value\": " + FormatDouble(std::isfinite(g.value) ? g.value : 0.0) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"histograms\": [";
  first = true;
  for (const HistogramSample& h : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + JsonEscape(h.name) + "\", ";
    AppendJsonLabels(out, h.labels);
    out += ", \"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      out += FormatDouble(h.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.buckets[i]);
    }
    out += "], \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + FormatDouble(std::isfinite(h.sum) ? h.sum : 0.0) + "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}";
  return out;
}

std::string SnapshotPrometheus() {
  return RenderPrometheus(Registry::Global().Snapshot());
}

std::string SnapshotJson() { return RenderJson(Registry::Global().Snapshot()); }

}  // namespace diffc::obs
