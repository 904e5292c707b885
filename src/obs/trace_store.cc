#include "obs/trace_store.h"

#include <random>
#include <utility>

#include "obs/exposition.h"

namespace diffc::obs {

namespace {

const char* BoolName(bool b) { return b ? "true" : "false"; }

}  // namespace

std::string StoredTrace::TraceIdHex() const {
  return HexU64(trace_id_hi) + HexU64(trace_id_lo);
}

std::string StoredTrace::ToJson() const {
  std::string out = "{\"trace_id\": \"" + TraceIdHex() +
                    "\", \"span_id\": \"" + HexU64(span_id) +
                    "\", \"parent_span_id\": \"" + HexU64(parent_span_id) +
                    "\", \"kind\": \"" + JsonEscape(kind) +
                    "\", \"name\": \"" + JsonEscape(name) +
                    "\", \"status\": \"" + JsonEscape(status) + "\"";
  out += std::string(", \"sampled\": ") + BoolName(sampled);
  out += std::string(", \"forced\": ") + BoolName(forced);
  out += std::string(", \"slow\": ") + BoolName(slow);
  out += std::string(", \"shed\": ") + BoolName(shed);
  out += std::string(", \"errored\": ") + BoolName(errored);
  out += ", \"duration_ns\": " + std::to_string(duration_ns);
  out += ", \"wall_start_unix_ns\": " + std::to_string(record.wall_start_unix_ns);
  out += ", \"spans\": " + record.ToJson();
  out += "}";
  return out;
}

TraceStore::TraceStore(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

std::uint64_t TraceStore::Add(StoredTrace trace) {
  MutexLock lock(&mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(trace));
  } else {
    ring_[next_] = std::move(trace);
    next_ = (next_ + 1) % capacity_;
    ++dropped_;
  }
  return ++total_;
}

std::vector<StoredTrace> TraceStore::Snapshot() const {
  MutexLock lock(&mu_);
  std::vector<StoredTrace> out;
  out.reserve(ring_.size());
  // Oldest first: the overwrite position is the oldest entry once full.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<StoredTrace> TraceStore::FindByTraceId(std::uint64_t hi,
                                                   std::uint64_t lo) const {
  MutexLock lock(&mu_);
  std::vector<StoredTrace> out;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const StoredTrace& t = ring_[(next_ + i) % ring_.size()];
    if (t.trace_id_hi == hi && t.trace_id_lo == lo) out.push_back(t);
  }
  return out;
}

void TraceStore::SetCapacity(std::size_t capacity) {
  MutexLock lock(&mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  next_ = 0;
}

void TraceStore::Clear() {
  MutexLock lock(&mu_);
  ring_.clear();
  next_ = 0;
}

std::size_t TraceStore::capacity() const {
  MutexLock lock(&mu_);
  return capacity_;
}

std::size_t TraceStore::size() const {
  MutexLock lock(&mu_);
  return ring_.size();
}

std::uint64_t TraceStore::total() const {
  MutexLock lock(&mu_);
  return total_;
}

std::uint64_t TraceStore::dropped() const {
  MutexLock lock(&mu_);
  return dropped_;
}

TraceStore& GlobalTraceStore() {
  static TraceStore* store = new TraceStore();
  return *store;
}

TraceStore& GlobalSlowTraceStore() {
  static TraceStore* store = new TraceStore(kSlowTraceStoreCapacity);
  return *store;
}

namespace {

std::mt19937_64& ThreadRng() {
  thread_local std::mt19937_64 rng = [] {
    std::random_device rd;
    std::seed_seq seq{rd(), rd(), rd(), rd()};
    return std::mt19937_64(seq);
  }();
  return rng;
}

}  // namespace

std::uint64_t RandomTraceBits() {
  std::uint64_t v = 0;
  while (v == 0) v = ThreadRng()();
  return v;
}

double SamplingDraw() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(ThreadRng());
}

void AppendChildRecord(TraceRecord* dst, int attach_idx, const TraceRecord& child) {
  if (dst == nullptr || child.spans.empty()) return;
  if (attach_idx < 0 || attach_idx >= static_cast<int>(dst->spans.size())) return;
  const int base = static_cast<int>(dst->spans.size());
  const int attach_depth = dst->spans[attach_idx].depth;
  // Re-base the child's steady-clock offsets onto dst's timeline. Both
  // anchors come from the same host clock, so the wall delta equals the
  // steady delta between the two records' t=0 points.
  std::uint64_t offset = dst->spans[attach_idx].start_ns;
  if (child.wall_start_unix_ns != 0 && dst->wall_start_unix_ns != 0 &&
      child.wall_start_unix_ns >= dst->wall_start_unix_ns) {
    offset = child.wall_start_unix_ns - dst->wall_start_unix_ns;
  }
  for (const TraceSpan& s : child.spans) {
    TraceSpan copy = s;
    copy.parent = s.parent < 0 ? attach_idx : s.parent + base;
    copy.depth = s.depth + attach_depth + 1;
    copy.start_ns = s.start_ns + offset;
    dst->spans.push_back(std::move(copy));
  }
}

}  // namespace diffc::obs
