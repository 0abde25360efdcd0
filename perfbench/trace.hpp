// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own code, around each call
// into a layer's public functions (Engine::run, ams_sort, deliver, ...).
// Each span carries a group id (all spans of one sort, or of one layer
// probe, share it) and the id of its parent span, so in-program spans can
// later nest under these. Spans stay in memory until the run ends and are
// then written out as Chrome trace-event JSON (plain text, viewable in
// chrome://tracing or Perfetto).
//
// Untraced runs pass a null Tracer*: a Scope over a null tracer reads no
// clock and records nothing.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  const char* layer = "";  ///< src/ module the called function belongs to
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t group = 0;   ///< shared by every span of one sort / probe
  std::int64_t tid = 0;      ///< PE rank for in-program spans, else host id
  double t0 = 0;             ///< seconds since the tracer's epoch
  double t1 = 0;
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  std::uint64_t new_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }
  void add(const Span& s) {
    std::lock_guard lock(mu_);
    spans_.push_back(s);
  }
  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const {
    std::lock_guard lock(mu_);
    return spans_;
  }

  /// Writes every span as a Chrome trace-event "complete" event. Returns
  /// false when the file cannot be written.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %lld, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu, "
                   "\"group\": %llu}}%s\n",
                   s.name, s.layer, s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                   static_cast<long long>(s.tid),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.group),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// RAII span: opened at construction, recorded at destruction. `id` may be
/// reserved beforehand (Tracer::new_id) when child spans must name their
/// parent before it opens.
class Scope {
 public:
  Scope(Tracer* tr, const char* name, const char* layer, std::uint64_t group,
        std::uint64_t parent, std::int64_t tid, std::uint64_t id = 0)
      : tr_(tr) {
    if (tr_ == nullptr) return;
    s_ = Span{name,  layer, id != 0 ? id : tr_->new_id(), parent, group, tid,
              tr_->now(), 0};
  }
  ~Scope() {
    if (tr_ == nullptr) return;
    s_.t1 = tr_->now();
    tr_->add(s_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return s_.id; }

 private:
  Tracer* tr_;
  Span s_;
};

using Intervals = std::vector<std::pair<double, double>>;

/// Sorts and merges overlapping intervals in place.
inline void merge_intervals(Intervals& iv) {
  std::sort(iv.begin(), iv.end());
  Intervals out;
  for (const auto& x : iv) {
    if (!out.empty() && x.first <= out.back().second)
      out.back().second = std::max(out.back().second, x.second);
    else
      out.push_back(x);
  }
  iv = std::move(out);
}

inline double measure(const Intervals& merged) {
  double s = 0;
  for (const auto& x : merged) s += x.second - x.first;
  return s;
}

/// Wall-clock seconds covered by the spans named `name` in `group`
/// (overlapping spans on different PEs count once).
inline double span_wall(const std::vector<Span>& spans, std::uint64_t group,
                        const std::string& name) {
  Intervals iv;
  for (const Span& s : spans)
    if (s.group == group && name == s.name) iv.emplace_back(s.t0, s.t1);
  merge_intervals(iv);
  return measure(iv);
}

/// Self time per layer over the spans of `groups`: each span's interval
/// minus the part its child spans cover, united over the layer's spans so
/// concurrent PEs count wall time once.
inline std::map<std::string, double> self_times(
    const std::vector<Span>& spans, const std::set<std::uint64_t>& groups) {
  std::map<std::uint64_t, Intervals> children;
  for (const Span& s : spans)
    if (groups.count(s.group) && s.parent != 0)
      children[s.parent].emplace_back(s.t0, s.t1);
  std::map<std::string, Intervals> own;
  for (const Span& s : spans) {
    if (!groups.count(s.group)) continue;
    Intervals& out = own[s.layer];
    auto it = children.find(s.id);
    if (it == children.end()) {
      out.emplace_back(s.t0, s.t1);
      continue;
    }
    Intervals& kids = it->second;
    merge_intervals(kids);
    double cur = s.t0;
    for (const auto& k : kids) {
      const double lo = std::max(k.first, s.t0);
      const double hi = std::min(k.second, s.t1);
      if (hi <= lo) continue;
      if (lo > cur) out.emplace_back(cur, lo);
      cur = std::max(cur, hi);
    }
    if (cur < s.t1) out.emplace_back(cur, s.t1);
  }
  std::map<std::string, double> res;
  for (auto& [layer, iv] : own) {
    merge_intervals(iv);
    res[layer] = measure(iv);
  }
  return res;
}

}  // namespace perfbench
