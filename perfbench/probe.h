// Host-clock probes for the benchmark driver.
//
// The simulator itself never reads a host clock; every host timing the
// benchmark reports is taken here, around the driver's own calls into a
// layer's public API.  With tracing on, each probe also records a span
// (name, start, end, parent, op id) in memory; the spans are written once
// at exit so recording them costs a vector push, not I/O.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/types.h"

namespace zapc::perfbench {

/// Host seconds on a monotonic clock.
inline double host_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class HostTracer {
 public:
  struct Span {
    std::string name;  // "<layer>.<call>", e.g. "core.Manager::checkpoint"
    double start_s = 0;
    double end_s = 0;
    int parent = -1;  // index of the enclosing span, -1 at top level
    u64 op = 0;       // simulator op id, 0 when the call is not an op
  };

  void set_on(bool on) { on_ = on; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when tracing is off.
  int begin(const std::string& name) {
    if (!on_) return -1;
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, host_s(), 0, parent, 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Closes span `id` (a no-op for -1); `op` fills in an op id learned
  /// only at completion.
  void end(int id, u64 op = 0) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = host_s();
    if (op != 0) spans_[static_cast<std::size_t>(id)].op = op;
    auto it = std::find(open_.begin(), open_.end(), id);
    if (it != open_.end()) open_.erase(it);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as one JSON document, times relative to the first
  /// span; false on I/O failure.
  bool write(const std::string& path) const {
    const double t0 = spans_.empty() ? 0 : spans_.front().start_s;
    obs::Json arr = obs::Json::array();
    for (const Span& s : spans_) {
      obs::Json j = obs::Json::object();
      j["name"] = s.name;
      j["start_s"] = s.start_s - t0;
      j["end_s"] = s.end_s - t0;
      j["parent"] = s.parent;
      j["op"] = s.op;
      arr.push(std::move(j));
    }
    obs::Json doc = obs::Json::object();
    doc["schema"] = "zapc.perfbench.spans.v1";
    doc["spans"] = std::move(arr);
    std::ofstream f(path);
    f << doc.dump(1) << "\n";
    return static_cast<bool>(f);
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII probe: times one driver call and, when tracing, records its span.
class Probe {
 public:
  Probe(HostTracer& t, const std::string& name)
      : t_(t), id_(t.begin(name)), start_(host_s()) {}
  ~Probe() { stop(); }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Ends the probe (idempotent); returns its host seconds.
  double stop(u64 op = 0) {
    if (!stopped_) {
      elapsed_ = host_s() - start_;
      t_.end(id_, op);
      stopped_ = true;
    }
    return elapsed_;
  }

 private:
  HostTracer& t_;
  int id_;
  double start_;
  double elapsed_ = 0;
  bool stopped_ = false;
};

// ---- Small statistics helpers -----------------------------------------------

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Highest percentile p (in whole percent, p >= 50) that still leaves at
/// least `beyond` samples above it; 0 when the sample count is too small
/// for even the median to qualify.
inline int tail_percentile(std::size_t n, std::size_t beyond = 10) {
  for (int p = 99; p >= 50; --p) {
    double above = static_cast<double>(n) * (100 - p) / 100.0;
    if (above >= static_cast<double>(beyond)) return p;
  }
  return 0;
}

/// Nearest-rank percentile.
inline double percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(
      static_cast<double>(p) / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace zapc::perfbench
