// The benchmark's own arithmetic: order statistics over epoch timings, the
// per-layer self times derived from aggregate span paths, and the
// end-to-end accounting of epoch failures, frame misses and shed streams.
// Pure functions, tested in stats_test.cpp. The order statistics do not
// reuse src/common/stats, so a change to the program under test cannot
// move the benchmark's own arithmetic.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "obs/obs.hpp"

namespace perfbench {

// ---- Order statistics --------------------------------------------------

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First, second and third quartile by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), the definition the spread rule of
/// BENCHMARK.json is checked with. Needs at least two values.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  std::array<double, 3> q{};
  if (v.size() < 2) {
    q.fill(v.empty() ? 0.0 : v.front());
    return q;
  }
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

/// The tail statistic: the highest percentile of a fixed ladder that still
/// has at least `min_beyond` samples strictly above its nearest-rank
/// position. `beyond` == 0 means no ladder rung qualified and `value` is
/// the sample maximum.
struct TailPick {
  double percentile = 100.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

inline TailPick pick_tail(std::vector<double> v, std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0, 95.0,
                                       90.0, 80.0, 75.0, 50.0};
  TailPick pick;
  pick.samples = v.size();
  if (v.empty()) return pick;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const double p : kLadder) {
    // Nearest rank: the smallest rank k with k >= n·p/100 (1-based).
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9));
    const std::size_t k = std::clamp<std::size_t>(rank, 1, n);
    if (n - k >= min_beyond) {
      pick.percentile = p;
      pick.value = v[k - 1];
      pick.beyond = n - k;
      return pick;
    }
  }
  pick.value = v.back();
  return pick;
}

// ---- Span paths ----------------------------------------------------------

/// Last '/'-separated component of a span path.
inline std::string leaf_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Self time of every recorded path: its total minus the totals of its
/// direct children (paths one component longer). A path with no children
/// keeps its whole total. Negative values are possible only when children
/// ran concurrently on other threads, which the traced run (1 worker)
/// rules out.
inline std::map<std::string, double> self_ns(
    const std::vector<pamo::obs::SpanStat>& stats) {
  std::map<std::string, double> self;
  for (const auto& s : stats) self[s.path] += static_cast<double>(s.total_ns);
  for (const auto& s : stats) {
    const std::size_t slash = s.path.rfind('/');
    if (slash == std::string::npos) continue;
    const std::string parent = s.path.substr(0, slash);
    const auto it = self.find(parent);
    if (it != self.end()) it->second -= static_cast<double>(s.total_ns);
  }
  return self;
}

/// Does `path` lie at or below `root` (a full path)?
inline bool under(const std::string& path, const std::string& root) {
  return path == root ||
         (path.size() > root.size() && path.compare(0, root.size(), root) == 0 &&
          path[root.size()] == '/');
}

/// Does a component before the leaf of `path` equal `name`?
inline bool has_ancestor(const std::string& path, const std::string& name) {
  std::size_t begin = 0;
  for (std::size_t slash = path.find('/'); slash != std::string::npos;
       slash = path.find('/', begin)) {
    if (path.compare(begin, slash - begin, name) == 0 &&
        slash - begin == name.size()) {
      return true;
    }
    begin = slash + 1;
  }
  return false;
}

/// Aggregate of one layer: every path under `root` whose leaf is `name`,
/// outermost occurrences only (a span nested in a span of the same name is
/// already inside its parent's total).
struct LayerTotal {
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::uint64_t count = 0;
  double max_ns = 0.0;
};

inline LayerTotal layer_total(const std::vector<pamo::obs::SpanStat>& stats,
                              const std::map<std::string, double>& self,
                              const std::string& root,
                              const std::string& name) {
  LayerTotal t;
  for (const auto& s : stats) {
    if (!under(s.path, root) || leaf_of(s.path) != name) continue;
    if (has_ancestor(s.path, name)) continue;  // inside an outer `name`
    t.total_ns += static_cast<double>(s.total_ns);
    t.count += s.count;
    t.max_ns = std::max(t.max_ns, static_cast<double>(s.max_ns));
    const auto it = self.find(s.path);
    if (it != self.end()) t.self_ns += it->second;
  }
  return t;
}

// ---- End-to-end accounting -------------------------------------------------

using EpochReport = pamo::core::SchedulingService::EpochReport;

/// A failed epoch: infeasible, carried by the last-known-good fallback, or
/// one that absorbed an optimizer or repair error.
inline bool epoch_failed(const EpochReport& r) {
  return !r.feasible || r.fallback || r.health.fallback_taken ||
         r.health.optimizer_error || r.health.repair_error;
}

/// The validation simulation of the decision the epoch actually serves:
/// the re-validated repaired decision when the resilience loop repaired it.
inline const pamo::sim::SimReport& served_sim(const EpochReport& r) {
  return r.repaired ? r.post_repair_sim : r.sim;
}

/// Running end-to-end tallies over the epochs of one lineage pass.
struct Tally {
  std::size_t epochs = 0;
  std::size_t failed = 0;
  std::size_t frames_emitted = 0;
  std::size_t frames_missed = 0;  // dropped + served over the SLO
  std::size_t offered = 0;
  std::size_t shed = 0;

  void add(const EpochReport& r) {
    ++epochs;
    if (epoch_failed(r)) ++failed;
    if (r.feasible) {
      const pamo::sim::SimReport& s = served_sim(r);
      frames_emitted += s.total_emitted;
      frames_missed += s.total_dropped + s.slo_violations;
    }
    offered += r.churn.offered;
    shed += r.churn.shed;
  }

  [[nodiscard]] double epoch_fail_ratio() const {
    return epochs == 0 ? 0.0 : static_cast<double>(failed) / epochs;
  }
  [[nodiscard]] double frame_miss_ratio() const {
    return frames_emitted == 0
               ? 0.0
               : static_cast<double>(frames_missed) / frames_emitted;
  }
  [[nodiscard]] double streams_shed_ratio() const {
    return offered == 0 ? 0.0 : static_cast<double>(shed) / offered;
  }
};

}  // namespace perfbench
