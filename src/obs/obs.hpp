// pamo::obs — unified observability: metrics, RAII span tracing, and the
// deterministic telemetry substrate the scheduler's own signals flow
// through.
//
// PaMO's premise is that a scheduler is only as good as the runtime
// signals it observes; this module is where the *reproduction's own*
// runtime signals live. It provides
//
//   * a process-global MetricsRegistry of named counters, gauges and
//     histograms. Registration is mutex-protected and storage is an
//     ordered map, so exports iterate in one fixed (lexicographic) order
//     regardless of which thread touched a metric first — never an
//     unordered container (pamo_analyze forbids those on decision paths, and
//     telemetry feeds decisions). Updates are lock-free atomics, safe from
//     inside common::ThreadPool workers. Counter adds and histogram bucket
//     counts are integer accumulations, and min/max fold with CAS loops,
//     so a snapshot is bit-for-bit identical at any worker count — only
//     *which values* were recorded matters, never the interleaving. (This
//     is also why histograms carry no floating-point sum: a cross-thread
//     double accumulation would be ordering-dependent.)
//
//   * RAII Span tracing (PAMO_SPAN("gp.update")): nested spans build
//     slash-joined paths via a thread-local stack, timings come from the
//     monotonic pamo::monotonic_ns() (never wall clock), and completed
//     spans fold into per-path aggregate stats plus a bounded raw event
//     log that tools/pamo_trace renders as a timeline.
//
//   * enabled(): a single relaxed atomic gate, default off. Every
//     recording macro and the Span constructor check it first, so the
//     instrumented hot paths (GP fit/update/posterior, acquisition
//     scoring, Phase-3 sweeps, scheduling, simulation, run_epoch) reduce
//     to one predictable branch when observability is off — the
//     bit-for-bit determinism digests are unaffected because *nothing
//     else runs*: no RNG draws, no allocation, no clock reads.
//
// Span durations are wall-time measurements and therefore never
// deterministic; everything *structural* about an export (key order,
// which metrics/spans exist, counts, bucket tallies) is.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pamo::obs {

/// Global observability gate. Default off: all recording is a no-op and
/// instrumented code paths behave bit-for-bit as if obs did not exist.
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// Clear all recorded values: metric values reset to zero (registered
/// metrics stay registered), span aggregates and the event log empty.
/// Callers scope an epoch's telemetry by reset() before and snapshot
/// after; recording from other threads during reset() is a data race by
/// contract (reset between parallel regions, not inside them).
void reset();

/// RAII enable-for-scope used by tests and tools: enables observability
/// and resets recorded state on entry, restores the previous gate on exit.
class ScopedEnable {
 public:
  ScopedEnable();
  ~ScopedEnable();

  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool previous_;
};

// ---- Metrics ---------------------------------------------------------------

/// Monotone event count. add() is atomic; concurrent adds commute exactly.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written level. Deterministic exports require call sites to set
/// gauges from serial sections (concurrent set() is safe but last-wins).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Value distribution: total count, exact min/max, and power-of-two
/// magnitude buckets (bucket k counts values v with floor(log2 v) == k−32;
/// non-positive values land in bucket 0). Integer bucket counts + CAS
/// min/max folds keep snapshots independent of recording order.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;
  Histogram() { reset(); }
  /// Bucket index of a value (pure function, exposed for tests/tools).
  [[nodiscard]] static std::size_t bucket_of(double v);

  void record(double v);
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double min() const;  // +inf when empty
  [[nodiscard]] double max() const;  // -inf when empty
  [[nodiscard]] std::uint64_t bucket(std::size_t k) const {
    return buckets_[k].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> min_{0.0};  // valid only when count_ > 0
  std::atomic<double> max_{0.0};
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
};

/// One exported histogram, buckets sparsified to (index, count) pairs.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double min = 0.0;  // 0 when count == 0
  double max = 0.0;
  std::vector<std::pair<std::size_t, std::uint64_t>> buckets;
};

/// Point-in-time copy of every registered metric, each section sorted by
/// name (the registry's ordered storage guarantees the order is stable).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

class MetricsRegistry {
 public:
  /// Process-wide registry used by the PAMO_* recording macros.
  static MetricsRegistry& global();

  /// Look up or register a metric. References stay valid for the registry's
  /// lifetime; registration is thread-safe, updates through the returned
  /// reference are lock-free.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  void reset();

 private:
  struct Impl;
  MetricsRegistry();
  ~MetricsRegistry();
  Impl* impl_;
};

// ---- Span tracing ----------------------------------------------------------

/// Aggregate stats of one span path ("service.run_epoch/gp.update").
struct SpanStat {
  std::string path;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
};

/// One completed span occurrence, for timeline rendering. Events beyond
/// the retention cap are counted (events_dropped) but not stored.
struct SpanEvent {
  std::string path;
  std::uint32_t depth = 0;       // nesting depth on the recording thread
  std::uint64_t start_ns = 0;    // monotonic_ns() at entry
  std::uint64_t duration_ns = 0;
};

struct SpanSnapshot {
  std::vector<SpanStat> stats;    // sorted by path
  std::vector<SpanEvent> events;  // sorted by (start_ns, path)
  std::uint64_t events_dropped = 0;
};

/// Aggregates + event log of all completed spans since the last reset().
[[nodiscard]] SpanSnapshot span_snapshot();

/// RAII trace span. Construction is a no-op when obs is disabled (the
/// gate is sampled once, so a span that started enabled always records).
/// Nested spans on one thread extend the path with '/'; spans opened on
/// pool workers start a fresh path (worker threads do not inherit the
/// caller's stack — document, don't guess, parentage across threads).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t start_ns_ = 0;
  std::size_t previous_path_length_ = 0;
  bool active_ = false;
};

// ---- Recording macros ------------------------------------------------------

#define PAMO_OBS_CONCAT_INNER(a, b) a##b
#define PAMO_OBS_CONCAT(a, b) PAMO_OBS_CONCAT_INNER(a, b)

/// Trace the enclosing scope under `name` (a string literal).
#define PAMO_SPAN(name) \
  ::pamo::obs::Span PAMO_OBS_CONCAT(pamo_obs_span_, __LINE__)(name)

/// Bump counter `name` by `n`; single-branch no-op when obs is off.
#define PAMO_COUNT(name, n)                                          \
  do {                                                               \
    if (::pamo::obs::enabled()) {                                    \
      ::pamo::obs::MetricsRegistry::global().counter(name).add(      \
          static_cast<std::uint64_t>(n));                            \
    }                                                                \
  } while (0)

/// Set gauge `name` to `v`; single-branch no-op when obs is off.
#define PAMO_GAUGE(name, v)                                          \
  do {                                                               \
    if (::pamo::obs::enabled()) {                                    \
      ::pamo::obs::MetricsRegistry::global().gauge(name).set(        \
          static_cast<double>(v));                                   \
    }                                                                \
  } while (0)

/// Record `v` into histogram `name`; single-branch no-op when obs is off.
#define PAMO_HISTOGRAM(name, v)                                      \
  do {                                                               \
    if (::pamo::obs::enabled()) {                                    \
      ::pamo::obs::MetricsRegistry::global().histogram(name).record( \
          static_cast<double>(v));                                   \
    }                                                                \
  } while (0)

}  // namespace pamo::obs
