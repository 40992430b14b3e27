#include "pamo_trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

namespace pamo::tools {

namespace {

std::string format_ns(std::uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ull) {
    std::snprintf(buf, sizeof(buf), "%.3fs",
                  static_cast<double>(ns) / 1e9);
  } else if (ns >= 1000000ull) {
    std::snprintf(buf, sizeof(buf), "%.3fms",
                  static_cast<double>(ns) / 1e6);
  } else if (ns >= 1000ull) {
    std::snprintf(buf, sizeof(buf), "%.3fus",
                  static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ns));
  }
  return buf;
}

void check_sim(TraceCheck& check, const obs::EpochRecord::SimSummary& sim,
               const std::string& label) {
  if (sim.total_emitted != sim.total_frames + sim.total_dropped) {
    check.fail(label + ": frame conservation violated (emitted " +
               std::to_string(sim.total_emitted) + " != served " +
               std::to_string(sim.total_frames) + " + dropped " +
               std::to_string(sim.total_dropped) + ")");
  }
  if (sim.dropped_by_loss > sim.total_dropped) {
    check.fail(label + ": dropped_by_loss exceeds total_dropped");
  }
  if (sim.slo_violations > sim.total_frames) {
    check.fail(label + ": more SLO violations than served frames");
  }
  if (!std::isfinite(sim.mean_latency) || sim.mean_latency < 0.0 ||
      !std::isfinite(sim.max_jitter) || sim.max_jitter < 0.0 ||
      !std::isfinite(sim.total_queue_delay) || sim.total_queue_delay < 0.0) {
    check.fail(label + ": negative or non-finite latency statistics");
  }
}

}  // namespace

TraceCheck check_record(const obs::EpochRecord& record) {
  TraceCheck check;

  // ---- Span aggregate algebra. ----
  for (const auto& stat : record.spans.stats) {
    if (stat.path.empty()) check.fail("span stat with an empty path");
    if (stat.count == 0) {
      check.fail("span '" + stat.path + "' aggregated zero occurrences");
      continue;
    }
    if (stat.min_ns > stat.max_ns) {
      check.fail("span '" + stat.path + "': min_ns > max_ns");
    }
    // total is a sum of `count` durations each within [min, max].
    if (stat.total_ns < stat.min_ns * stat.count ||
        stat.total_ns > stat.max_ns * stat.count) {
      check.fail("span '" + stat.path +
                 "': total_ns outside [count*min, count*max]");
    }
  }
  // Stats are exported sorted by path, uniquely.
  for (std::size_t i = 1; i < record.spans.stats.size(); ++i) {
    if (record.spans.stats[i - 1].path >= record.spans.stats[i].path) {
      check.fail("span stats not sorted/unique at '" +
                 record.spans.stats[i].path + "'");
    }
  }

  // ---- Event log: ordering, and coverage against the aggregates. ----
  std::map<std::string, std::uint64_t> event_counts;
  for (std::size_t i = 0; i < record.spans.events.size(); ++i) {
    const auto& event = record.spans.events[i];
    if (event.path.empty()) check.fail("span event with an empty path");
    ++event_counts[event.path];
    if (i > 0 &&
        event.start_ns < record.spans.events[i - 1].start_ns) {
      check.fail("span events not sorted by start_ns at index " +
                 std::to_string(i));
    }
    // Depth is derivable from the path: depth == number of '/'.
    const auto slashes = static_cast<std::uint32_t>(
        std::count(event.path.begin(), event.path.end(), '/'));
    if (event.depth != slashes) {
      check.fail("span event '" + event.path +
                 "': depth does not match path nesting");
    }
  }
  for (const auto& [path, n] : event_counts) {
    const auto it = std::find_if(
        record.spans.stats.begin(), record.spans.stats.end(),
        [&](const obs::SpanStat& s) { return s.path == path; });
    if (it == record.spans.stats.end()) {
      check.fail("event path '" + path + "' missing from span stats");
    } else if (n > it->count) {
      check.fail("event path '" + path +
                 "': more logged events than aggregated occurrences");
    }
  }
  if (record.spans.events_dropped == 0) {
    // Without retention pressure the log is complete: totals must agree.
    std::uint64_t aggregated = 0;
    for (const auto& stat : record.spans.stats) aggregated += stat.count;
    if (aggregated != record.spans.events.size()) {
      check.fail("no events dropped, yet aggregate count " +
                 std::to_string(aggregated) + " != event log size " +
                 std::to_string(record.spans.events.size()));
    }
  }

  // ---- Metrics. ----
  for (std::size_t i = 1; i < record.metrics.counters.size(); ++i) {
    if (record.metrics.counters[i - 1].first >=
        record.metrics.counters[i].first) {
      check.fail("counters not sorted/unique at '" +
                 record.metrics.counters[i].first + "'");
    }
  }
  for (const auto& h : record.metrics.histograms) {
    std::uint64_t bucket_sum = 0;
    for (const auto& [index, count] : h.buckets) {
      if (index >= obs::Histogram::kBuckets) {
        check.fail("histogram '" + h.name + "': bucket index out of range");
      }
      if (count == 0) {
        check.fail("histogram '" + h.name + "': empty bucket exported");
      }
      bucket_sum += count;
    }
    if (bucket_sum != h.count) {
      check.fail("histogram '" + h.name + "': bucket sum " +
                 std::to_string(bucket_sum) + " != count " +
                 std::to_string(h.count));
    }
    if (h.count > 0 && h.min > h.max) {
      check.fail("histogram '" + h.name + "': min > max");
    }
  }

  // ---- Churn & admission accounting. ----
  // Every offered stream must land in exactly one bucket per epoch; a
  // governor that loses (or double-counts) a stream is a real bug, not a
  // rendering nit.
  const auto& churn = record.churn;
  if (churn.admitted + churn.deferred + churn.shed != churn.offered) {
    check.fail("churn: admitted " + std::to_string(churn.admitted) +
               " + deferred " + std::to_string(churn.deferred) + " + shed " +
               std::to_string(churn.shed) + " != offered " +
               std::to_string(churn.offered));
  }
  if (churn.arrived > churn.offered) {
    check.fail("churn: more arrivals than offered streams");
  }
  if (!std::isfinite(churn.load_factor) || churn.load_factor <= 0.0 ||
      !std::isfinite(churn.offered_load) || churn.offered_load < 0.0 ||
      !std::isfinite(churn.admitted_load) || churn.admitted_load < 0.0) {
    check.fail("churn: non-finite or non-positive load statistics");
  }
  if (churn.admitted_load > churn.offered_load * (1.0 + 1e-9)) {
    check.fail("churn: admitted_load exceeds offered_load");
  }
  for (const auto& action : record.governor_actions) {
    if (action.decision != "admit" && action.decision != "defer" &&
        action.decision != "shed" && action.decision != "release") {
      check.fail("governor action with unknown decision '" +
                 action.decision + "'");
    }
    if (action.epoch != record.epoch) {
      check.fail("governor action for stream " +
                 std::to_string(action.stream) +
                 " logged against a different epoch");
    }
  }

  // ---- Epoch payload. ----
  check_sim(check, record.sim, "sim");
  if (record.repaired) check_sim(check, record.post_repair_sim, "post_repair_sim");
  for (const double z : record.benefit_trace) {
    if (!std::isfinite(z)) {
      check.fail("non-finite entry in benefit_trace");
      break;
    }
  }
  return check;
}

std::string render_span_stats(const obs::SpanSnapshot& spans) {
  std::vector<const obs::SpanStat*> order;
  order.reserve(spans.stats.size());
  for (const auto& stat : spans.stats) order.push_back(&stat);
  std::stable_sort(order.begin(), order.end(),
                   [](const obs::SpanStat* a, const obs::SpanStat* b) {
                     return a->total_ns > b->total_ns;
                   });
  std::ostringstream out;
  out << "span stats (by total time):\n";
  for (const auto* stat : order) {
    out << "  " << format_ns(stat->total_ns) << "  x" << stat->count
        << "  [" << format_ns(stat->min_ns) << " .. "
        << format_ns(stat->max_ns) << "]  " << stat->path << "\n";
  }
  return out.str();
}

std::string render_timeline(const obs::SpanSnapshot& spans,
                            std::size_t max_rows) {
  std::ostringstream out;
  out << "timeline:\n";
  const std::uint64_t t0 =
      spans.events.empty() ? 0 : spans.events.front().start_ns;
  std::size_t rows = 0;
  for (const auto& event : spans.events) {
    if (rows++ == max_rows) {
      out << "  ... (" << spans.events.size() - max_rows
          << " more events)\n";
      break;
    }
    out << "  +" << format_ns(event.start_ns - t0) << "  ";
    for (std::uint32_t d = 0; d < event.depth; ++d) out << "  ";
    // Leaf name only: nesting is already shown by the indentation.
    const auto slash = event.path.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? event.path : event.path.substr(slash + 1);
    out << leaf << " (" << format_ns(event.duration_ns) << ")\n";
  }
  if (spans.events_dropped > 0) {
    out << "  (" << spans.events_dropped
        << " events dropped past the retention cap)\n";
  }
  return out.str();
}

std::string render_metrics(const obs::MetricsSnapshot& metrics) {
  std::ostringstream out;
  out << "counters:\n";
  for (const auto& [name, value] : metrics.counters) {
    out << "  " << name << " = " << value << "\n";
  }
  out << "gauges:\n";
  for (const auto& [name, value] : metrics.gauges) {
    out << "  " << name << " = " << value << "\n";
  }
  out << "histograms:\n";
  for (const auto& h : metrics.histograms) {
    out << "  " << h.name << "  n=" << h.count;
    if (h.count > 0) out << "  min=" << h.min << "  max=" << h.max;
    out << "\n";
  }
  return out.str();
}

std::string render_record(const obs::EpochRecord& record) {
  std::ostringstream out;
  out << "epoch " << record.epoch << "  feasible=" << record.feasible
      << "  fallback=" << record.fallback << "  repaired=" << record.repaired
      << "\n";
  const auto& h = record.health;
  out << "health: rejected=" << h.samples_rejected
      << " repaired=" << h.samples_repaired
      << " outliers=" << h.outliers_downweighted
      << " chol_recoveries=" << h.cholesky_recoveries
      << " iter_failures=" << h.iteration_failures
      << " watchdog=" << h.watchdog_fires
      << " inconsistent_pairs=" << h.inconsistent_pairs << "\n";
  if (!h.error_message.empty()) {
    out << "health: last absorbed error: " << h.error_message << "\n";
  }
  const auto& churn = record.churn;
  const bool churn_active = churn.arrived > 0 || churn.departed > 0 ||
                            churn.deferred > 0 || churn.shed > 0 ||
                            churn.offered != churn.admitted ||
                            !record.governor_actions.empty();
  if (churn_active) {
    out << "churn: offered=" << churn.offered << " (+" << churn.arrived
        << "/-" << churn.departed << ")  admitted=" << churn.admitted
        << " deferred=" << churn.deferred << " shed=" << churn.shed
        << "  load=" << churn.admitted_load << "/" << churn.offered_load
        << " (x" << churn.load_factor << ")\n";
  }
  if (!record.governor_actions.empty()) {
    out << "governor:\n";
    for (const auto& action : record.governor_actions) {
      out << "  [" << action.decision << "] stream " << action.stream << ": "
          << action.detail << "\n";
    }
  }
  out << "sim: frames=" << record.sim.total_frames
      << " emitted=" << record.sim.total_emitted
      << " dropped=" << record.sim.total_dropped
      << " slo_violations=" << record.sim.slo_violations
      << " mean_latency=" << record.sim.mean_latency
      << " max_jitter=" << record.sim.max_jitter
      << " queue_delay=" << record.sim.total_queue_delay << "\n";
  if (!record.repairs.empty()) {
    out << "repairs:\n";
    for (const auto& repair : record.repairs) {
      out << "  [" << repair.kind << "] " << repair.detail << "\n";
    }
  }
  if (!record.benefit_trace.empty()) {
    out << "benefit trace:";
    for (const double z : record.benefit_trace) out << " " << z;
    out << "\n";
  }
  out << render_metrics(record.metrics);
  out << render_span_stats(record.spans);
  out << render_timeline(record.spans);
  return out.str();
}

}  // namespace pamo::tools
