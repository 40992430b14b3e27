// obs::EpochRecord — deterministic export, strict schema validation, and
// lossless round-trip of every field (including live metrics/spans taken
// from the global registry).
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "obs/epoch_record.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace pamo::obs {
namespace {

EpochRecord sample_record() {
  EpochRecord r;
  r.epoch = 7;
  r.feasible = true;
  r.fallback = false;
  r.repaired = true;
  r.health.samples_rejected = 2;
  r.health.samples_repaired = 1;
  r.health.outliers_downweighted = 3;
  r.health.cholesky_recoveries = 1;
  r.health.iteration_failures = 0;
  r.health.watchdog_fires = 1;
  r.health.inconsistent_pairs = 4;
  r.health.max_jitter_applied = 0.125;
  r.health.heuristic_fallback = false;
  r.health.optimizer_error = false;
  r.health.repair_error = false;
  r.health.fallback_taken = true;
  r.health.error_message = "watchdog: iteration budget";
  r.health.warm_started = true;
  r.churn.offered = 6;
  r.churn.arrived = 2;
  r.churn.departed = 1;
  r.churn.admitted = 4;
  r.churn.deferred = 1;
  r.churn.shed = 1;
  r.churn.load_factor = 1.25;
  r.churn.offered_load = 1.4;
  r.churn.admitted_load = 0.9;
  r.governor_actions.push_back({7, 11, "admit", "arrival admitted"});
  r.governor_actions.push_back({7, 12, "defer", "no headroom"});
  r.sim.total_frames = 120;
  r.sim.total_emitted = 130;
  r.sim.total_dropped = 10;
  r.sim.dropped_by_loss = 4;
  r.sim.slo_violations = 2;
  r.sim.unserved_streams = 1;
  r.sim.mean_latency = 0.0425;
  r.sim.max_jitter = 0.011;
  r.sim.total_queue_delay = 0.75;
  r.post_repair_sim.total_frames = 125;
  r.post_repair_sim.total_emitted = 130;
  r.post_repair_sim.total_dropped = 5;
  r.post_repair_sim.mean_latency = 0.031;
  r.repairs.push_back({"reassign", "stream 3: server 0 -> 2"});
  r.repairs.push_back({"degrade", "stream 1: 1080p -> 720p"});
  r.benefit_trace = {0.1, 0.4, 0.40000000000000008, 0.55};
  r.metrics.counters = {{"bo.iterations", 12}, {"gp.fits", 3}};
  r.metrics.gauges = {{"epoch.benefit", 0.55}};
  HistogramSnapshot h;
  h.name = "sim.latency";
  h.count = 120;
  h.min = 0.008;
  h.max = 0.19;
  h.buckets = {{25, 40}, {26, 80}};
  r.metrics.histograms.push_back(h);
  r.spans.stats = {{"epoch", 1, 5000, 5000, 5000},
                   {"epoch/gp.fit", 3, 900, 200, 400}};
  r.spans.events = {{"epoch", 0, 100, 5000}, {"epoch/gp.fit", 1, 150, 200}};
  r.spans.events_dropped = 0;
  return r;
}

void expect_equal(const EpochRecord& a, const EpochRecord& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.fallback, b.fallback);
  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.health.samples_rejected, b.health.samples_rejected);
  EXPECT_EQ(a.health.samples_repaired, b.health.samples_repaired);
  EXPECT_EQ(a.health.outliers_downweighted, b.health.outliers_downweighted);
  EXPECT_EQ(a.health.cholesky_recoveries, b.health.cholesky_recoveries);
  EXPECT_EQ(a.health.iteration_failures, b.health.iteration_failures);
  EXPECT_EQ(a.health.watchdog_fires, b.health.watchdog_fires);
  EXPECT_EQ(a.health.inconsistent_pairs, b.health.inconsistent_pairs);
  EXPECT_EQ(a.health.max_jitter_applied, b.health.max_jitter_applied);
  EXPECT_EQ(a.health.heuristic_fallback, b.health.heuristic_fallback);
  EXPECT_EQ(a.health.optimizer_error, b.health.optimizer_error);
  EXPECT_EQ(a.health.repair_error, b.health.repair_error);
  EXPECT_EQ(a.health.fallback_taken, b.health.fallback_taken);
  EXPECT_EQ(a.health.error_message, b.health.error_message);
  EXPECT_EQ(a.health.warm_started, b.health.warm_started);
  EXPECT_EQ(a.churn.offered, b.churn.offered);
  EXPECT_EQ(a.churn.arrived, b.churn.arrived);
  EXPECT_EQ(a.churn.departed, b.churn.departed);
  EXPECT_EQ(a.churn.admitted, b.churn.admitted);
  EXPECT_EQ(a.churn.deferred, b.churn.deferred);
  EXPECT_EQ(a.churn.shed, b.churn.shed);
  EXPECT_EQ(a.churn.load_factor, b.churn.load_factor);
  EXPECT_EQ(a.churn.offered_load, b.churn.offered_load);
  EXPECT_EQ(a.churn.admitted_load, b.churn.admitted_load);
  ASSERT_EQ(a.governor_actions.size(), b.governor_actions.size());
  for (std::size_t i = 0; i < a.governor_actions.size(); ++i) {
    EXPECT_EQ(a.governor_actions[i].epoch, b.governor_actions[i].epoch);
    EXPECT_EQ(a.governor_actions[i].stream, b.governor_actions[i].stream);
    EXPECT_EQ(a.governor_actions[i].decision, b.governor_actions[i].decision);
    EXPECT_EQ(a.governor_actions[i].detail, b.governor_actions[i].detail);
  }
  EXPECT_EQ(a.sim.total_frames, b.sim.total_frames);
  EXPECT_EQ(a.sim.total_emitted, b.sim.total_emitted);
  EXPECT_EQ(a.sim.total_dropped, b.sim.total_dropped);
  EXPECT_EQ(a.sim.dropped_by_loss, b.sim.dropped_by_loss);
  EXPECT_EQ(a.sim.slo_violations, b.sim.slo_violations);
  EXPECT_EQ(a.sim.unserved_streams, b.sim.unserved_streams);
  EXPECT_EQ(a.sim.mean_latency, b.sim.mean_latency);
  EXPECT_EQ(a.sim.max_jitter, b.sim.max_jitter);
  EXPECT_EQ(a.sim.total_queue_delay, b.sim.total_queue_delay);
  EXPECT_EQ(a.post_repair_sim.total_frames, b.post_repair_sim.total_frames);
  EXPECT_EQ(a.post_repair_sim.mean_latency, b.post_repair_sim.mean_latency);
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (std::size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].kind, b.repairs[i].kind);
    EXPECT_EQ(a.repairs[i].detail, b.repairs[i].detail);
  }
  EXPECT_EQ(a.benefit_trace, b.benefit_trace);
  EXPECT_EQ(a.metrics.counters, b.metrics.counters);
  EXPECT_EQ(a.metrics.gauges, b.metrics.gauges);
  ASSERT_EQ(a.metrics.histograms.size(), b.metrics.histograms.size());
  for (std::size_t i = 0; i < a.metrics.histograms.size(); ++i) {
    EXPECT_EQ(a.metrics.histograms[i].name, b.metrics.histograms[i].name);
    EXPECT_EQ(a.metrics.histograms[i].count, b.metrics.histograms[i].count);
    EXPECT_EQ(a.metrics.histograms[i].min, b.metrics.histograms[i].min);
    EXPECT_EQ(a.metrics.histograms[i].max, b.metrics.histograms[i].max);
    EXPECT_EQ(a.metrics.histograms[i].buckets,
              b.metrics.histograms[i].buckets);
  }
  ASSERT_EQ(a.spans.stats.size(), b.spans.stats.size());
  for (std::size_t i = 0; i < a.spans.stats.size(); ++i) {
    EXPECT_EQ(a.spans.stats[i].path, b.spans.stats[i].path);
    EXPECT_EQ(a.spans.stats[i].count, b.spans.stats[i].count);
    EXPECT_EQ(a.spans.stats[i].total_ns, b.spans.stats[i].total_ns);
    EXPECT_EQ(a.spans.stats[i].min_ns, b.spans.stats[i].min_ns);
    EXPECT_EQ(a.spans.stats[i].max_ns, b.spans.stats[i].max_ns);
  }
  ASSERT_EQ(a.spans.events.size(), b.spans.events.size());
  for (std::size_t i = 0; i < a.spans.events.size(); ++i) {
    EXPECT_EQ(a.spans.events[i].path, b.spans.events[i].path);
    EXPECT_EQ(a.spans.events[i].depth, b.spans.events[i].depth);
    EXPECT_EQ(a.spans.events[i].start_ns, b.spans.events[i].start_ns);
    EXPECT_EQ(a.spans.events[i].duration_ns, b.spans.events[i].duration_ns);
  }
  EXPECT_EQ(a.spans.events_dropped, b.spans.events_dropped);
}

TEST(EpochRecord, RoundTripsLosslessly) {
  const EpochRecord original = sample_record();
  const std::string text = to_json(original);
  const EpochRecord back = record_from_json(text);
  expect_equal(original, back);
  // Determinism: export → import → export is byte-identical.
  EXPECT_EQ(to_json(back), text);
}

TEST(EpochRecord, SchemaTagLeadsTheDocument) {
  const std::string text = to_json(sample_record());
  EXPECT_EQ(text.rfind("{\"schema\":\"pamo.epoch_record.v1\"", 0), 0u);
  const json::Value v = json::Value::parse(text);
  // Fixed top-level key order, not container order.
  const auto& members = v.members();
  ASSERT_GE(members.size(), 11u);
  EXPECT_EQ(members[0].first, "schema");
  EXPECT_EQ(members[1].first, "epoch");
  EXPECT_EQ(members[5].first, "health");
  EXPECT_EQ(members[6].first, "sim");
  EXPECT_EQ(members.back().first, "spans");
}

TEST(EpochRecord, RejectsWrongOrMissingSchema) {
  EXPECT_THROW((void)record_from_json("{}"), Error);
  EXPECT_THROW((void)record_from_json(R"({"schema":"other.v9"})"), Error);
  EXPECT_THROW((void)record_from_json("not json at all"), Error);
  // Right schema but a missing required field still throws.
  EXPECT_THROW(
      (void)record_from_json(R"({"schema":"pamo.epoch_record.v1"})"), Error);
}

TEST(EpochRecord, RejectsMistypedFields) {
  std::string text = to_json(sample_record());
  // Corrupt "epoch":7 into a string while keeping valid JSON.
  const std::string needle = "\"epoch\":7";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"epoch\":\"7\"");
  EXPECT_THROW((void)record_from_json(text), Error);
}

TEST(EpochRecord, ReadsRecordsWrittenBeforeChurnExisted) {
  // Records exported by builds that predate stream churn have no "churn",
  // "governor_actions", or continual-learning health keys. They must still
  // parse, with defaults meaning "no churn, nothing warm-started". Records
  // from builds with the GP drift detector carry two more health counters,
  // which parse and are not written back.
  std::string text = to_json(sample_record());
  auto strip = [&text](const std::string& from, const std::string& to) {
    const auto begin = text.find(from);
    ASSERT_NE(begin, std::string::npos) << from;
    const auto end = text.find(to, begin);
    ASSERT_NE(end, std::string::npos) << to;
    text.erase(begin, end - begin);
  };
  strip(",\"warm_started\"", "}");
  strip(",\"churn\"", ",\"benefit_trace\"");
  EXPECT_EQ(text.find("\"churn\""), std::string::npos);
  EXPECT_EQ(text.find("\"governor_actions\""), std::string::npos);
  EXPECT_EQ(text.find("\"drift_fires\""), std::string::npos);

  const EpochRecord back = record_from_json(text);
  EXPECT_FALSE(back.health.warm_started);
  EXPECT_EQ(back.churn.offered, 0u);
  EXPECT_EQ(back.churn.admitted, 0u);
  EXPECT_EQ(back.churn.load_factor, 1.0);
  EXPECT_TRUE(back.governor_actions.empty());
  // The rest of the record came through untouched.
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.health.error_message, "watchdog: iteration budget");

  const std::string current = to_json(sample_record());
  std::string with_drift = current;
  const std::string warm_key = "\"warm_started\":true";
  const auto at = with_drift.find(warm_key);
  ASSERT_NE(at, std::string::npos);
  with_drift.insert(at + warm_key.size(),
                    ",\"drift_fires\":2,\"drift_downweighted\":9");
  const EpochRecord drifted = record_from_json(with_drift);
  EXPECT_TRUE(drifted.health.warm_started);
  const std::string rewritten = to_json(drifted);
  EXPECT_EQ(rewritten.find("\"drift_fires\""), std::string::npos);
  EXPECT_EQ(rewritten.find("\"drift_downweighted\""), std::string::npos);
  EXPECT_EQ(rewritten, current);
}

TEST(EpochRecord, CapturesLiveSnapshotsFromTheGlobalRegistry) {
  ScopedEnable scope;
  {
    PAMO_SPAN("record.epoch");
    PAMO_COUNT("record.frames", 42);
    PAMO_HISTOGRAM("record.latency", 0.02);
  }
  EpochRecord r;
  r.epoch = 1;
  r.metrics = MetricsRegistry::global().snapshot();
  r.spans = span_snapshot();
  const EpochRecord back = record_from_json(to_json(r));
  bool saw_counter = false;
  for (const auto& [name, value] : back.metrics.counters) {
    if (name == "record.frames") {
      EXPECT_EQ(value, 42u);
      saw_counter = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  bool saw_span = false;
  for (const auto& stat : back.spans.stats) {
    if (stat.path == "record.epoch") {
      EXPECT_EQ(stat.count, 1u);
      EXPECT_GE(stat.max_ns, stat.min_ns);
      saw_span = true;
    }
  }
  EXPECT_TRUE(saw_span);
}

}  // namespace
}  // namespace pamo::obs
