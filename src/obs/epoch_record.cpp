#include "obs/epoch_record.hpp"

#include "common/error.hpp"
#include "obs/json.hpp"

namespace pamo::obs {

namespace {

json::Value health_to_json(const EpochRecord::Health& h) {
  json::Value v = json::Value::object();
  v.set("samples_rejected", h.samples_rejected);
  v.set("samples_repaired", h.samples_repaired);
  v.set("outliers_downweighted", h.outliers_downweighted);
  v.set("cholesky_recoveries", h.cholesky_recoveries);
  v.set("iteration_failures", h.iteration_failures);
  v.set("watchdog_fires", h.watchdog_fires);
  v.set("inconsistent_pairs", h.inconsistent_pairs);
  v.set("max_jitter_applied", h.max_jitter_applied);
  v.set("heuristic_fallback", h.heuristic_fallback);
  v.set("optimizer_error", h.optimizer_error);
  v.set("repair_error", h.repair_error);
  v.set("fallback_taken", h.fallback_taken);
  v.set("error_message", h.error_message);
  v.set("warm_started", h.warm_started);
  return v;
}

EpochRecord::Health health_from_json(const json::Value& v) {
  EpochRecord::Health h;
  h.samples_rejected = v.at("samples_rejected").as_uint();
  h.samples_repaired = v.at("samples_repaired").as_uint();
  h.outliers_downweighted = v.at("outliers_downweighted").as_uint();
  h.cholesky_recoveries = v.at("cholesky_recoveries").as_uint();
  h.iteration_failures = v.at("iteration_failures").as_uint();
  h.watchdog_fires = v.at("watchdog_fires").as_uint();
  h.inconsistent_pairs = v.at("inconsistent_pairs").as_uint();
  h.max_jitter_applied = v.at("max_jitter_applied").as_double();
  h.heuristic_fallback = v.at("heuristic_fallback").as_bool();
  h.optimizer_error = v.at("optimizer_error").as_bool();
  h.repair_error = v.at("repair_error").as_bool();
  h.fallback_taken = v.at("fallback_taken").as_bool();
  h.error_message = v.at("error_message").as_string();
  // Post-v1 continual-learning flag: absent in older records, so read it
  // leniently and keep the default when missing. Records from builds with
  // the GP drift detector also carry its two counters; they are ignored.
  if (const json::Value* warm = v.find("warm_started")) {
    h.warm_started = warm->as_bool();
  }
  return h;
}

json::Value churn_to_json(const EpochRecord::Churn& c) {
  json::Value v = json::Value::object();
  v.set("offered", c.offered);
  v.set("arrived", c.arrived);
  v.set("departed", c.departed);
  v.set("admitted", c.admitted);
  v.set("deferred", c.deferred);
  v.set("shed", c.shed);
  v.set("load_factor", c.load_factor);
  v.set("offered_load", c.offered_load);
  v.set("admitted_load", c.admitted_load);
  return v;
}

EpochRecord::Churn churn_from_json(const json::Value& v) {
  EpochRecord::Churn c;
  c.offered = v.at("offered").as_uint();
  c.arrived = v.at("arrived").as_uint();
  c.departed = v.at("departed").as_uint();
  c.admitted = v.at("admitted").as_uint();
  c.deferred = v.at("deferred").as_uint();
  c.shed = v.at("shed").as_uint();
  c.load_factor = v.at("load_factor").as_double();
  c.offered_load = v.at("offered_load").as_double();
  c.admitted_load = v.at("admitted_load").as_double();
  return c;
}

json::Value sim_to_json(const EpochRecord::SimSummary& s) {
  json::Value v = json::Value::object();
  v.set("total_frames", s.total_frames);
  v.set("total_emitted", s.total_emitted);
  v.set("total_dropped", s.total_dropped);
  v.set("dropped_by_loss", s.dropped_by_loss);
  v.set("slo_violations", s.slo_violations);
  v.set("unserved_streams", s.unserved_streams);
  v.set("mean_latency", s.mean_latency);
  v.set("max_jitter", s.max_jitter);
  v.set("total_queue_delay", s.total_queue_delay);
  return v;
}

EpochRecord::SimSummary sim_from_json(const json::Value& v) {
  EpochRecord::SimSummary s;
  s.total_frames = v.at("total_frames").as_uint();
  s.total_emitted = v.at("total_emitted").as_uint();
  s.total_dropped = v.at("total_dropped").as_uint();
  s.dropped_by_loss = v.at("dropped_by_loss").as_uint();
  s.slo_violations = v.at("slo_violations").as_uint();
  s.unserved_streams = v.at("unserved_streams").as_uint();
  s.mean_latency = v.at("mean_latency").as_double();
  s.max_jitter = v.at("max_jitter").as_double();
  s.total_queue_delay = v.at("total_queue_delay").as_double();
  return s;
}

json::Value metrics_to_json(const MetricsSnapshot& m) {
  json::Value v = json::Value::object();
  json::Value counters = json::Value::object();
  for (const auto& [name, value] : m.counters) counters.set(name, value);
  v.set("counters", std::move(counters));
  json::Value gauges = json::Value::object();
  for (const auto& [name, value] : m.gauges) gauges.set(name, value);
  v.set("gauges", std::move(gauges));
  json::Value histograms = json::Value::array();
  for (const auto& h : m.histograms) {
    json::Value entry = json::Value::object();
    entry.set("name", h.name);
    entry.set("count", h.count);
    entry.set("min", h.min);
    entry.set("max", h.max);
    json::Value buckets = json::Value::array();
    for (const auto& [index, count] : h.buckets) {
      json::Value pair = json::Value::array();
      pair.push_back(static_cast<std::uint64_t>(index));
      pair.push_back(count);
      buckets.push_back(std::move(pair));
    }
    entry.set("buckets", std::move(buckets));
    histograms.push_back(std::move(entry));
  }
  v.set("histograms", std::move(histograms));
  return v;
}

MetricsSnapshot metrics_from_json(const json::Value& v) {
  MetricsSnapshot m;
  for (const auto& [name, value] : v.at("counters").members()) {
    m.counters.emplace_back(name, value.as_uint());
  }
  for (const auto& [name, value] : v.at("gauges").members()) {
    m.gauges.emplace_back(name, value.as_double());
  }
  for (const auto& entry : v.at("histograms").items()) {
    HistogramSnapshot h;
    h.name = entry.at("name").as_string();
    h.count = entry.at("count").as_uint();
    h.min = entry.at("min").as_double();
    h.max = entry.at("max").as_double();
    for (const auto& pair : entry.at("buckets").items()) {
      PAMO_CHECK(pair.items().size() == 2,
                 "histogram bucket entries are [index, count] pairs");
      h.buckets.emplace_back(pair.items()[0].as_uint(),
                             pair.items()[1].as_uint());
    }
    m.histograms.push_back(std::move(h));
  }
  return m;
}

json::Value spans_to_json(const SpanSnapshot& s) {
  json::Value v = json::Value::object();
  json::Value stats = json::Value::array();
  for (const auto& stat : s.stats) {
    json::Value entry = json::Value::object();
    entry.set("path", stat.path);
    entry.set("count", stat.count);
    entry.set("total_ns", stat.total_ns);
    entry.set("min_ns", stat.min_ns);
    entry.set("max_ns", stat.max_ns);
    stats.push_back(std::move(entry));
  }
  v.set("stats", std::move(stats));
  json::Value events = json::Value::array();
  for (const auto& event : s.events) {
    json::Value entry = json::Value::object();
    entry.set("path", event.path);
    entry.set("depth", static_cast<std::uint64_t>(event.depth));
    entry.set("start_ns", event.start_ns);
    entry.set("duration_ns", event.duration_ns);
    events.push_back(std::move(entry));
  }
  v.set("events", std::move(events));
  v.set("events_dropped", s.events_dropped);
  return v;
}

SpanSnapshot spans_from_json(const json::Value& v) {
  SpanSnapshot s;
  for (const auto& entry : v.at("stats").items()) {
    SpanStat stat;
    stat.path = entry.at("path").as_string();
    stat.count = entry.at("count").as_uint();
    stat.total_ns = entry.at("total_ns").as_uint();
    stat.min_ns = entry.at("min_ns").as_uint();
    stat.max_ns = entry.at("max_ns").as_uint();
    s.stats.push_back(std::move(stat));
  }
  for (const auto& entry : v.at("events").items()) {
    SpanEvent event;
    event.path = entry.at("path").as_string();
    event.depth = static_cast<std::uint32_t>(entry.at("depth").as_uint());
    event.start_ns = entry.at("start_ns").as_uint();
    event.duration_ns = entry.at("duration_ns").as_uint();
    s.events.push_back(std::move(event));
  }
  s.events_dropped = v.at("events_dropped").as_uint();
  return s;
}

}  // namespace

std::string to_json(const EpochRecord& record) {
  json::Value v = json::Value::object();
  v.set("schema", EpochRecord::kSchema);
  v.set("epoch", record.epoch);
  v.set("feasible", record.feasible);
  v.set("fallback", record.fallback);
  v.set("repaired", record.repaired);
  v.set("health", health_to_json(record.health));
  v.set("sim", sim_to_json(record.sim));
  v.set("post_repair_sim", sim_to_json(record.post_repair_sim));
  json::Value repairs = json::Value::array();
  for (const auto& repair : record.repairs) {
    json::Value entry = json::Value::object();
    entry.set("kind", repair.kind);
    entry.set("detail", repair.detail);
    repairs.push_back(std::move(entry));
  }
  v.set("repairs", std::move(repairs));
  v.set("churn", churn_to_json(record.churn));
  json::Value governor = json::Value::array();
  for (const auto& action : record.governor_actions) {
    json::Value entry = json::Value::object();
    entry.set("epoch", action.epoch);
    entry.set("stream", action.stream);
    entry.set("decision", action.decision);
    entry.set("detail", action.detail);
    governor.push_back(std::move(entry));
  }
  v.set("governor_actions", std::move(governor));
  json::Value trace = json::Value::array();
  for (double z : record.benefit_trace) trace.push_back(z);
  v.set("benefit_trace", std::move(trace));
  v.set("metrics", metrics_to_json(record.metrics));
  v.set("spans", spans_to_json(record.spans));
  return v.dump();
}

EpochRecord record_from_json(const std::string& text) {
  const json::Value v = json::Value::parse(text);
  PAMO_CHECK(v.find("schema") != nullptr &&
                 v.at("schema").as_string() == EpochRecord::kSchema,
             "not a pamo.epoch_record.v1 document");
  EpochRecord record;
  record.epoch = v.at("epoch").as_uint();
  record.feasible = v.at("feasible").as_bool();
  record.fallback = v.at("fallback").as_bool();
  record.repaired = v.at("repaired").as_bool();
  record.health = health_from_json(v.at("health"));
  record.sim = sim_from_json(v.at("sim"));
  record.post_repair_sim = sim_from_json(v.at("post_repair_sim"));
  for (const auto& entry : v.at("repairs").items()) {
    record.repairs.push_back(EpochRecord::Repair{
        entry.at("kind").as_string(), entry.at("detail").as_string()});
  }
  // Churn/governor fields are post-v1: records written before stream churn
  // existed have neither key, and must still parse (with defaults meaning
  // "no churn, everything offered was admitted").
  if (const json::Value* churn = v.find("churn")) {
    record.churn = churn_from_json(*churn);
  }
  if (const json::Value* governor = v.find("governor_actions")) {
    for (const auto& entry : governor->items()) {
      EpochRecord::GovernorEntry action;
      action.epoch = entry.at("epoch").as_uint();
      action.stream = entry.at("stream").as_uint();
      action.decision = entry.at("decision").as_string();
      action.detail = entry.at("detail").as_string();
      record.governor_actions.push_back(std::move(action));
    }
  }
  for (const auto& z : v.at("benefit_trace").items()) {
    record.benefit_trace.push_back(z.as_double());
  }
  record.metrics = metrics_from_json(v.at("metrics"));
  record.spans = spans_from_json(v.at("spans"));
  return record;
}

}  // namespace pamo::obs
