#include "core/governor.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace pamo::core {

namespace {

/// Knob-floor load of one clip as a fraction of fleet capacity: the larger
/// of its uplink-bandwidth share and its compute-utilization share at the
/// cheapest (resolution, fps). A stream whose floor load is 0.1 needs a
/// tenth of the fleet on its best day — the honest lower bound on what
/// admitting it costs.
double floor_load(const eva::ClipProfile& clip, double res, double fps,
                  double total_uplink, double num_servers) {
  const double bw_share = clip.bandwidth_mbps(res, fps) / total_uplink;
  const double cpu_share = clip.proc_time(res) * fps / num_servers;
  return std::max(bw_share, cpu_share);
}

std::string load_detail(std::string what, double load, double budget) {
  std::string s = std::move(what);
  s += " (load ";
  s += std::to_string(load);
  s += " vs budget ";
  s += std::to_string(budget);
  s += ")";
  return s;
}

}  // namespace

const char* governor_decision_name(GovernorDecision decision) {
  switch (decision) {
    case GovernorDecision::kAdmit: return "admit";
    case GovernorDecision::kDefer: return "defer";
    case GovernorDecision::kShed: return "shed";
    case GovernorDecision::kRelease: return "release";
  }
  return "unknown";
}

AdmissionGovernor::AdmissionGovernor(GovernorOptions options)
    : options_(options) {
  PAMO_CHECK(options_.max_load > 0.0, "governor max_load must be > 0");
  PAMO_CHECK(options_.hysteresis >= 0.0 && options_.hysteresis < 1.0,
             "governor hysteresis must be in [0, 1)");
}

void AdmissionGovernor::record_action(GovernorPlan& plan, std::size_t epoch,
                                      std::uint64_t stream,
                                      GovernorDecision decision,
                                      std::string detail) {
  plan.actions.push_back({epoch, stream, decision, std::move(detail)});
}

GovernorPlan AdmissionGovernor::plan_epoch(std::size_t epoch,
                                           const eva::Workload& offered) {
  GovernorPlan plan;
  plan.offered = offered.num_streams();
  if (!options_.enabled) {
    plan.admitted.resize(plan.offered);
    for (std::size_t i = 0; i < plan.offered; ++i) plan.admitted[i] = i;
    plan.admitted_count = plan.offered;
    return plan;
  }
  PAMO_CHECK(offered.num_servers() > 0, "governor needs >= 1 server");

  // Per-stream knob-floor demand and marginal benefit (accuracy bought
  // per unit of fleet capacity at the floor).
  const double floor_res =
      static_cast<double>(offered.space.resolutions().front());
  const double floor_fps =
      static_cast<double>(offered.space.fps_knobs().front());
  double total_uplink = 0.0;
  for (double u : offered.uplink_mbps) total_uplink += u;
  const double servers = static_cast<double>(offered.num_servers());

  struct Candidate {
    std::size_t index = 0;
    std::uint64_t id = 0;
    double load = 0.0;
    double score = 0.0;
    bool incumbent = false;
  };
  std::vector<Candidate> streams;
  streams.reserve(plan.offered);
  for (std::size_t i = 0; i < plan.offered; ++i) {
    const auto& clip = offered.clips[i];
    Candidate c;
    c.index = i;
    c.id = clip.id();
    c.load = floor_load(clip, floor_res, floor_fps, total_uplink, servers);
    c.score = clip.accuracy(floor_res, floor_fps) / std::max(c.load, 1e-12);
    plan.offered_load += c.load;
    streams.push_back(c);
  }

  // Departures release their state: any remembered stream no longer
  // offered leaves the admitted set (logged), the retry queue, and the
  // shed list (both silently — no decision is being made about them).
  std::vector<std::uint64_t> offered_ids;
  offered_ids.reserve(streams.size());
  for (const auto& c : streams) offered_ids.push_back(c.id);
  std::sort(offered_ids.begin(), offered_ids.end());
  const auto is_offered = [&](std::uint64_t id) {
    return std::binary_search(offered_ids.begin(), offered_ids.end(), id);
  };
  for (std::uint64_t id : admitted_) {
    if (!is_offered(id)) {
      record_action(plan, epoch, id, GovernorDecision::kRelease,
                    "stream departed");
    }
  }
  admitted_.erase(
      std::remove_if(admitted_.begin(), admitted_.end(),
                     [&](std::uint64_t id) { return !is_offered(id); }),
      admitted_.end());
  deferred_.erase(
      std::remove_if(deferred_.begin(), deferred_.end(),
                     [&](const Deferred& d) { return !is_offered(d.stream); }),
      deferred_.end());
  shed_.erase(std::remove_if(shed_.begin(), shed_.end(),
                             [&](std::uint64_t id) { return !is_offered(id); }),
              shed_.end());

  for (auto& c : streams) {
    c.incumbent = std::binary_search(admitted_.begin(), admitted_.end(), c.id);
  }

  // Pass 1 — incumbents keep their slots in marginal-benefit order up to
  // the full max_load budget; the worst-scoring overflow is shed.
  std::vector<Candidate> incumbents;
  std::vector<Candidate> arrivals;
  for (const auto& c : streams) {
    (c.incumbent ? incumbents : arrivals).push_back(c);
  }
  const auto by_benefit = [](const Candidate& a, const Candidate& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  };
  std::sort(incumbents.begin(), incumbents.end(), by_benefit);

  std::vector<std::uint64_t> next_admitted;
  std::vector<std::size_t> admitted_indices;
  double load_sum = 0.0;
  const auto fits = [&](double load, double budget) {
    if (load_sum + load > budget) return false;
    return options_.max_streams == 0 ||
           next_admitted.size() < options_.max_streams;
  };
  for (const auto& c : incumbents) {
    if (fits(c.load, options_.max_load)) {
      load_sum += c.load;
      next_admitted.push_back(c.id);
      admitted_indices.push_back(c.index);
    } else {
      record_action(plan, epoch, c.id, GovernorDecision::kShed,
                    load_detail("overload: incumbent shed", c.load,
                                options_.max_load - load_sum));
      shed_.push_back(c.id);
    }
  }
  std::sort(shed_.begin(), shed_.end());

  // Pass 2 — arrivals and due retries compete for the hysteresis-reduced
  // headroom; losers back off exponentially until the retry budget runs
  // out. Arrivals already deferred or shed in earlier epochs keep their
  // state (counted below, no new decision).
  const double headroom = options_.max_load * (1.0 - options_.hysteresis);
  std::sort(arrivals.begin(), arrivals.end(), by_benefit);
  for (const auto& c : arrivals) {
    if (std::binary_search(shed_.begin(), shed_.end(), c.id)) continue;
    auto deferred_it =
        std::find_if(deferred_.begin(), deferred_.end(),
                     [&](const Deferred& d) { return d.stream == c.id; });
    const bool waiting =
        deferred_it != deferred_.end() && deferred_it->next_retry > epoch;
    if (waiting) continue;
    if (fits(c.load, headroom)) {
      record_action(
          plan, epoch, c.id, GovernorDecision::kAdmit,
          deferred_it != deferred_.end()
              ? load_detail("retry admitted", c.load, headroom - load_sum)
              : load_detail("arrival admitted", c.load, headroom - load_sum));
      load_sum += c.load;
      next_admitted.push_back(c.id);
      admitted_indices.push_back(c.index);
      if (deferred_it != deferred_.end()) deferred_.erase(deferred_it);
      continue;
    }
    const std::size_t retries =
        deferred_it == deferred_.end() ? 0 : deferred_it->retries;
    if (retries >= options_.max_defer_retries) {
      record_action(plan, epoch, c.id, GovernorDecision::kShed,
                    "retry budget exhausted after " + std::to_string(retries) +
                        " deferrals");
      if (deferred_it != deferred_.end()) deferred_.erase(deferred_it);
      shed_.push_back(c.id);
      std::sort(shed_.begin(), shed_.end());
      continue;
    }
    const std::size_t backoff = std::size_t{1} << retries;
    record_action(plan, epoch, c.id, GovernorDecision::kDefer,
                  load_detail("no headroom, retry in " +
                                  std::to_string(backoff) + " epochs",
                              c.load, headroom - load_sum));
    if (deferred_it != deferred_.end()) {
      deferred_it->retries = retries + 1;
      deferred_it->next_retry = epoch + backoff;
    } else {
      Deferred d;
      d.stream = c.id;
      d.retries = 1;
      d.next_retry = epoch + backoff;
      deferred_.insert(
          std::upper_bound(deferred_.begin(), deferred_.end(), d,
                           [](const Deferred& a, const Deferred& b) {
                             return a.stream < b.stream;
                           }),
          d);
    }
  }

  std::sort(next_admitted.begin(), next_admitted.end());
  std::sort(shed_.begin(), shed_.end());
  admitted_ = std::move(next_admitted);

  std::sort(admitted_indices.begin(), admitted_indices.end());
  plan.admitted = std::move(admitted_indices);
  plan.admitted_count = plan.admitted.size();
  plan.deferred = deferred_.size();
  plan.shed = shed_.size();
  plan.admitted_load = load_sum;
  PAMO_CHECK(plan.admitted_count + plan.deferred + plan.shed == plan.offered,
             "governor accounting: admitted + deferred + shed != offered");
  return plan;
}

// pamo-analyze: snapshot(AdmissionGovernor)
obs::json::Value AdmissionGovernor::snapshot() const {
  namespace json = obs::json;
  json::Value obj = json::Value::object();
  json::Value admitted = json::Value::array();
  for (std::uint64_t id : admitted_) {
    admitted.push_back(json::Value(static_cast<double>(id)));
  }
  obj.set("admitted", std::move(admitted));
  json::Value deferred = json::Value::array();
  for (const auto& d : deferred_) {
    json::Value entry = json::Value::object();
    entry.set("stream", json::Value(static_cast<double>(d.stream)));
    entry.set("retries", json::Value(static_cast<double>(d.retries)));
    entry.set("next_retry", json::Value(static_cast<double>(d.next_retry)));
    deferred.push_back(std::move(entry));
  }
  obj.set("deferred", std::move(deferred));
  json::Value shed = json::Value::array();
  for (std::uint64_t id : shed_) {
    shed.push_back(json::Value(static_cast<double>(id)));
  }
  obj.set("shed", std::move(shed));
  PAMO_ENSURES(obj.at("admitted").items().size() == admitted_.size() &&
                   obj.at("deferred").items().size() == deferred_.size() &&
                   obj.at("shed").items().size() == shed_.size(),
               "governor snapshot must cover every tracked stream");
  return obj;
}

// pamo-analyze: snapshot(AdmissionGovernor)
void AdmissionGovernor::restore(const obs::json::Value& snap) {
  // Restore rebuilds remembered state from a checkpoint: the decisions
  // were logged when they were made, so no new GovernorAction is emitted.
  admitted_.clear();  // pamo-analyze: allow(governor-action)
  for (const auto& v : snap.at("admitted").items()) {
    // pamo-analyze: allow(governor-action)
    admitted_.push_back(static_cast<std::uint64_t>(v.as_double()));
  }
  deferred_.clear();
  for (const auto& v : snap.at("deferred").items()) {
    Deferred d;
    d.stream = static_cast<std::uint64_t>(v.at("stream").as_double());
    d.retries = static_cast<std::size_t>(v.at("retries").as_double());
    d.next_retry = static_cast<std::size_t>(v.at("next_retry").as_double());
    deferred_.push_back(d);
  }
  shed_.clear();
  for (const auto& v : snap.at("shed").items()) {
    shed_.push_back(static_cast<std::uint64_t>(v.as_double()));
  }
  std::sort(admitted_.begin(), admitted_.end());
  std::sort(deferred_.begin(), deferred_.end(),
            [](const Deferred& a, const Deferred& b) {
              return a.stream < b.stream;
            });
  std::sort(shed_.begin(), shed_.end());
  PAMO_ENSURES(std::is_sorted(admitted_.begin(), admitted_.end()) &&
                   std::is_sorted(shed_.begin(), shed_.end()),
               "restored governor sets must be sorted for deterministic "
               "iteration");
}

}  // namespace pamo::core
