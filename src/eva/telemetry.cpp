#include "eva/telemetry.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pamo::eva {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The five telemetry fields as an indexable view.
double* field_of(StreamMeasurement& m, std::size_t f) {
  switch (f) {
    case 0: return &m.accuracy;
    case 1: return &m.bandwidth_mbps;
    case 2: return &m.compute_tflops;
    case 3: return &m.power_watts;
    default: return &m.proc_time;
  }
}

}  // namespace

TelemetryCorruption::TelemetryCorruption(TelemetryCorruptionOptions options)
    : options_(options) {
  auto rate = [](double r) { return r >= 0.0 && r <= 1.0; };
  PAMO_CHECK(rate(options_.nan_rate) && rate(options_.inf_rate) &&
                 rate(options_.outlier_rate) && rate(options_.stuck_rate) &&
                 rate(options_.drop_rate),
             "corruption rates must be probabilities in [0, 1]");
  PAMO_CHECK(options_.outlier_scale >= 0.0,
             "outlier scale must be non-negative");
}

bool TelemetryCorruption::enabled() const {
  return options_.nan_rate > 0.0 || options_.inf_rate > 0.0 ||
         options_.outlier_rate > 0.0 || options_.stuck_rate > 0.0 ||
         options_.drop_rate > 0.0;
}

bool TelemetryCorruption::corrupt(StreamMeasurement& measurement,
                                  std::size_t stream, std::uint64_t tag) {
  ++counters_.total_measurements;
  if (!enabled()) return true;

  // Corruption draws come from (seed, stream, tag) only — never from the
  // caller's RNG — so the scheduler's own random streams are untouched.
  const std::size_t key = ids_.empty() ? stream : ids_.at(stream);
  Rng rng(options_.seed ^ (tag * 0xD1B54A32D192ED03ULL) ^
          ((key + 1) * 0x9E3779B97F4A7C15ULL));

  if (rng.uniform() < options_.drop_rate) {
    ++counters_.dropped_measurements;
    return false;
  }

  if (stream >= last_.size()) {
    last_.resize(stream + 1);
    has_last_.resize(stream + 1, false);
  }
  const StreamMeasurement truth = measurement;
  const bool have_previous = has_last_[stream];
  const StreamMeasurement previous = have_previous ? last_[stream] : truth;

  const double p_nan = options_.nan_rate;
  const double p_inf = p_nan + options_.inf_rate;
  const double p_outlier = p_inf + options_.outlier_rate;
  const double p_stuck = p_outlier + options_.stuck_rate;
  for (std::size_t f = 0; f < 5; ++f) {
    const double u = rng.uniform();
    double* field = field_of(measurement, f);
    if (u < p_nan) {
      *field = kNan;
      ++counters_.nan_fields;
    } else if (u < p_inf) {
      *field = kInf;
      ++counters_.inf_fields;
    } else if (u < p_outlier) {
      *field *= std::exp(options_.outlier_scale * std::fabs(rng.normal()));
      ++counters_.outlier_fields;
    } else if (u < p_stuck && have_previous) {
      StreamMeasurement stale = previous;
      *field = *field_of(stale, f);
      ++counters_.stuck_fields;
    }
  }
  last_[stream] = truth;
  has_last_[stream] = true;
  return true;
}

TelemetryCorruption TelemetryCorruption::shard_view(
    const std::vector<std::size_t>& ids) const {
  TelemetryCorruption view(options_);
  view.ids_ = ids;
  view.last_.resize(ids.size());
  view.has_last_.assign(ids.size(), false);
  for (std::size_t p = 0; p < ids.size(); ++p) {
    if (ids[p] < last_.size() && has_last_[ids[p]]) {
      view.last_[p] = last_[ids[p]];
      view.has_last_[p] = true;
    }
  }
  return view;
}

void TelemetryCorruption::merge_shard(const TelemetryCorruption& view) {
  PAMO_CHECK(ids_.empty() && view.has_last_.size() <= view.ids_.size(),
             "merge_shard folds a shard view into a fleet-keyed instance");
  counters_.total_measurements += view.counters_.total_measurements;
  counters_.dropped_measurements += view.counters_.dropped_measurements;
  counters_.nan_fields += view.counters_.nan_fields;
  counters_.inf_fields += view.counters_.inf_fields;
  counters_.outlier_fields += view.counters_.outlier_fields;
  counters_.stuck_fields += view.counters_.stuck_fields;
  for (std::size_t p = 0; p < view.has_last_.size(); ++p) {
    if (!view.has_last_[p]) continue;
    const std::size_t id = view.ids_[p];
    if (id >= last_.size()) {
      last_.resize(id + 1);
      has_last_.resize(id + 1, false);
    }
    last_[id] = view.last_[p];
    has_last_[id] = true;
  }
}

}  // namespace pamo::eva
