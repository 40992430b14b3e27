#include "eva/churn.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pamo::eva {

namespace json = obs::json;

namespace {

/// Knuth's Poisson sampler: exact for the small per-epoch rates a churn
/// plan uses (products of uniforms until the exp(-lambda) floor).
std::size_t sample_poisson(Rng& rng, double lambda) {
  if (!(lambda > 0.0)) {
    return 0;
  }
  const double floor = std::exp(-lambda);
  std::size_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.uniform();
  } while (p > floor);
  return k - 1;
}

/// Geometric lifetime on {0, 1, 2, ...} with the given mean (inverse-CDF
/// draw). mean <= 0 degenerates to always-zero lifetimes.
std::size_t sample_lifetime(Rng& rng, double mean) {
  if (!(mean > 0.0)) {
    return 0;
  }
  const double p = 1.0 / (1.0 + mean);
  const double u = rng.uniform();
  // u < 1 always; log(1-p) < 0 because p > 0.
  const double draw = std::floor(std::log1p(-u) / std::log1p(-p));
  const double capped = std::min(draw, 1.0e6);
  return static_cast<std::size_t>(std::max(capped, 0.0));
}

}  // namespace

ChurnPlan::ChurnPlan(const ChurnOptions& options) : options_(options) {
  PAMO_CHECK(options_.arrival_rate >= 0.0, "arrival rate must be >= 0");
  PAMO_CHECK(
      options_.diurnal_amplitude >= 0.0 && options_.diurnal_amplitude < 1.0,
      "diurnal amplitude must be in [0, 1)");
  PAMO_CHECK(options_.diurnal_period > 0, "diurnal period must be > 0");
  PAMO_CHECK(
      options_.drift_per_epoch >= 0.0 && options_.drift_per_epoch < 1.0,
      "drift rate must be in [0, 1)");
  if (options_.arrival_rate <= 0.0) {
    return;
  }
  Rng rng = Rng(options_.seed).fork(0xC412Bu);
  std::uint64_t next_id = options_.arrival_id_base;
  for (std::size_t e = 0; e < options_.horizon; ++e) {
    // Independent per-epoch stream so the horizon does not perturb draws.
    Rng erng = rng.fork(e);
    const double lambda = options_.arrival_rate * load_factor(e);
    const std::size_t count = sample_poisson(erng, lambda);
    for (std::size_t j = 0; j < count; ++j) {
      if (options_.max_streams > 0 && live_count(e) >= options_.max_streams) {
        break;
      }
      Arrival a;
      a.id = next_id++;
      a.arrival = e;
      a.departure =
          e + sample_lifetime(erng, options_.mean_lifetime_epochs);
      arrivals_.push_back(a);
    }
  }
}

bool ChurnPlan::enabled() const {
  return options_.arrival_rate > 0.0 || options_.diurnal_amplitude > 0.0 ||
         options_.drift_per_epoch > 0.0;
}

double ChurnPlan::load_factor(std::size_t epoch) const {
  if (options_.diurnal_amplitude <= 0.0) {
    return 1.0;
  }
  constexpr double kTau = 6.283185307179586476925286766559;
  const double phase = kTau * static_cast<double>(epoch) /
                       static_cast<double>(options_.diurnal_period);
  return 1.0 + options_.diurnal_amplitude * std::sin(phase);
}

double ChurnPlan::drift_t(std::size_t age) const {
  if (options_.drift_per_epoch <= 0.0 || age == 0) {
    return 0.0;
  }
  return 1.0 -
         std::pow(1.0 - options_.drift_per_epoch, static_cast<double>(age));
}

std::size_t ChurnPlan::live_count(std::size_t epoch) const {
  std::size_t live = 0;
  for (const Arrival& a : arrivals_) {
    if (a.arrival <= epoch && epoch < a.departure) {
      ++live;
    }
  }
  return live;
}

EpochChurn ChurnPlan::churn_at(std::size_t epoch) const {
  EpochChurn churn;
  churn.load_factor = load_factor(epoch);
  churn.drift_t = drift_t(epoch);
  for (const Arrival& a : arrivals_) {
    if (a.arrival == epoch) {
      churn.arrived.push_back(a.id);
    }
    if (a.departure == epoch && a.arrival <= epoch) {
      churn.departed.push_back(a.id);
    }
  }
  std::sort(churn.arrived.begin(), churn.arrived.end());
  std::sort(churn.departed.begin(), churn.departed.end());
  return churn;
}

std::vector<std::uint64_t> ChurnPlan::live_arrivals(std::size_t epoch) const {
  std::vector<std::uint64_t> ids;
  for (const Arrival& a : arrivals_) {
    if (a.arrival <= epoch && epoch < a.departure) {
      ids.push_back(a.id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

ClipProfile ChurnPlan::arrival_clip(const Arrival& a,
                                    std::size_t epoch) const {
  ClipProfile clip = ClipProfile::generate(options_.clip_seed, a.id);
  const double t = drift_t(epoch - a.arrival);
  if (t > 0.0) {
    const ClipProfile target = ClipProfile::generate(options_.drift_seed, a.id);
    clip = ClipProfile::blend(clip, target, t);
  }
  return clip;
}

Workload ChurnPlan::offered_workload(const Workload& base,
                                     std::size_t epoch) const {
  Workload offered = base;
  const double wave = load_factor(epoch);
  const double base_t = drift_t(epoch);
  if (base_t > 0.0) {
    for (ClipProfile& clip : offered.clips) {
      const ClipProfile target =
          ClipProfile::generate(options_.drift_seed, clip.id());
      clip = ClipProfile::blend(clip, target, base_t);
    }
  }
  for (const Arrival& a : arrivals_) {
    if (a.arrival <= epoch && epoch < a.departure) {
      offered.clips.push_back(arrival_clip(a, epoch));
    }
  }
  // Exact compare on purpose: load_factor returns the literal 1.0 when the
  // diurnal wave is off, and the identity wave must not touch the clips.
  if (wave != 1.0) {  // pamo-analyze: allow(float-eq)
    for (ClipProfile& clip : offered.clips) {
      clip = ClipProfile::scaled_load(clip, wave);
    }
  }
  return offered;
}

// pamo-analyze: snapshot(ChurnPlan)
json::Value ChurnPlan::snapshot() const {
  json::Value obj = json::Value::object();
  obj.set("arrival_rate", json::Value(options_.arrival_rate));
  obj.set("mean_lifetime_epochs", json::Value(options_.mean_lifetime_epochs));
  obj.set("max_streams", json::Value(std::uint64_t{options_.max_streams}));
  obj.set("diurnal_amplitude", json::Value(options_.diurnal_amplitude));
  obj.set("diurnal_period",
          json::Value(std::uint64_t{options_.diurnal_period}));
  obj.set("drift_per_epoch", json::Value(options_.drift_per_epoch));
  obj.set("drift_seed", json::Value(options_.drift_seed));
  obj.set("clip_seed", json::Value(options_.clip_seed));
  obj.set("arrival_id_base", json::Value(options_.arrival_id_base));
  obj.set("seed", json::Value(options_.seed));
  obj.set("horizon", json::Value(std::uint64_t{options_.horizon}));
  return obj;
}

// pamo-analyze: snapshot(ChurnPlan)
ChurnPlan ChurnPlan::restore(const json::Value& snap) {
  ChurnOptions options;
  options.arrival_rate = snap.at("arrival_rate").as_double();
  options.mean_lifetime_epochs = snap.at("mean_lifetime_epochs").as_double();
  options.max_streams =
      static_cast<std::size_t>(snap.at("max_streams").as_uint());
  options.diurnal_amplitude = snap.at("diurnal_amplitude").as_double();
  options.diurnal_period =
      static_cast<std::size_t>(snap.at("diurnal_period").as_uint());
  options.drift_per_epoch = snap.at("drift_per_epoch").as_double();
  options.drift_seed = snap.at("drift_seed").as_uint();
  options.clip_seed = snap.at("clip_seed").as_uint();
  options.arrival_id_base = snap.at("arrival_id_base").as_uint();
  options.seed = snap.at("seed").as_uint();
  options.horizon = static_cast<std::size_t>(snap.at("horizon").as_uint());
  return ChurnPlan(options);
}

}  // namespace pamo::eva
