// Preference-stack checkpoint serialization (PreferenceGp +
// PreferenceLearner; see the headers).
//
// Both restores are exact-state transplants, not refits: the Laplace
// iteration is warm-start path-dependent (its Newton trajectory depends on
// the g_map it starts from), so re-running it on restore could land on a
// bitwise-different MAP. Carrying g_map, W, both Cholesky factors, and the
// per-pair weights across makes the restored posterior — and every EUBO
// score computed from it — identical to the uninterrupted instance's.
#include <utility>

#include "ckpt/codec.hpp"
#include "common/error.hpp"
#include "pref/learner.hpp"
#include "pref/preference_gp.hpp"

namespace pamo::pref {

namespace json = obs::json;
namespace codec = ckpt::codec;

namespace {

json::Value pairs_to_json(const std::vector<ComparisonPair>& pairs) {
  json::Value arr = json::Value::array();
  for (const auto& [winner, loser] : pairs) {
    json::Value pair = json::Value::array();
    pair.push_back(json::Value(static_cast<std::uint64_t>(winner)));
    pair.push_back(json::Value(static_cast<std::uint64_t>(loser)));
    arr.push_back(std::move(pair));
  }
  return arr;
}

std::vector<ComparisonPair> pairs_from_json(const json::Value& v) {
  std::vector<ComparisonPair> out;
  out.reserve(v.items().size());
  for (const auto& item : v.items()) {
    PAMO_CHECK(item.items().size() == 2,
               "comparison pair snapshot must have two indices");
    out.emplace_back(static_cast<std::size_t>(item.items()[0].as_uint()),
                     static_cast<std::size_t>(item.items()[1].as_uint()));
  }
  return out;
}

}  // namespace

// pamo-analyze: snapshot(PreferenceGp)
json::Value PreferenceGp::snapshot() const {
  json::Value obj = json::Value::object();
  json::Value params = json::Value::object();
  params.set("log_lengthscales",
             codec::doubles_to_json(params_.log_lengthscales));
  params.set("log_signal_var", json::Value(params_.log_signal_var));
  params.set("log_noise_var", json::Value(params_.log_noise_var));
  obj.set("params", std::move(params));
  obj.set("points", codec::rows_to_json(points_));
  obj.set("pairs", pairs_to_json(pairs_));
  obj.set("pair_inv_noise", codec::doubles_to_json(pair_inv_noise_));
  obj.set("num_inconsistent",
          json::Value(static_cast<std::uint64_t>(num_inconsistent_)));
  obj.set("g_map", codec::doubles_to_json(g_map_));
  obj.set("w", codec::matrix_to_json(w_));
  obj.set("k_chol", codec::cholesky_to_json(k_chol_));
  obj.set("b_chol", codec::cholesky_to_json(b_chol_));
  obj.set("kinv_g", codec::doubles_to_json(kinv_g_));
  return obj;
}

// pamo-analyze: snapshot(PreferenceGp)
void PreferenceGp::restore(const json::Value& snap) {
  const json::Value& params = snap.at("params");
  params_.log_lengthscales =
      codec::doubles_from_json(params.at("log_lengthscales"));
  params_.log_signal_var = params.at("log_signal_var").as_double();
  params_.log_noise_var = params.at("log_noise_var").as_double();
  kernel_.emplace(options_.kernel, params_);
  points_ = codec::rows_from_json(snap.at("points"));
  pairs_ = pairs_from_json(snap.at("pairs"));
  pair_inv_noise_ = codec::doubles_from_json(snap.at("pair_inv_noise"));
  num_inconsistent_ =
      static_cast<std::size_t>(snap.at("num_inconsistent").as_uint());
  g_map_ = codec::doubles_from_json(snap.at("g_map"));
  w_ = codec::matrix_from_json(snap.at("w"));
  k_chol_ = codec::cholesky_from_json(snap.at("k_chol"));
  b_chol_ = codec::cholesky_from_json(snap.at("b_chol"));
  kinv_g_ = codec::doubles_from_json(snap.at("kinv_g"));
  PAMO_CHECK(g_map_.size() == points_.size(),
             "preference snapshot is internally inconsistent");
  PAMO_CHECK(!is_fit() || (k_chol_.has_value() && b_chol_.has_value()),
             "fitted preference snapshot must carry both factors");
}

// pamo-analyze: snapshot(PreferenceLearner)
json::Value PreferenceLearner::snapshot() const {
  json::Value obj = json::Value::object();
  obj.set("pool", codec::rows_to_json(pool_));
  obj.set("pairs", pairs_to_json(pairs_));
  obj.set("rng", codec::rng_to_json(rng_));
  obj.set("model", model_.snapshot());
  return obj;
}

// pamo-analyze: snapshot(PreferenceLearner)
void PreferenceLearner::restore(const json::Value& snap) {
  pool_ = codec::rows_from_json(snap.at("pool"));
  PAMO_CHECK(pool_.size() >= 2, "learner snapshot needs >= 2 candidates");
  pairs_ = pairs_from_json(snap.at("pairs"));
  for (const auto& [winner, loser] : pairs_) {
    PAMO_CHECK(winner < pool_.size() && loser < pool_.size(),
               "learner snapshot pair index out of range");
  }
  rng_ = codec::rng_from_json(snap.at("rng"));
  model_.restore(snap.at("model"));
}

}  // namespace pamo::pref
