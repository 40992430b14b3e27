// GpRegressor checkpoint serialization (see gp_regressor.hpp).
//
// The snapshot carries the source of truth only: raw rows, per-row noise
// scales, hyperparameters and diagnostics. Restore re-derives the scaling,
// the distinct rows, the factor and alpha with one solve and no MLE. Every
// path that leaves a factor behind (full solve, jitter ladder, factor
// extension, robust re-solve) produces exactly what that one solve
// produces over the same state, so the restored model predicts — and keeps
// updating — bit-for-bit like the original, including its
// incremental-update eligibility (jitter == 0 on the cached factor).
#include <cmath>
#include <utility>

#include "ckpt/codec.hpp"
#include "common/error.hpp"
#include "gp/gp_regressor.hpp"

namespace pamo::gp {

namespace json = obs::json;
namespace codec = ckpt::codec;

namespace {

// pamo-analyze: snapshot(KernelParams)
json::Value params_to_json(const KernelParams& params) {
  json::Value obj = json::Value::object();
  obj.set("log_lengthscales", codec::doubles_to_json(params.log_lengthscales));
  obj.set("log_signal_var", json::Value(params.log_signal_var));
  obj.set("log_noise_var", json::Value(params.log_noise_var));
  return obj;
}

// pamo-analyze: snapshot(KernelParams)
KernelParams params_from_json(const json::Value& v) {
  KernelParams params;
  params.log_lengthscales = codec::doubles_from_json(v.at("log_lengthscales"));
  params.log_signal_var = v.at("log_signal_var").as_double();
  params.log_noise_var = v.at("log_noise_var").as_double();
  return params;
}

// pamo-analyze: snapshot(GpFitDiagnostics)
json::Value diagnostics_to_json(const GpFitDiagnostics& d) {
  json::Value obj = json::Value::object();
  obj.set("rows_rejected", json::Value(std::uint64_t{d.rows_rejected}));
  obj.set("outliers_downweighted",
          json::Value(std::uint64_t{d.outliers_downweighted}));
  obj.set("cholesky_recoveries",
          json::Value(std::uint64_t{d.cholesky_recoveries}));
  obj.set("fit_jitter", json::Value(d.fit_jitter));
  obj.set("posterior_jitter", json::Value(d.posterior_jitter));
  obj.set("incremental_updates",
          json::Value(std::uint64_t{d.incremental_updates}));
  obj.set("incremental_fallbacks",
          json::Value(std::uint64_t{d.incremental_fallbacks}));
  return obj;
}

// pamo-analyze: snapshot(GpFitDiagnostics)
GpFitDiagnostics diagnostics_from_json(const json::Value& v) {
  GpFitDiagnostics d;
  d.rows_rejected = static_cast<std::size_t>(v.at("rows_rejected").as_uint());
  d.outliers_downweighted =
      static_cast<std::size_t>(v.at("outliers_downweighted").as_uint());
  d.cholesky_recoveries =
      static_cast<std::size_t>(v.at("cholesky_recoveries").as_uint());
  d.fit_jitter = v.at("fit_jitter").as_double();
  d.posterior_jitter = v.at("posterior_jitter").as_double();
  d.incremental_updates =
      static_cast<std::size_t>(v.at("incremental_updates").as_uint());
  d.incremental_fallbacks =
      static_cast<std::size_t>(v.at("incremental_fallbacks").as_uint());
  // Snapshots from builds with the CUSUM drift detector also carry its
  // three counters; they are ignored.
  return d;
}

}  // namespace

// pamo-analyze: snapshot(GpRegressor)
json::Value GpRegressor::snapshot() const {
  PAMO_CHECK(x_raw_.size() == y_raw_.size() &&
                 noise_scale_.size() == x_raw_.size(),
             "GP snapshot over inconsistent training arrays");
  json::Value obj = json::Value::object();
  obj.set("dim", json::Value(std::uint64_t{dim_}));
  obj.set("x_raw", codec::rows_to_json(x_raw_));
  obj.set("y_raw", codec::doubles_to_json(y_raw_));
  obj.set("noise_scale", codec::doubles_to_json(noise_scale_));
  obj.set("params", params_to_json(params_));
  obj.set("diagnostics", diagnostics_to_json(diagnostics_));
  return obj;
}

// pamo-analyze: snapshot(GpRegressor)
void GpRegressor::restore(const json::Value& snap) {
  PAMO_CHECK(snap.find("sparse") == nullptr,
             "GP snapshot carries an inducing-point (sparse) system; that "
             "backend no longer exists, so this checkpoint cannot be resumed");
  // Decode into a fresh instance and move it in only once every check has
  // passed: a rejected snapshot leaves this model untouched.
  GpRegressor fresh(options_);
  fresh.dim_ = static_cast<std::size_t>(snap.at("dim").as_uint());
  fresh.x_raw_ = codec::rows_from_json(snap.at("x_raw"));
  fresh.y_raw_ = codec::doubles_from_json(snap.at("y_raw"));
  fresh.noise_scale_ = codec::doubles_from_json(snap.at("noise_scale"));
  fresh.params_ = params_from_json(snap.at("params"));
  const GpFitDiagnostics diagnostics =
      diagnostics_from_json(snap.at("diagnostics"));

  const std::size_t n = fresh.x_raw_.size();
  PAMO_CHECK(fresh.y_raw_.size() == n && fresh.noise_scale_.size() == n,
             "GP snapshot is internally inconsistent: x_raw, y_raw and "
             "noise_scale differ in length");
  for (std::size_t j = 0; j < n; ++j) {
    PAMO_CHECK(fresh.x_raw_[j].size() == fresh.dim_,
               "GP snapshot row width differs from its dim");
    PAMO_CHECK(std::isfinite(fresh.noise_scale_[j]) &&
                   fresh.noise_scale_[j] >= 1.0,
               "GP snapshot noise scales must be finite and >= 1");
  }
  if (n > 0) {
    PAMO_CHECK(n >= 2 && fresh.dim_ >= 1 && fresh.params_.dim() == fresh.dim_,
               "fitted GP snapshot must carry >= 2 rows and hyperparameters "
               "of its input dimension");
    fresh.derive_inputs();
    fresh.solve_system();
  }
  // The re-derivation may walk the jitter ladder again; its counters were
  // already recorded when the original solve ran.
  fresh.diagnostics_ = diagnostics;
  *this = std::move(fresh);
}

}  // namespace pamo::gp
