// GpRegressor checkpoint serialization (see gp_regressor.hpp).
//
// The snapshot carries the source of truth only: the cells (raw grid
// inputs, unit moments, weights and weighted means, and under the robust
// fit their full-weight extremes), hyperparameters and diagnostics,
// so its size is bounded by the number of observed grid points. Restore
// maps each input back to its grid point and re-derives the
// standardization, the kernel table, the factor and alpha with one solve
// and no MLE. fit() and update() leave the factor of exactly that
// solve over the cells they store (the robust rounds' last solve is over
// the folded weights), so the restored model predicts — and keeps
// updating — bit-for-bit like the original.
#include <algorithm>
#include <cmath>
#include <limits>
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
  // Snapshots from builds with the CUSUM drift detector also carry its
  // three counters, and builds with the factor-extension update their
  // incremental_updates/incremental_fallbacks counts; they are ignored.
  return d;
}

/// A cell extreme, or null where the cell has none (±∞ in memory).
json::Value extremes_to_json(const std::vector<double>& values) {
  json::Value arr = json::Value::array();
  for (const double v : values) {
    arr.push_back(std::isfinite(v) ? json::Value(v) : json::Value());
  }
  return arr;
}

std::vector<double> extremes_from_json(const json::Value& v, double none) {
  std::vector<double> out;
  out.reserve(v.items().size());
  for (const auto& item : v.items()) {
    out.push_back(item.kind() == json::Value::Kind::kNull ? none
                                                          : item.as_double());
  }
  return out;
}

}  // namespace

// pamo-analyze: snapshot(GpRegressor)
json::Value GpRegressor::snapshot() const {
  const std::size_t n = cell_.size();
  PAMO_CHECK(count_.size() == n && mean_.size() == n && m2_.size() == n &&
                 weight_.size() == n && wmean_.size() == n,
             "GP snapshot over inconsistent cell arrays");
  std::vector<std::vector<double>> x;
  x.reserve(n);
  for (const std::size_t g : cell_) x.push_back(grid_[g]);
  json::Value cells = json::Value::object();
  cells.set("x", codec::rows_to_json(x));
  cells.set("count", codec::doubles_to_json(count_));
  cells.set("mean", codec::doubles_to_json(mean_));
  cells.set("m2", codec::doubles_to_json(m2_));
  cells.set("weight", codec::doubles_to_json(weight_));
  cells.set("wmean", codec::doubles_to_json(wmean_));
  if (options_.robust_noise) {
    cells.set("hi", extremes_to_json(hi_));
    cells.set("lo", extremes_to_json(lo_));
  }
  json::Value obj = json::Value::object();
  obj.set("dim", json::Value(std::uint64_t{dim_}));
  obj.set("cells", std::move(cells));
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
  GpRegressor fresh(grid_, options_);
  const auto dim = static_cast<std::size_t>(snap.at("dim").as_uint());
  fresh.params_ = params_from_json(snap.at("params"));
  const GpFitDiagnostics diagnostics =
      diagnostics_from_json(snap.at("diagnostics"));

  if (const json::Value* cells = snap.find("cells")) {
    for (const auto& x : codec::rows_from_json(cells->at("x"))) {
      fresh.cell_.push_back(fresh.grid_index(x));
    }
    fresh.count_ = codec::doubles_from_json(cells->at("count"));
    fresh.mean_ = codec::doubles_from_json(cells->at("mean"));
    fresh.m2_ = codec::doubles_from_json(cells->at("m2"));
    fresh.weight_ = codec::doubles_from_json(cells->at("weight"));
    fresh.wmean_ = codec::doubles_from_json(cells->at("wmean"));
    const std::size_t n = fresh.cell_.size();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const json::Value* hi = cells->find("hi");
    const json::Value* lo = cells->find("lo");
    fresh.hi_ = hi != nullptr ? extremes_from_json(*hi, -kInf)
                              : std::vector<double>(n, -kInf);
    fresh.lo_ = lo != nullptr ? extremes_from_json(*lo, kInf)
                              : std::vector<double>(n, kInf);
    PAMO_CHECK(fresh.count_.size() == n && fresh.mean_.size() == n &&
                   fresh.m2_.size() == n && fresh.weight_.size() == n &&
                   fresh.wmean_.size() == n && fresh.hi_.size() == n &&
                   fresh.lo_.size() == n,
               "GP snapshot is internally inconsistent: the cell arrays "
               "differ in length");
    for (std::size_t i = 0; i < n; ++i) {
      // λ ≥ 1 per row, so 0 < W ≤ count.
      PAMO_CHECK(std::isfinite(fresh.count_[i]) && fresh.count_[i] >= 1.0 &&
                     std::isfinite(fresh.mean_[i]) &&
                     std::isfinite(fresh.m2_[i]) && fresh.m2_[i] >= 0.0 &&
                     std::isfinite(fresh.wmean_[i]) && fresh.weight_[i] > 0.0 &&
                     fresh.weight_[i] <= fresh.count_[i],
                 "GP snapshot cell statistics must be finite, with count "
                 ">= 1, M2 >= 0 and 0 < weight <= count");
    }
  } else {
    // A build that stored every row: fold them, each with weight 1/λ.
    const json::Value* x_raw = snap.find("x_raw");
    const json::Value* y_raw = snap.find("y_raw");
    const json::Value* noise_scale = snap.find("noise_scale");
    PAMO_CHECK(x_raw != nullptr && y_raw != nullptr && noise_scale != nullptr,
               "GP snapshot carries neither cells nor raw rows");
    const auto x = codec::rows_from_json(*x_raw);
    const auto y = codec::doubles_from_json(*y_raw);
    const auto lambda = codec::doubles_from_json(*noise_scale);
    PAMO_CHECK(y.size() == x.size() && lambda.size() == x.size(),
               "GP snapshot is internally inconsistent: x_raw, y_raw and "
               "noise_scale differ in length");
    for (std::size_t j = 0; j < x.size(); ++j) {
      PAMO_CHECK(std::isfinite(y[j]),
                 "GP snapshot rows must have finite targets");
      PAMO_CHECK(std::isfinite(lambda[j]) && lambda[j] >= 1.0,
                 "GP snapshot noise scales must be finite and >= 1");
      const std::size_t cell = fresh.cell_of(fresh.grid_index(x[j]));
      fresh.fold_unit(cell, y[j]);
      fresh.fold_weight(cell, y[j], 1.0 / lambda[j]);
      // pamo-analyze: allow(float-eq)
      if (fresh.options_.robust_noise && lambda[j] == 1.0) {
        fresh.hi_[cell] = std::max(fresh.hi_[cell], y[j]);
        fresh.lo_[cell] = std::min(fresh.lo_[cell], y[j]);
      }
    }
  }
  if (fresh.is_fit()) {
    PAMO_CHECK(fresh.num_points() >= 2 && dim == fresh.dim_ &&
                   fresh.params_.dim() == fresh.dim_,
               "fitted GP snapshot must carry >= 2 observations, and the "
               "input dimension and hyperparameters of this model's grid");
    fresh.form_kernel_table();
    fresh.standardize();
    fresh.standardize_targets();
    fresh.solve_system();
  }
  // The re-derivation may walk the jitter ladder again; its counters were
  // already recorded when the original solve ran.
  fresh.diagnostics_ = diagnostics;
  *this = std::move(fresh);
}

}  // namespace pamo::gp
