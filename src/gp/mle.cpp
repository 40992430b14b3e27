#include "gp/mle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/quasi.hpp"

namespace pamo::gp::mle {

namespace {

constexpr double kLog2Pi = 1.8378770664093454835606594728112;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sufficient decrease of the Armijo condition.
constexpr double kArmijo = 1e-4;
/// No step moves a coordinate by more than this fraction of its box
/// width: it bounds the first step (from H = I) and keeps a poor early H
/// from jumping across the box into another basin.
constexpr double kMaxStepFraction = 0.1;
/// Converged when no free coordinate's gradient exceeds this.
constexpr double kGradientTolerance = 1e-5;
/// ... or when an accepted step gains less than this, relative to |f|.
constexpr double kValueTolerance = 1e-10;
/// Backtracking gives up below this step fraction.
constexpr double kMinStep = 1e-10;

void check_box(const Box& box) {
  PAMO_CHECK(box.dim() > 0, "minimize_box requires dimension >= 1");
  PAMO_CHECK(box.lo.size() == box.hi.size(), "box lo/hi size mismatch");
  for (std::size_t i = 0; i < box.dim(); ++i) {
    PAMO_CHECK(box.lo[i] <= box.hi[i], "box lo must be <= hi");
  }
}

void set_identity(la::Matrix& h, double diagonal) {
  std::fill(h.data().begin(), h.data().end(), 0.0);
  for (std::size_t i = 0; i < h.rows(); ++i) h(i, i) = diagonal;
}

}  // namespace

NegLogLikelihood::NegLogLikelihood(KernelType type,
                                   const std::vector<std::vector<double>>& x,
                                   const GroupMoments& moments)
    : type_(type), x_(x), moments_(moments),
      dim_(x.empty() ? 0 : x.front().size()) {
  const std::size_t n = x.size();
  PAMO_CHECK(n > 0 && dim_ > 0, "likelihood over no inputs");
  PAMO_CHECK(moments.count.size() == n && moments.mean.size() == n,
             "group moments must cover every distinct input");
  for (const auto& row : x) {
    PAMO_CHECK(row.size() == dim_, "ragged input matrix");
  }
  const std::size_t pairs = n * (n - 1) / 2;
  inv_ls_.resize(dim_);
  k_ = la::Matrix(n, n);
  alpha_.resize(n);
  inv_l_ = la::Matrix(n, n);
  inv_k_ = la::Matrix(n, n);
  pair_dk_.resize(pairs);
  pair_s2_.resize(pairs * dim_);
}

double NegLogLikelihood::operator()(const std::vector<double>& theta,
                                    std::vector<double>* grad) {
  PAMO_CHECK(theta.size() == dim_ + 2, "packed hyperparameter size mismatch");
  PAMO_CHECK(grad == nullptr || grad->size() == theta.size(),
             "gradient size mismatch");
  const std::size_t n = x_.size();
  // Loop-invariant exponentials, as KernelEvaluator forms them.
  for (std::size_t k = 0; k < dim_; ++k) inv_ls_[k] = std::exp(-theta[k]);
  const double signal_var = std::exp(theta[dim_]);
  const double log_noise = theta[dim_ + 1];
  const double noise = std::exp(log_noise);

  // One pass over the distinct-input pairs: K_d + σ²·diag(1/m_i), entry
  // for entry as kernel_matrix forms it, and each pair's lengthscale
  // derivative factor and per-dimension s_k² for the gradient.
  std::size_t pair = 0;
  for (std::size_t i = 0; i < n; ++i) {
    k_(i, i) = signal_var;
    k_(i, i) += noise / moments_.count[i];
    const double* xi = x_[i].data();
    for (std::size_t j = i + 1; j < n; ++j, ++pair) {
      const double* xj = x_[j].data();
      double* s2 = &pair_s2_[pair * dim_];
      double r2 = 0.0;
      for (std::size_t k = 0; k < dim_; ++k) {
        const double d = (xi[k] - xj[k]) * inv_ls_[k];
        s2[k] = d * d;
        r2 += s2[k];
      }
      const double v = kernel_of_r2(type_, signal_var, r2, &pair_dk_[pair]);
      k_(i, j) = v;
      k_(j, i) = v;
    }
  }
  if (!chol_.factorize(k_)) return kInf;
  std::copy(moments_.mean.begin(), moments_.mean.end(), alpha_.begin());
  chol_.solve_in_place(alpha_);
  const double fit_term = la::dot(moments_.mean, alpha_);
  const auto d = static_cast<double>(n);
  const double reduced = -0.5 * (fit_term + chol_.log_det() + d * kLog2Pi);
  // Π_j N(y_j; f_i, σ²) = N(ȳ_i; f_i, σ²/m_i) · (2πσ²)^{−(m_i−1)/2} ·
  // m_i^{−1/2} · exp(−SS_i/2σ²), summed over the groups. Zero when every
  // input is distinct.
  const double repeats = static_cast<double>(moments_.rows) - d;
  const double lml = reduced - 0.5 * (repeats * (kLog2Pi + log_noise) +
                                      moments_.log_count_sum +
                                      moments_.within_ss / noise);
  if (grad == nullptr) return -lml;

  // K⁻¹ = L⁻ᵀL⁻¹ with both products written as row updates (axpys), so
  // no inner loop is a serial sum. Row i of L⁻¹ (columns ≤ i) comes from
  // the rows above it; then each row k of L⁻¹ adds its outer product to
  // the upper triangle of K⁻¹.
  const la::Matrix& l = chol_.lower();
  for (std::size_t i = 0; i < n; ++i) {
    double* inv_i = &inv_l_(i, 0);
    std::fill(inv_i, inv_i + i, 0.0);
    for (std::size_t k = 0; k < i; ++k) {
      const double l_ik = l(i, k);
      const double* inv_k = &inv_l_(k, 0);
      for (std::size_t c = 0; c <= k; ++c) inv_i[c] -= l_ik * inv_k[c];
    }
    const double inv_l_ii = 1.0 / l(i, i);
    for (std::size_t c = 0; c < i; ++c) inv_i[c] *= inv_l_ii;
    inv_i[i] = inv_l_ii;
  }
  std::fill(inv_k_.data().begin(), inv_k_.data().end(), 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const double* inv_k = &inv_l_(k, 0);
    for (std::size_t i = 0; i <= k; ++i) {
      const double a = inv_k[i];
      double* row = &inv_k_(i, 0);
      for (std::size_t j = i; j <= k; ++j) row[j] += a * inv_k[j];
    }
  }
  // ∂L/∂θ = ½ Σ_ij W_ij ∂K_ij/∂θ with W = ααᵀ − K⁻¹; the off-diagonal
  // pairs count twice. ∂K/∂log σ_f² = K_d; ∂K/∂log ℓ_k vanishes on the
  // diagonal; ∂K/∂log σ² = σ²·diag(1/m_i).
  std::vector<double>& g = *grad;
  std::fill(g.begin(), g.end(), 0.0);
  double g_signal = 0.0;
  double g_noise = 0.0;
  pair = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w_ii = alpha_[i] * alpha_[i] - inv_k_(i, i);
    g_signal += 0.5 * w_ii * signal_var;
    g_noise += 0.5 * w_ii * noise / moments_.count[i];
    for (std::size_t j = i + 1; j < n; ++j, ++pair) {
      const double w_ij = alpha_[i] * alpha_[j] - inv_k_(i, j);
      g_signal += w_ij * k_(i, j);
      const double w_dk = w_ij * pair_dk_[pair];
      const double* s2 = &pair_s2_[pair * dim_];
      for (std::size_t k = 0; k < dim_; ++k) g[k] += w_dk * s2[k];
    }
  }
  g_noise += -0.5 * repeats + 0.5 * moments_.within_ss / noise;
  for (std::size_t k = 0; k < dim_; ++k) g[k] = -g[k];
  g[dim_] = -g_signal;
  g[dim_ + 1] = -g_noise;
  return -lml;
}

MinimizeResult minimize_box(const ValueAndGradient& f, const Box& box,
                            const std::vector<double>& x0,
                            std::size_t max_evals) {
  check_box(box);
  const std::size_t p = box.dim();
  PAMO_CHECK(x0.size() == p, "start dimension mismatch");
  PAMO_CHECK(max_evals >= 1, "minimize_box needs at least one evaluation");
  auto project = [&box](std::size_t i, double v) {
    return std::min(box.hi[i], std::max(box.lo[i], v));
  };

  MinimizeResult best;
  best.x.resize(p);
  for (std::size_t i = 0; i < p; ++i) best.x[i] = project(i, x0[i]);
  auto eval = [&](const std::vector<double>& x, std::vector<double>& grad) {
    ++best.evals;
    const double v = f(x, grad);
    return std::isfinite(v) ? v : kInf;
  };
  std::vector<double> g(p);
  best.value = eval(best.x, g);
  if (std::isinf(best.value)) return best;  // no gradient to follow

  // Only improving steps are accepted, so best.x is the iterate.
  std::vector<double>& x = best.x;
  std::vector<double> x_new(p), g_new(p), d(p), s(p), y(p), hy(p);
  std::vector<bool> free(p), was_free(p, true);
  la::Matrix h(p, p);  // inverse-Hessian approximation on the free set
  double h_scale = 1.0;  // sᵀy / yᵀy of the latest update
  set_identity(h, h_scale);
  for (bool first = true; best.evals < max_evals; first = false) {
    // Coordinates pinned at a bound by an outward gradient stay fixed.
    double largest_free_gradient = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      free[i] = box.lo[i] < box.hi[i] && !(x[i] <= box.lo[i] && g[i] > 0.0) &&
                !(x[i] >= box.hi[i] && g[i] < 0.0);
      if (free[i]) {
        largest_free_gradient = std::max(largest_free_gradient, std::fabs(g[i]));
      }
    }
    if (largest_free_gradient <= kGradientTolerance) break;
    // Curvature learned with another free set misleads this one.
    if (free != was_free) {
      set_identity(h, h_scale);
      was_free = free;
    }

    // d = −H_FF ∇_F f; a non-descent direction resets H.
    double slope = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      d[i] = 0.0;
      if (!free[i]) continue;
      for (std::size_t j = 0; j < p; ++j) {
        if (free[j]) d[i] -= h(i, j) * g[j];
      }
      slope += d[i] * g[i];
    }
    if (!(slope < 0.0)) {
      set_identity(h, 1.0);
      for (std::size_t i = 0; i < p; ++i) d[i] = free[i] ? -g[i] : 0.0;
    }
    double scale = 1.0;
    for (std::size_t i = 0; i < p; ++i) {
      const double cap = kMaxStepFraction * (box.hi[i] - box.lo[i]);
      if (std::fabs(d[i]) > cap) scale = std::min(scale, cap / std::fabs(d[i]));
    }
    for (double& di : d) di *= scale;

    // Armijo backtracking along the projected path x(t) = P(x + t·d).
    double t = 1.0;
    double f_new = kInf;
    for (;;) {
      double decrease = 0.0;  // ∇f · (x(t) − x), the model's linear change
      bool moved = false;
      for (std::size_t i = 0; i < p; ++i) {
        x_new[i] = project(i, x[i] + t * d[i]);
        decrease += g[i] * (x_new[i] - x[i]);
        moved = moved || std::fabs(x_new[i] - x[i]) > 0.0;
      }
      if (!moved) return best;
      f_new = eval(x_new, g_new);
      if (f_new <= best.value + kArmijo * decrease) break;
      if (best.evals >= max_evals) return best;
      // Minimizer of the quadratic through f(x), its slope and f(x(t)),
      // kept within [0.1, 0.5] of the current step.
      double shrink = 0.5;
      if (!std::isinf(f_new)) {
        const double curvature = f_new - best.value - decrease;
        if (curvature > 0.0) shrink = -decrease / (2.0 * curvature);
      }
      t *= std::clamp(shrink, 0.1, 0.5);
      if (t < kMinStep) return best;
    }

    // Accept, then the BFGS update of H from s = Δx, y = Δ∇f.
    double sy = 0.0, ss = 0.0, yy = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      s[i] = x_new[i] - x[i];
      y[i] = free[i] ? g_new[i] - g[i] : 0.0;
      sy += s[i] * y[i];
      ss += s[i] * s[i];
      yy += y[i] * y[i];
    }
    const double gain = best.value - f_new;
    x.swap(x_new);
    g.swap(g_new);
    best.value = f_new;
    if (sy > 1e-10 * std::sqrt(ss * yy)) {
      // Scale the initial H to the observed curvature (Nocedal & Wright
      // 2006, Eq. 6.20) before its first update.
      h_scale = sy / yy;
      if (first) set_identity(h, h_scale);
      const double rho = 1.0 / sy;
      double yhy = 0.0;
      for (std::size_t i = 0; i < p; ++i) {
        hy[i] = 0.0;
        for (std::size_t j = 0; j < p; ++j) hy[i] += h(i, j) * y[j];
        yhy += y[i] * hy[i];
      }
      const double ss_coeff = rho * rho * yhy + rho;
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
          h(i, j) += ss_coeff * s[i] * s[j] - rho * (hy[i] * s[j] + s[i] * hy[j]);
        }
      }
    }
    if (gain <= kValueTolerance * (1.0 + std::fabs(best.value))) break;
  }
  return best;
}

MinimizeResult multistart_minimize(const ValueAndGradient& f, const Box& box,
                                   std::size_t num_starts, std::uint64_t seed,
                                   const std::vector<double>* x0,
                                   std::size_t max_evals) {
  PAMO_CHECK(num_starts >= 1 || x0 != nullptr,
             "multistart needs at least one start");
  check_box(box);
  const std::size_t p = box.dim();
  HaltonSequence halton(p, seed);

  MinimizeResult best;
  bool have_best = false;
  std::size_t evals = 0;
  auto run_from = [&](const std::vector<double>& start) {
    MinimizeResult r = minimize_box(f, box, start, max_evals);
    evals += r.evals;
    if (!have_best || r.value < best.value) {
      best = std::move(r);
      have_best = true;
    }
  };

  if (x0 != nullptr) run_from(*x0);
  std::vector<double> start(p);
  for (std::size_t s = 0; s < num_starts; ++s) {
    const std::vector<double> u = halton.next();
    for (std::size_t i = 0; i < p; ++i) {
      start[i] = box.lo[i] + u[i] * (box.hi[i] - box.lo[i]);
    }
    run_from(start);
  }
  best.evals = evals;
  PAMO_ENSURES(best.x.size() == p, "the minimizer returns a point of the box");
  return best;
}

}  // namespace pamo::gp::mle
