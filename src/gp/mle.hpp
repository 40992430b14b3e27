// Hyperparameter maximum likelihood for GpRegressor: the negative log
// marginal likelihood of the distinct-input system with its analytic
// gradient, and the box-constrained quasi-Newton minimizer that fits it.
// Private to src/gp: GpRegressor and the tests are its only includers.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "gp/kernel.hpp"
#include "la/cholesky.hpp"

namespace pamo::gp::mle {

/// Unit-weight sufficient statistics of the standardized targets per
/// distinct input: the likelihood's view of the data.
struct GroupMoments {
  la::Vector count;            // m_i
  la::Vector mean;             // ȳ_i
  double log_count_sum = 0.0;  // Σ_i log m_i
  double within_ss = 0.0;      // Σ_i Σ_{j∈i} (y_j − ȳ_i)²
  std::size_t rows = 0;        // observations, Σ_i m_i
};

/// −log p(y | θ) over the packed log-hyperparameters
/// θ = [log ℓ_1..d, log σ_f², log σ_n²] (KernelParams::pack order). Every
/// observation enters: the distinct-input GP with noise σ²/m_i, plus the
/// closed-form within-group term of the repeated rows. The buffers are
/// sized once at construction, so an evaluation allocates nothing.
class NegLogLikelihood {
 public:
  /// `x` and `moments` must outlive this object.
  NegLogLikelihood(KernelType type, const std::vector<std::vector<double>>& x,
                   const GroupMoments& moments);

  /// −LML at `theta`, or +∞ when the system cannot be factorized even
  /// with jitter. With `grad` set (θ-sized) it also writes ∂(−LML)/∂θ,
  /// from Rasmussen & Williams (2006) Eq. 5.9:
  /// ∂L/∂θ = ½ tr((ααᵀ − K⁻¹) ∂K/∂θ).
  double operator()(const std::vector<double>& theta,
                    std::vector<double>* grad);

 private:
  KernelType type_;
  const std::vector<std::vector<double>>& x_;
  const GroupMoments& moments_;
  std::size_t dim_;
  // Per evaluation, reused.
  std::vector<double> inv_ls_;  // ℓ_k⁻¹
  la::Matrix k_;                // K_d + σ²·diag(1/m_i)
  la::Cholesky chol_;
  la::Vector alpha_;            // K⁻¹ ȳ
  la::Matrix inv_l_;            // L⁻¹ (lower triangle)
  la::Matrix inv_k_;            // K⁻¹ (upper triangle)
  std::vector<double> pair_dk_;  // per pair i < j: ∂k/∂log ℓ factor g
  std::vector<double> pair_s2_;  // per pair and dimension: s_k²
};

/// A box [lo, hi] with lo ≤ hi component-wise and at least one dimension.
struct Box {
  std::vector<double> lo;
  std::vector<double> hi;
  [[nodiscard]] std::size_t dim() const { return lo.size(); }
};

/// f(x) with its gradient written into `grad` (x-sized). A non-finite
/// value marks x as infeasible.
using ValueAndGradient =
    std::function<double(const std::vector<double>& x,
                         std::vector<double>& grad)>;

struct MinimizeResult {
  std::vector<double> x;
  double value = 0.0;
  /// Value-and-gradient evaluations spent (over every start for
  /// multistart_minimize).
  std::size_t evals = 0;
};

/// Minimize `f` over `box` from `x0` (projected into the box) with
/// projected BFGS: coordinates at a bound whose gradient points out of
/// the box are held fixed, the free ones step along −H∇f under Armijo
/// backtracking, and no step (the first, from H = I, included) moves a
/// coordinate by more than a tenth of its box width. A non-finite trial
/// value backtracks. At most `max_evals` (≥ 1) evaluations; returns the
/// best point seen.
MinimizeResult minimize_box(const ValueAndGradient& f, const Box& box,
                            const std::vector<double>& x0,
                            std::size_t max_evals);

/// minimize_box from `x0` (when given), then from `num_starts` scrambled
/// Halton points of the box (HaltonSequence(box.dim(), seed)); the first
/// strictly better result wins.
MinimizeResult multistart_minimize(const ValueAndGradient& f, const Box& box,
                                   std::size_t num_starts, std::uint64_t seed,
                                   const std::vector<double>* x0,
                                   std::size_t max_evals);

}  // namespace pamo::gp::mle
