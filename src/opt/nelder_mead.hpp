// Nelder–Mead simplex minimization with box constraints, plus a
// multi-start wrapper. Used for GP hyperparameter marginal-likelihood
// optimization and for inner maximization of acquisition functions over
// continuous relaxations.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace pamo::opt {

using Objective = std::function<double(const std::vector<double>&)>;

struct Box {
  std::vector<double> lo;
  std::vector<double> hi;

  [[nodiscard]] std::size_t dim() const { return lo.size(); }
  /// Clamp x into the box component-wise.
  [[nodiscard]] std::vector<double> clamp(std::vector<double> x) const;
};

/// The initial simplex edge is 10% of the box width per dimension; a run
/// stops when the simplex spans < 1e-8 per coordinate and < 1e-10 in value.
struct NelderMeadOptions {
  std::size_t max_evals = 2000;
};

struct OptResult {
  std::vector<double> x;
  double value = 0.0;
  std::size_t evals = 0;
};

/// Minimize `f` over `box` starting from `x0` (clamped into the box).
OptResult nelder_mead(const Objective& f, const Box& box,
                      const std::vector<double>& x0,
                      const NelderMeadOptions& options = {});

/// Minimize `f` with `num_starts` Nelder–Mead runs from quasi-random
/// starting points (plus `x0` if provided); returns the best result.
OptResult multistart_minimize(const Objective& f, const Box& box,
                              std::size_t num_starts, std::uint64_t seed,
                              const std::vector<double>* x0 = nullptr,
                              const NelderMeadOptions& options = {});

}  // namespace pamo::opt
