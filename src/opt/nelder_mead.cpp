#include "opt/nelder_mead.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/quasi.hpp"

namespace pamo::opt {

std::vector<double> Box::clamp(std::vector<double> x) const {
  PAMO_CHECK(x.size() == lo.size(), "clamp dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::min(hi[i], std::max(lo[i], x[i]));
  }
  return x;
}

namespace {

struct Vertex {
  std::vector<double> x;
  double f;
};

constexpr double kXTolerance = 1e-8;
constexpr double kFTolerance = 1e-10;
/// Initial simplex edge as a fraction of the box width per dimension.
constexpr double kInitialStep = 0.10;

}  // namespace

OptResult nelder_mead(const Objective& f, const Box& box,
                      const std::vector<double>& x0,
                      const NelderMeadOptions& options) {
  const std::size_t d = box.dim();
  PAMO_CHECK(d > 0, "nelder_mead requires dimension >= 1");
  PAMO_CHECK(box.lo.size() == box.hi.size(), "box lo/hi size mismatch");
  for (std::size_t i = 0; i < d; ++i) {
    PAMO_CHECK(box.lo[i] <= box.hi[i], "box lo must be <= hi");
  }

  std::size_t evals = 0;
  auto eval = [&](const std::vector<double>& x) {
    ++evals;
    const double v = f(x);
    return std::isfinite(v) ? v : std::numeric_limits<double>::max();
  };

  // Initial simplex: x0 plus a step along each axis, all clamped.
  std::vector<Vertex> simplex;
  simplex.reserve(d + 1);
  std::vector<double> base = box.clamp(x0);
  simplex.push_back({base, eval(base)});
  for (std::size_t i = 0; i < d; ++i) {
    std::vector<double> v = base;
    const double width = box.hi[i] - box.lo[i];
    double step = kInitialStep * (width > 0 ? width : 1.0);
    if (v[i] + step > box.hi[i]) step = -step;
    v[i] += step;
    v = box.clamp(v);
    simplex.push_back({v, eval(v)});
  }

  constexpr double alpha = 1.0;   // reflection
  constexpr double gamma = 2.0;   // expansion
  constexpr double rho = 0.5;     // contraction
  constexpr double sigma = 0.5;   // shrink

  auto by_value = [](const Vertex& a, const Vertex& b) { return a.f < b.f; };

  while (evals < options.max_evals) {
    std::sort(simplex.begin(), simplex.end(), by_value);

    // Convergence: simplex diameter and value spread.
    double max_dx = 0.0;
    for (std::size_t i = 1; i <= d; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        max_dx = std::max(max_dx,
                          std::fabs(simplex[i].x[j] - simplex[0].x[j]));
      }
    }
    if (max_dx < kXTolerance &&
        std::fabs(simplex[d].f - simplex[0].f) < kFTolerance) {
      break;
    }

    // Centroid of all but the worst vertex.
    std::vector<double> centroid(d, 0.0);
    for (std::size_t i = 0; i < d + 1; ++i) {
      if (i == d) continue;  // simplex is sorted; index d is the worst
      for (std::size_t j = 0; j < d; ++j) centroid[j] += simplex[i].x[j];
    }
    for (double& c : centroid) c /= static_cast<double>(d);

    auto affine = [&](double t) {
      std::vector<double> x(d);
      for (std::size_t j = 0; j < d; ++j) {
        x[j] = centroid[j] + t * (centroid[j] - simplex[d].x[j]);
      }
      return box.clamp(std::move(x));
    };

    const std::vector<double> xr = affine(alpha);
    const double fr = eval(xr);
    if (fr < simplex[0].f) {
      const std::vector<double> xe = affine(gamma);
      const double fe = eval(xe);
      simplex[d] = fe < fr ? Vertex{xe, fe} : Vertex{xr, fr};
    } else if (fr < simplex[d - 1].f) {
      simplex[d] = {xr, fr};
    } else {
      const std::vector<double> xc = affine(-rho);
      const double fc = eval(xc);
      if (fc < simplex[d].f) {
        simplex[d] = {xc, fc};
      } else {
        // Shrink towards the best vertex.
        for (std::size_t i = 1; i <= d; ++i) {
          for (std::size_t j = 0; j < d; ++j) {
            simplex[i].x[j] =
                simplex[0].x[j] + sigma * (simplex[i].x[j] - simplex[0].x[j]);
          }
          simplex[i].f = eval(simplex[i].x);
        }
      }
    }
  }

  std::sort(simplex.begin(), simplex.end(), by_value);
  return {simplex[0].x, simplex[0].f, evals};
}

OptResult multistart_minimize(const Objective& f, const Box& box,
                              std::size_t num_starts, std::uint64_t seed,
                              const std::vector<double>* x0,
                              const NelderMeadOptions& options) {
  PAMO_CHECK(num_starts >= 1 || x0 != nullptr,
             "multistart needs at least one start");
  const std::size_t d = box.dim();
  HaltonSequence halton(d, seed);

  OptResult best;
  best.value = std::numeric_limits<double>::max();
  bool have_best = false;

  auto run_from = [&](const std::vector<double>& start) {
    OptResult r = nelder_mead(f, box, start, options);
    if (!have_best || r.value < best.value) {
      best = std::move(r);
      have_best = true;
    }
  };

  if (x0 != nullptr) run_from(*x0);
  for (std::size_t s = 0; s < num_starts; ++s) {
    std::vector<double> u = halton.next();
    std::vector<double> start(d);
    for (std::size_t i = 0; i < d; ++i) {
      start[i] = box.lo[i] + u[i] * (box.hi[i] - box.lo[i]);
    }
    run_from(start);
  }
  return best;
}

}  // namespace pamo::opt
