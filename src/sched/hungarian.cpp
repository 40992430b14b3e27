#include "sched/hungarian.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace pamo::sched {

void solve_assignment(const double* cost, std::size_t n, std::size_t m,
                      AssignmentWorkspace& workspace) {
  PAMO_CHECK(n <= m, "assignment requires rows <= cols");
  for (std::size_t k = 0; k < n * m; ++k) {
    PAMO_CHECK(std::isfinite(cost[k]), "assignment costs must be finite");
  }

  constexpr double kInf = std::numeric_limits<double>::max() / 4;

  // 1-indexed potentials over rows (u) and columns (v); p[j] = row matched
  // to column j (0 = none). Classic shortest-augmenting-path formulation.
  // Ties in the Dijkstra step resolve to the lowest column index (the scan
  // below only replaces the pivot on a strict improvement), which is what
  // makes tied costs deterministic. With no rows the matching is empty and
  // every potential 0: the B&B bound asks this question whenever a search
  // node has no open anonymous group, so the empty shape is a contract.
  auto& u = workspace.u;
  auto& v = workspace.v;
  auto& p = workspace.p;
  auto& way = workspace.way;
  auto& minv = workspace.minv;
  auto& used = workspace.used;
  u.assign(n + 1, 0.0);
  v.assign(m + 1, 0.0);
  p.assign(m + 1, 0);
  way.assign(m + 1, 0);

  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    minv.assign(m + 1, kInf);
    used.assign(m + 1, 0);
    do {
      used[j0] = 1;
      const std::size_t i0 = p[j0];
      double delta = kInf;
      std::size_t j1 = 0;
      const double* row = cost + (i0 - 1) * m;
      for (std::size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const double cur = row[j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    // Augment along the alternating path.
    do {
      const std::size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  workspace.col_of.assign(n, 0);
  for (std::size_t j = 1; j <= m; ++j) {
    if (p[j] != 0) workspace.col_of[p[j] - 1] = j - 1;
  }
}

AssignmentResult solve_assignment(const la::Matrix& cost) {
  const std::size_t n = cost.rows();
  const std::size_t m = cost.cols();
  AssignmentWorkspace workspace;
  solve_assignment(cost.data().data(), n, m, workspace);
  AssignmentResult result;
  result.col_of = std::move(workspace.col_of);
  for (std::size_t r = 0; r < n; ++r) {
    result.total_cost += cost(r, result.col_of[r]);
  }
  // Strip the 1-indexing off the dual certificate. The virtual column 0
  // accumulates the potential of each augmenting row's start, so only
  // columns 1..m are part of the certificate.
  result.row_potential.assign(workspace.u.begin() + 1, workspace.u.end());
  result.col_potential.assign(workspace.v.begin() + 1, workspace.v.end());
  PAMO_ENSURES(result.col_of.size() == n &&
                   result.row_potential.size() == n &&
                   result.col_potential.size() == m,
               "assignment result vectors must align with the cost matrix");
  return result;
}

}  // namespace pamo::sched
