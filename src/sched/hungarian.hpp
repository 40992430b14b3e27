// Hungarian algorithm (shortest-augmenting-path / Jonker–Volgenant form,
// O(n²m)) for the minimum-cost assignment of stream groups to servers —
// line 20 of Algorithm 1, minimizing total communication latency. Also the
// assignment-relaxation lower bound of the branch-and-bound placement
// engine (sched/bnb.hpp), which is why the rectangular and degenerate
// shapes (0 rows, 1×n, ties) are part of the contract rather than
// accidents of the implementation.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace pamo::sched {

struct AssignmentResult {
  /// col_of[r] = column assigned to row r. Empty for a 0-row problem.
  std::vector<std::size_t> col_of;
  double total_cost = 0.0;
  /// LP dual certificate (see solve_assignment): row potential u and
  /// column potential v with u[i] + v[j] <= cost(i, j) for every cell,
  /// equality on every matched cell, and v[j] == 0 on unmatched columns.
  /// Any feasible assignment A then costs at least Σ u + Σ_{j∈A} v[j]
  /// >= total_cost, so the potentials *prove* optimality — the property
  /// tests check exactly this reduced-cost certificate.
  std::vector<double> row_potential;  // size rows
  std::vector<double> col_potential;  // size cols
};

/// Minimum-cost assignment for a rows×cols cost matrix with rows <= cols
/// and finite, non-negative costs. Every row is assigned a distinct
/// column. Degenerate shapes are well-defined: 0 rows returns an empty
/// assignment of cost 0 (with zero potentials), and a 1×n matrix returns
/// the cheapest column (lowest index on ties). Ties anywhere resolve
/// deterministically — the scan order of the augmenting search prefers
/// lower column indices, so identical inputs always produce identical
/// assignments.
AssignmentResult solve_assignment(const la::Matrix& cost);

/// The buffers of solve_assignment's search, for a caller that solves
/// many small problems on one thread: once they have grown to a shape,
/// solving again allocates nothing.
struct AssignmentWorkspace {
  /// The matching: col_of[r] = column assigned to row r.
  std::vector<std::size_t> col_of;
  // Search state: 1-indexed potentials, matched rows, the augmenting
  // path and the Dijkstra frontier.
  std::vector<double> u, v, minv;
  std::vector<std::size_t> p, way;
  std::vector<char> used;
};

/// solve_assignment over a rows×cols row-major cost array: leaves in
/// workspace.col_of (and the potentials in workspace.u[1..rows],
/// workspace.v[1..cols]) exactly what solve_assignment returns for the
/// same costs. Same preconditions.
void solve_assignment(const double* cost, std::size_t rows, std::size_t cols,
                      AssignmentWorkspace& workspace);

}  // namespace pamo::sched
