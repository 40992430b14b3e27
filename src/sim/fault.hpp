// Declarative fault injection for the cluster simulator.
//
// A FaultPlan is a seeded schedule of disturbances over the simulation
// horizon: server crashes (with optional recovery), uplink bandwidth
// collapse to a fraction, per-server inference slowdown (stragglers), and
// i.i.d. frame loss. The simulator honours the plan mechanistically —
// frames queue behind a recovering server, transfers stretch under a
// collapsed uplink, service times stretch on a straggler — so the
// resulting latency blow-ups and drops *emerge* from event dynamics
// exactly like jitter does in the fault-free model. An empty plan is
// guaranteed to leave simulation results bit-for-bit identical to runs
// without a plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace pamo::sim {

/// Sentinel for faults that never end within any horizon.
inline constexpr double kNever = std::numeric_limits<double>::infinity();

/// Server `server` is down over [at, recovery): queued frames wait for the
/// recovery; with recovery == kNever they are lost.
struct ServerCrash {
  std::size_t server = 0;
  double at = 0.0;
  double recovery = kNever;
};

/// Uplink of `server` delivers only `factor` of its nominal bandwidth over
/// [at, until). factor must be in (0, 1].
struct UplinkCollapse {
  std::size_t server = 0;
  double at = 0.0;
  double until = kNever;
  double factor = 1.0;
};

/// Inference on `server` takes `factor` times as long over [at, until).
/// factor must be >= 1.
struct InferenceSlowdown {
  std::size_t server = 0;
  double at = 0.0;
  double until = kNever;
  double factor = 1.0;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // -- Builders (chainable). All times are absolute simulation seconds. --
  FaultPlan& kill_server(std::size_t server, double at,
                         double recovery = kNever);
  FaultPlan& collapse_uplink(std::size_t server, double at, double factor,
                             double until = kNever);
  FaultPlan& slow_server(std::size_t server, double at, double factor,
                         double until = kNever);
  /// Drop each emitted frame independently with probability `probability`.
  /// Losses are drawn from a per-stream RNG forked off `seed`, so they are
  /// deterministic and independent of server/event ordering.
  FaultPlan& drop_frames(double probability, std::uint64_t seed);

  [[nodiscard]] bool empty() const {
    // Loss probability is exactly 0.0 until drop_frames() sets it; the
    // empty-plan no-op guarantee hinges on this exact compare.
    return crashes_.empty() && collapses_.empty() && slowdowns_.empty() &&
           frame_loss_prob_ == 0.0;  // pamo-analyze: allow(float-eq)
  }

  // -- Point-in-time queries used by the simulator. --
  [[nodiscard]] bool server_up(std::size_t server, double t) const;
  /// Earliest time >= t at which the server is up (kNever if it stays
  /// down forever).
  [[nodiscard]] double next_up(std::size_t server, double t) const;
  /// Earliest crash onset strictly inside (t0, t1), or kNever.
  [[nodiscard]] double next_crash_in(std::size_t server, double t0,
                                     double t1) const;
  /// Most degraded (smallest) active uplink factor at time t; 1 if none.
  [[nodiscard]] double uplink_factor(std::size_t server, double t) const;
  /// Largest active inference slowdown at time t; 1 if none.
  [[nodiscard]] double slowdown(std::size_t server, double t) const;
  /// Fraction of [0, horizon] the server is up (1 when never crashed).
  [[nodiscard]] double availability(std::size_t server,
                                    double horizon) const;

  [[nodiscard]] double frame_loss_prob() const { return frame_loss_prob_; }
  [[nodiscard]] std::uint64_t frame_loss_seed() const {
    return frame_loss_seed_;
  }
  [[nodiscard]] const std::vector<ServerCrash>& crashes() const {
    return crashes_;
  }
  [[nodiscard]] const std::vector<UplinkCollapse>& collapses() const {
    return collapses_;
  }
  [[nodiscard]] const std::vector<InferenceSlowdown>& slowdowns() const {
    return slowdowns_;
  }

 private:
  std::vector<ServerCrash> crashes_;
  std::vector<UplinkCollapse> collapses_;
  std::vector<InferenceSlowdown> slowdowns_;
  double frame_loss_prob_ = 0.0;
  std::uint64_t frame_loss_seed_ = 0;
};

}  // namespace pamo::sim
