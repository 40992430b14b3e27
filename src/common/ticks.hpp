// Exact period arithmetic for periodic stream scheduling.
//
// The zero-jitter constraint (Const2, Eq. 7 of the paper) needs
// gcd(T_1, ..., T_K) over frame periods T_i = 1/fps_i. Floating-point gcd
// is ill-defined, so periods are represented as integer counts of a *tick*:
// 1 tick = 1 / lcm(all admissible fps values) seconds. Every knob's period
// is then an exact integer and gcd/divisibility checks are exact.
#pragma once

#include <cstdint>
#include <vector>

namespace pamo {

/// Greatest common divisor of a non-empty list (all values > 0).
std::uint64_t gcd_of(const std::vector<std::uint64_t>& values);

/// Least common multiple of a non-empty list (all values > 0).
/// Throws on overflow.
std::uint64_t lcm_of(const std::vector<std::uint64_t>& values);

/// Monotonic timestamp in integer nanoseconds since an arbitrary process
/// epoch. This is the *only* sanctioned time source outside src/obs: it is
/// monotonic (never wall-clock, never adjusted), so reading it cannot leak
/// nondeterminism into decisions, and pamo_analyze's wall-clock rule bans the
/// raw std::chrono clocks everywhere else. Timing consumers (obs::Span,
/// bo::EpochWatchdog, benches) difference two reads.
std::uint64_t monotonic_ns();

/// Converts between fps knobs and integer tick periods.
class TickClock {
 public:
  /// @param fps_knobs admissible frame rates (positive integers).
  explicit TickClock(const std::vector<std::uint32_t>& fps_knobs);

  /// Ticks per second: lcm of all fps knobs.
  [[nodiscard]] std::uint64_t ticks_per_second() const { return tps_; }

  /// Period, in ticks, of a stream at the given fps (must be a knob or a
  /// divisor-compatible rate: tps % fps == 0).
  [[nodiscard]] std::uint64_t period_ticks(std::uint32_t fps) const;

  /// Duration of `ticks` ticks in seconds.
  [[nodiscard]] double to_seconds(std::uint64_t ticks) const;

  /// Smallest number of whole ticks >= `seconds` (for processing times).
  [[nodiscard]] std::uint64_t ceil_ticks(double seconds) const;

 private:
  std::uint64_t tps_;
};

}  // namespace pamo
