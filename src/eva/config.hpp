// Video configuration knobs and the joint decision space.
//
// A stream configuration is (resolution, fps) drawn from discrete knob
// sets; the scheduler's joint decision for M streams lives in the product
// space (N · C_r · C_f)^M, and every module works in it directly.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/ticks.hpp"

namespace pamo::eva {

/// One stream's configuration decision.
struct StreamConfig {
  std::uint32_t resolution = 0;  // short-side pixels
  std::uint32_t fps = 0;

  friend bool operator==(const StreamConfig&, const StreamConfig&) = default;
  /// Lexicographic by (resolution, fps), so joint configurations order
  /// deterministically in sorted containers.
  friend auto operator<=>(const StreamConfig&, const StreamConfig&) = default;
};

/// Joint configuration of all M streams (index = stream id).
using JointConfig = std::vector<StreamConfig>;

/// The discrete knob sets for resolution and frame rate.
class ConfigSpace {
 public:
  /// Each knob set is non-empty and strictly ascending.
  ConfigSpace(std::vector<std::uint32_t> resolutions,
              std::vector<std::uint32_t> fps_knobs);

  /// Knobs used throughout the evaluation: resolutions 480..1920 and fps
  /// 5..30 matching the axes of the paper's Figure 2, with fps values whose
  /// periods have rich divisibility structure (for zero-jitter grouping).
  static ConfigSpace standard();

  [[nodiscard]] const std::vector<std::uint32_t>& resolutions() const {
    return resolutions_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& fps_knobs() const {
    return fps_knobs_;
  }
  [[nodiscard]] const TickClock& clock() const { return clock_; }

  [[nodiscard]] std::size_t num_knob_combinations() const {
    return resolutions_.size() * fps_knobs_.size();
  }

  /// Uniformly random configuration.
  [[nodiscard]] StreamConfig sample(Rng& rng) const;

 private:
  std::vector<std::uint32_t> resolutions_;  // ascending
  std::vector<std::uint32_t> fps_knobs_;    // ascending
  TickClock clock_;
};

}  // namespace pamo::eva
