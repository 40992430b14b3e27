#include "eva/config.hpp"

#include <algorithm>
#include <functional>

#include "common/error.hpp"

namespace pamo::eva {

ConfigSpace::ConfigSpace(std::vector<std::uint32_t> resolutions,
                         std::vector<std::uint32_t> fps_knobs)
    : resolutions_(std::move(resolutions)),
      fps_knobs_(std::move(fps_knobs)),
      clock_(fps_knobs_) {
  PAMO_CHECK(!resolutions_.empty(), "need at least one resolution knob");
  PAMO_CHECK(!fps_knobs_.empty(), "need at least one fps knob");
  // Strictly: a knob's index and its value then name the same knob.
  PAMO_CHECK(std::is_sorted(resolutions_.begin(), resolutions_.end(),
                            std::less_equal<>()),
             "resolution knobs must be strictly ascending");
  PAMO_CHECK(std::is_sorted(fps_knobs_.begin(), fps_knobs_.end(),
                            std::less_equal<>()),
             "fps knobs must be strictly ascending");
}

ConfigSpace ConfigSpace::standard() {
  // fps periods in ticks of 1/30 s: {6, 5, 3, 2, 1} — heterogeneous
  // divisibility so the zero-jitter grouping of Algorithm 1 is non-trivial.
  return ConfigSpace({480, 720, 960, 1200, 1440, 1920}, {5, 6, 10, 15, 30});
}

StreamConfig ConfigSpace::sample(Rng& rng) const {
  return {resolutions_[rng.uniform_index(resolutions_.size())],
          fps_knobs_[rng.uniform_index(fps_knobs_.size())]};
}

}  // namespace pamo::eva
