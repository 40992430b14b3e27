#include "eva/config.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pamo::eva {
namespace {

TEST(ConfigSpace, StandardKnobs) {
  const ConfigSpace space = ConfigSpace::standard();
  EXPECT_EQ(space.resolutions().size(), 6u);
  EXPECT_EQ(space.fps_knobs().size(), 5u);
  EXPECT_EQ(space.num_knob_combinations(), 30u);
  EXPECT_EQ(space.clock().ticks_per_second(), 30u);
}

TEST(ConfigSpace, RejectsUnsortedOrEmptyKnobs) {
  EXPECT_THROW(ConfigSpace({}, {10}), Error);
  EXPECT_THROW(ConfigSpace({480}, {}), Error);
  EXPECT_THROW(ConfigSpace({720, 480}, {10}), Error);
  EXPECT_THROW(ConfigSpace({480}, {30, 10}), Error);
  EXPECT_THROW(ConfigSpace({480, 480}, {10}), Error);
  EXPECT_THROW(ConfigSpace({480}, {10, 10}), Error);
}

TEST(ConfigSpace, SampleReturnsValidKnobs) {
  const ConfigSpace space = ConfigSpace::standard();
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const StreamConfig c = space.sample(rng);
    EXPECT_NE(std::find(space.resolutions().begin(), space.resolutions().end(),
                        c.resolution),
              space.resolutions().end());
    EXPECT_NE(std::find(space.fps_knobs().begin(), space.fps_knobs().end(),
                        c.fps),
              space.fps_knobs().end());
  }
}

}  // namespace
}  // namespace pamo::eva
