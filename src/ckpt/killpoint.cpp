#include "ckpt/killpoint.hpp"

#include <cstdlib>

#include "common/error.hpp"

namespace pamo::ckpt {

namespace {

struct Armed {
  bool active = false;
  std::string point;
  std::size_t count = 1;
  std::size_t hits = 0;
  bool hard_exit = false;
};

Armed& armed() {
  static Armed state;
  return state;
}

}  // namespace

void arm_kill(const std::string& point, std::size_t count, bool hard_exit) {
  PAMO_CHECK(!point.empty(), "kill point name must be non-empty");
  PAMO_CHECK(count >= 1, "kill count must be >= 1");
  Armed& state = armed();
  state.active = true;
  state.point = point;
  state.count = count;
  state.hits = 0;
  state.hard_exit = hard_exit;
}

void disarm_kill() { armed() = Armed{}; }

bool arm_kill_from_env() {
  const char* value = std::getenv("PAMO_KILL_AT");
  if (value == nullptr || value[0] == '\0') return false;
  std::string spec(value);
  std::size_t count = 1;
  bool hard_exit = false;
  // point[:count][:exit] — the count is optional, 'exit' selects exit mode.
  std::size_t colon = spec.find(':');
  std::string point = spec.substr(0, colon);
  while (colon != std::string::npos) {
    const std::size_t start = colon + 1;
    colon = spec.find(':', start);
    const std::string token = spec.substr(
        start, colon == std::string::npos ? std::string::npos : colon - start);
    if (token == "exit") {
      hard_exit = true;
    } else if (!token.empty()) {
      count = static_cast<std::size_t>(std::strtoull(token.c_str(), nullptr,
                                                     10));
      PAMO_CHECK(count >= 1, "PAMO_KILL_AT count must be >= 1");
    }
  }
  arm_kill(point, count, hard_exit);
  return true;
}

bool kill_armed() { return armed().active; }

std::size_t kill_hits() { return armed().hits; }

void kill_point(const char* name) {
  Armed& state = armed();
  if (!state.active || state.point != name) return;
  if (++state.hits < state.count) return;
  if (state.hard_exit) {
    // The closest userspace stand-in for a power cut: no destructors, no
    // flushes, a recognizable exit code for the restart matrix.
    std::_Exit(137);
  }
  state.active = false;  // fire once, then disarm (the "process" is dead)
  throw InjectedKill(state.point);  // pamo-analyze: allow(throw-discipline)
}

}  // namespace pamo::ckpt
