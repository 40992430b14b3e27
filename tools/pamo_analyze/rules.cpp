// The per-file rules: token/regex passes over one file's code channel.
// Rule ids and their scopes are documented in analyze.hpp; suppression,
// sorting, and reporting are analyze_tree's, shared with the tree analyses.
#include "pamo_analyze/rules.hpp"

#include <cctype>
#include <regex>
#include <set>

#include "pamo_analyze/tokenizer.hpp"

namespace pamo::analyze {
namespace {

bool is_header_path(const std::string& path) {
  return path.ends_with(".hpp") || path.ends_with(".h");
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  lines.push_back(current);
  return lines;
}

struct Linter {
  const std::string& path;
  const Scope& scope;
  const std::vector<std::string>& code;   // comments/strings blanked
  std::vector<Finding>& findings;

  void add(std::size_t line_index, const char* rule, std::string message) {
    findings.push_back(Finding{path, line_index + 1, rule, std::move(message),
                               /*suppressed=*/false});
  }

  // -- determinism-rng ------------------------------------------------------
  void rule_determinism_rng() {
    static const std::regex kBanned(
        R"(std::\s*rand\b|(^|[^\w])s?rand\s*\(|random_device|mt19937|minstd_rand|default_random_engine|ranlux(24|48))");
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (std::regex_search(code[i], kBanned)) {
        add(i, "determinism-rng",
            "banned randomness source; derive a seeded pamo::Rng (or "
            "Rng::fork) instead");
      }
    }
  }

  // -- time-seeded-rng ------------------------------------------------------
  void rule_time_seeded_rng() {
    static const std::regex kSeedish(R"((^|[^\w])(seed|Rng\s*\(|srand))");
    static const std::regex kClockish(
        R"(::now\s*\(|(^|[^\w])time\s*\(\s*(nullptr|NULL|0)?\s*\)|(^|[^\w])clock\s*\(\s*\))");
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (std::regex_search(code[i], kSeedish) &&
          std::regex_search(code[i], kClockish)) {
        add(i, "time-seeded-rng",
            "RNG seeded from a clock breaks bit-for-bit reproducibility; "
            "thread an explicit seed instead");
      }
    }
  }

  // -- unordered-iter -------------------------------------------------------
  void rule_unordered_iter() {
    if (!scope.scheduling_path()) return;
    // Pass 1: names declared with an unordered type anywhere in this file
    // (members, locals, parameters — all hazardous to range-iterate).
    std::set<std::string> unordered_names;
    for (const auto& line : code) {
      for (std::size_t pos = line.find("unordered_"); pos != std::string::npos;
           pos = line.find("unordered_", pos + 1)) {
        if (line.compare(pos, 13, "unordered_map") != 0 &&
            line.compare(pos, 13, "unordered_set") != 0) {
          continue;
        }
        std::size_t open = line.find('<', pos);
        if (open == std::string::npos) continue;
        int depth = 0;
        std::size_t close = open;
        for (; close < line.size(); ++close) {
          if (line[close] == '<') ++depth;
          if (line[close] == '>' && --depth == 0) break;
        }
        if (close >= line.size()) continue;  // multi-line decl: not tracked
        std::size_t name_begin = close + 1;
        while (name_begin < line.size() &&
               (std::isspace(static_cast<unsigned char>(line[name_begin])) ||
                line[name_begin] == '&' || line[name_begin] == '*')) {
          ++name_begin;
        }
        std::size_t name_end = name_begin;
        while (name_end < line.size() && is_word_char(line[name_end])) ++name_end;
        if (name_end > name_begin) {
          unordered_names.insert(line.substr(name_begin, name_end - name_begin));
        }
      }
    }
    if (unordered_names.empty()) return;
    // Pass 2: range-for whose container resolves to one of those names.
    static const std::regex kRangeFor(
        R"(for\s*\([^:;()]*:\s*[&*]?([A-Za-z_][\w.\->]*))");
    for (std::size_t i = 0; i < code.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(code[i], m, kRangeFor)) continue;
      // Check every dot/arrow component of the container expression.
      std::string expr = m[1].str();
      std::string component;
      bool hit = false;
      for (std::size_t k = 0; k <= expr.size(); ++k) {
        if (k == expr.size() || !is_word_char(expr[k])) {
          if (unordered_names.count(component) != 0) hit = true;
          component.clear();
        } else {
          component.push_back(expr[k]);
        }
      }
      if (hit) {
        add(i, "unordered-iter",
            "range-iteration over an unordered container in a scheduling "
            "path: iteration order is implementation-defined and feeds "
            "decisions nondeterministically; use an ordered container or "
            "sort the keys first");
      }
    }
  }

  // -- throw-discipline -----------------------------------------------------
  void rule_throw_discipline() {
    if (!scope.in_src()) return;
    for (std::size_t i = 0; i < code.size(); ++i) {
      const std::string& line = code[i];
      for (std::size_t pos = line.find("throw"); pos != std::string::npos;
           pos = line.find("throw", pos + 5)) {
        if (pos > 0 && is_word_char(line[pos - 1])) continue;       // rethrow_…
        const std::size_t after = pos + 5;
        if (after < line.size() && is_word_char(line[after])) continue;  // throw_…
        std::size_t arg = after;
        while (arg < line.size() &&
               std::isspace(static_cast<unsigned char>(line[arg]))) {
          ++arg;
        }
        if (arg >= line.size() || line[arg] == ';') continue;  // bare rethrow
        const std::string rest = line.substr(arg);
        static const std::regex kAllowedType(
            R"(^(::)?(pamo::)?(detail::)?Error[\s({])");
        if (std::regex_search(rest, kAllowedType)) continue;
        add(i, "throw-discipline",
            "module API boundaries throw pamo::Error only; wrap or translate "
            "this exception");
      }
    }
  }

  // -- catch-all-swallow ----------------------------------------------------
  void rule_catch_all_swallow() {
    std::string joined;
    std::vector<std::size_t> line_of_offset;
    for (std::size_t i = 0; i < code.size(); ++i) {
      for (char c : code[i]) {
        joined.push_back(c);
        line_of_offset.push_back(i);
      }
      joined.push_back('\n');
      line_of_offset.push_back(i);
    }
    static const std::regex kCatchAll(R"(catch\s*\(\s*\.\.\.\s*\))");
    for (auto it = std::sregex_iterator(joined.begin(), joined.end(),
                                        kCatchAll);
         it != std::sregex_iterator(); ++it) {
      const std::size_t catch_pos = static_cast<std::size_t>(it->position());
      std::size_t open = joined.find('{', catch_pos + it->length());
      if (open == std::string::npos) continue;
      int depth = 0;
      std::size_t close = open;
      for (; close < joined.size(); ++close) {
        if (joined[close] == '{') ++depth;
        if (joined[close] == '}' && --depth == 0) break;
      }
      const std::string body = joined.substr(open, close - open);
      if (body.find("throw") != std::string::npos ||
          body.find("rethrow_exception") != std::string::npos ||
          body.find("current_exception") != std::string::npos ||
          body.find("abort") != std::string::npos ||
          body.find("terminate") != std::string::npos) {
        continue;
      }
      add(line_of_offset[catch_pos], "catch-all-swallow",
          "catch (...) that swallows: rethrow, capture "
          "std::current_exception, or catch a concrete type");
    }
  }

  // -- float-eq -------------------------------------------------------------
  void rule_float_eq() {
    if (!scope.in_src()) return;
    // A floating-point literal: has a dot, an exponent, or an f suffix.
    static const std::string kLit =
        R"((\d+\.\d*([eE][+-]?\d+)?[fFlL]?|\.\d+([eE][+-]?\d+)?[fFlL]?|\d+[eE][+-]?\d+[fFlL]?|\d+[fF]))";
    static const std::regex kLitBeforeOp("(^|[^\\w.])" + kLit +
                                         R"(\s*(==|!=))");
    static const std::regex kOpBeforeLit(R"((==|!=)\s*)" + kLit +
                                         "($|[^\\w.])");
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (std::regex_search(code[i], kLitBeforeOp) ||
          std::regex_search(code[i], kOpBeforeLit)) {
        add(i, "float-eq",
            "exact floating-point comparison; use a tolerance, or allowlist "
            "this line if the exact compare is intentional");
      }
    }
  }

  // -- unchecked-front-back -------------------------------------------------
  void rule_unchecked_front_back() {
    if (!scope.scheduling_path()) return;
    static const std::regex kFrontBack(
        R"(([A-Za-z_][\w]*(?:(?:\.|->)[A-Za-z_][\w]*)*)(?:\.|->)(front|back)\s*\(\s*\))");
    static const char* const kEvidence[] = {
        ".empty", "->empty",        ".size",       "->size",    ".push_back",
        "->push_back", ".emplace_back", "->emplace_back", ".resize",
        ".assign", ".pop_back"};
    constexpr std::size_t kWindow = 8;  // lines of context searched upward
    for (std::size_t i = 0; i < code.size(); ++i) {
      for (auto it = std::sregex_iterator(code[i].begin(), code[i].end(),
                                          kFrontBack);
           it != std::sregex_iterator(); ++it) {
        const std::string object = (*it)[1].str();
        bool guarded = false;
        const std::size_t first = i >= kWindow ? i - kWindow : 0;
        for (std::size_t j = first; j <= i && !guarded; ++j) {
          for (const char* ev : kEvidence) {
            if (code[j].find(object + ev) != std::string::npos) {
              guarded = true;
              break;
            }
          }
        }
        if (!guarded) {
          add(i, "unchecked-front-back",
              "." + (*it)[2].str() + "() on '" + object +
                  "' with no nearby emptiness evidence; guard with "
                  ".empty() or allowlist if provably non-empty");
        }
      }
    }
  }

  // -- pragma-once ----------------------------------------------------------
  void rule_pragma_once() {
    if (!is_header_path(path)) return;
    for (const auto& line : code) {
      if (line.find("#pragma once") != std::string::npos) return;
    }
    add(0, "pragma-once", "header is missing #pragma once");
  }

  // -- raw-thread -----------------------------------------------------------
  void rule_raw_thread() {
    if (!scope.in_src()) return;
    // The pool itself is the one place allowed to own std::thread objects.
    if (scope.rel.starts_with("src/common/thread_pool.")) return;
    static const std::regex kThread(R"(std::\s*j?thread\b)");
    for (std::size_t i = 0; i < code.size(); ++i) {
      for (auto it = std::sregex_iterator(code[i].begin(), code[i].end(),
                                          kThread);
           it != std::sregex_iterator(); ++it) {
        // Static members (std::thread::hardware_concurrency, ::id) read
        // thread facts without spawning; only type uses are flagged.
        std::size_t after =
            static_cast<std::size_t>(it->position()) + it->length();
        while (after < code[i].size() &&
               std::isspace(static_cast<unsigned char>(code[i][after]))) {
          ++after;
        }
        if (after + 1 < code[i].size() && code[i][after] == ':' &&
            code[i][after + 1] == ':') {
          continue;
        }
        add(i, "raw-thread",
            "direct std::thread use outside common/thread_pool: spawn work "
            "through pamo::ThreadPool / parallel_for so worker count, "
            "shutdown, and determinism stay centrally controlled");
      }
    }
  }

  // -- wall-clock -----------------------------------------------------------
  void rule_wall_clock() {
    if (!scope.in_src()) return;
    // Monotonic clocks (steady_clock, common/ticks) are fine anywhere;
    // *wall-clock* reads make library behaviour depend on the date. Only
    // the observability layer and the tick utilities may touch real time,
    // and then only to label exports — never to steer a decision.
    if (scope.layer == "obs" || scope.rel.starts_with("src/common/ticks")) {
      return;
    }
    // The bare time() form matches only the argless/null-arg call so
    // names like proc_time(x) or elapsed_time(t) stay quiet.
    static const std::regex kWallClock(
        R"(system_clock|CLOCK_REALTIME|(^|[^\w])(gettimeofday|localtime(_r)?|gmtime(_r)?)\s*\(|(^|[^\w])time\s*\(\s*(nullptr|NULL|0)?\s*\))");
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (std::regex_search(code[i], kWallClock)) {
        add(i, "wall-clock",
            "wall-clock read in library code: results must not depend on "
            "the date; use a monotonic clock (common/ticks) or move the "
            "read into the obs layer");
      }
    }
  }

  // -- unchecked-file-write -------------------------------------------------
  void rule_unchecked_file_write() {
    if (!scope.in_src()) return;
    // The atomic-write protocol is the one sanctioned library writer
    // (POSIX fds + fsync + rename); everything durable routes through it.
    if (scope.rel.starts_with("src/ckpt/atomic_io")) return;
    static const std::regex kWriter(
        R"((^|[^\w])(std::\s*)?(o?fstream)\b|(^|[^\w])fopen\s*\()");
    static const std::regex kPreprocessor(R"(^\s*#)");
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (std::regex_search(code[i], kPreprocessor)) continue;  // #include
      if (std::regex_search(code[i], kWriter)) {
        add(i, "unchecked-file-write",
            "direct file write in library code: stream state goes "
            "unchecked and a crash mid-write leaves a torn file; route "
            "durable writes through ckpt::write_file_atomic (temp + fsync "
            "+ rename) or allowlist if this write is genuinely throwaway");
      }
    }
  }

  // -- governor-action ------------------------------------------------------
  void rule_governor_action() {
    if (scope.layer != "core") return;
    // A mutation of the governor's remembered admitted set: assignment or
    // a mutating member call on the exact identifier `admitted_`. Reads
    // (begin/end/size, binary_search) and lookalike names (admitted_count,
    // admitted_load, next_admitted) do not match.
    static const std::regex kMutate(
        R"((^|[^\w])admitted_\s*(=([^=]|$)|(\.|->)\s*(push_back|emplace_back|erase|clear|insert|assign|resize|pop_back)\b))");
    // Evidence window: the record_action call logging the decision may sit
    // a full admission pass above the final set swap, so the window is
    // wider than unchecked-front-back's.
    constexpr std::size_t kWindow = 30;
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (!std::regex_search(code[i], kMutate)) continue;
      bool evidenced = false;
      const std::size_t first = i >= kWindow ? i - kWindow : 0;
      for (std::size_t j = first; j <= i && !evidenced; ++j) {
        if (code[j].find("record_action") != std::string::npos) {
          evidenced = true;
        }
      }
      if (!evidenced) {
        add(i, "governor-action",
            "admitted-set mutation with no GovernorAction evidence nearby: "
            "every admit/defer/shed/release decision must be logged through "
            "record_action before it changes who is admitted; allowlist "
            "state-rebuild paths (snapshot restore) explicitly");
      }
    }
  }

  // -- using-namespace-header -----------------------------------------------
  void rule_using_namespace_header() {
    if (!is_header_path(path)) return;
    static const std::regex kUsing(R"((^|[^\w])using\s+namespace\s)");
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (std::regex_search(code[i], kUsing)) {
        add(i, "using-namespace-header",
            "using namespace at header scope leaks into every includer");
      }
    }
  }
};

}  // namespace

void check_file(const std::string& path, const Scope& scope,
                const std::string& code, std::vector<Finding>& out) {
  const std::vector<std::string> lines = split_lines(code);
  Linter linter{path, scope, lines, out};
  linter.rule_determinism_rng();
  linter.rule_time_seeded_rng();
  linter.rule_unordered_iter();
  linter.rule_throw_discipline();
  linter.rule_catch_all_swallow();
  linter.rule_float_eq();
  linter.rule_unchecked_front_back();
  linter.rule_pragma_once();
  linter.rule_using_namespace_header();
  linter.rule_raw_thread();
  linter.rule_wall_clock();
  linter.rule_unchecked_file_write();
  linter.rule_governor_action();
}

}  // namespace pamo::analyze
