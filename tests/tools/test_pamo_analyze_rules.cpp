// Fixture-driven tests of pamo_analyze's per-file rules: every rule has a
// positive (fires) and a negative (stays quiet) fixture, plus suppression
// coverage. Fixtures are one-file in-memory trees handed to analyze_tree
// with paths that exercise the path-scoping logic.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pamo_analyze/analyze.hpp"
#include "pamo_analyze/tokenizer.hpp"

namespace pamo::analyze {
namespace {

std::vector<Finding> analyze_one(const std::string& path,
                                 const std::string& source,
                                 const Options& options = {}) {
  return analyze_tree({{path, source}}, options);
}

std::vector<std::string> rules_hit(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const auto& f : findings) rules.push_back(f.rule);
  return rules;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

// ---- determinism-rng ------------------------------------------------------

TEST(PamoLint, FlagsStdRandAndRandomDevice) {
  const std::string source =
      "#include <cstdlib>\n"
      "int f() { return std::rand(); }\n"
      "int g() { std::random_device rd; return int(rd()); }\n"
      "int h() { std::mt19937 gen(7); return int(gen()); }\n";
  const auto rules = rules_hit(analyze_one("src/eva/fixture.cpp", source));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "determinism-rng"), 3);
}

TEST(PamoLint, PamoRngIsNotFlagged) {
  const std::string source =
      "#include \"common/rng.hpp\"\n"
      "double f(pamo::Rng& rng) { return rng.uniform(); }\n"
      "pamo::Rng forked(const pamo::Rng& rng) { return rng.fork(3); }\n";
  EXPECT_FALSE(has_rule(analyze_one("src/eva/fixture.cpp", source),
                        "determinism-rng"));
}

TEST(PamoLint, CommentsAndStringsDoNotTriggerRules) {
  const std::string source =
      "// std::rand() is banned here\n"
      "/* so is std::random_device */\n"
      "const char* kDoc = \"call std::rand()\";\n";
  EXPECT_TRUE(analyze_one("src/eva/fixture.cpp", source).empty());
}

// ---- time-seeded-rng ------------------------------------------------------

TEST(PamoLint, FlagsClockSeededRng) {
  const std::string source =
      "#include <chrono>\n"
      "pamo::Rng make() {\n"
      "  auto seed = std::chrono::steady_clock::now().time_since_epoch()"
      ".count();\n"
      "  return pamo::Rng(uint64_t(seed));\n"
      "}\n";
  EXPECT_TRUE(has_rule(analyze_one("src/eva/fixture.cpp", source),
                       "time-seeded-rng"));
}

TEST(PamoLint, PlainClockUseIsNotASeed) {
  // bo::EpochWatchdog legitimately reads steady_clock for its wall-clock
  // deadline — no RNG involved, so the rule must stay quiet.
  const std::string source =
      "void arm() { start_ = std::chrono::steady_clock::now(); }\n";
  EXPECT_TRUE(analyze_one("src/bo/fixture.cpp", source).empty());
}

// ---- unordered-iter -------------------------------------------------------

TEST(PamoLint, FlagsRangeForOverUnorderedInSchedulingPath) {
  const std::string source =
      "#include <unordered_map>\n"
      "std::unordered_map<int, double> weights_;\n"
      "double total() {\n"
      "  double sum = 0.0;\n"
      "  for (const auto& [k, v] : weights_) sum += v;\n"
      "  return sum;\n"
      "}\n";
  const auto findings = analyze_one("src/sched/fixture.cpp", source);
  EXPECT_TRUE(has_rule(findings, "unordered-iter"));
}

TEST(PamoLint, UnorderedIterationOutsideSchedulingPathIsAllowed) {
  const std::string source =
      "#include <unordered_map>\n"
      "std::unordered_map<int, double> weights_;\n"
      "double total() {\n"
      "  double sum = 0.0;\n"
      "  for (const auto& [k, v] : weights_) sum += v;\n"
      "  return sum;\n"
      "}\n";
  EXPECT_FALSE(has_rule(analyze_one("src/eva/fixture.cpp", source),
                        "unordered-iter"));
}

TEST(PamoLint, OrderedIterationIsAllowedInSchedulingPath) {
  const std::string source =
      "#include <map>\n"
      "std::map<int, double> weights_;\n"
      "std::unordered_map<int, double> index_;\n"
      "double total() {\n"
      "  double sum = index_.count(0) ? 1.0 : 0.0;\n"
      "  for (const auto& [k, v] : weights_) sum += v;\n"
      "  return sum;\n"
      "}\n";
  EXPECT_FALSE(has_rule(analyze_one("src/sched/fixture.cpp", source),
                        "unordered-iter"));
}

// ---- throw-discipline -----------------------------------------------------

TEST(PamoLint, FlagsForeignExceptionTypesInSrc) {
  const std::string source =
      "#include <stdexcept>\n"
      "void f() { throw std::runtime_error(\"boom\"); }\n";
  EXPECT_TRUE(has_rule(analyze_one("src/gp/fixture.cpp", source),
                       "throw-discipline"));
}

TEST(PamoLint, PamoErrorAndBareRethrowAreAllowed) {
  const std::string source =
      "void f() { throw pamo::Error(\"boom\"); }\n"
      "void g() { throw Error(\"boom\"); }\n"
      "void h() { try { f(); } catch (const Error&) { throw; } }\n"
      "void k(std::exception_ptr p) { std::rethrow_exception(p); }\n";
  EXPECT_TRUE(analyze_one("src/gp/fixture.cpp", source).empty());
}

TEST(PamoLint, ThrowDisciplineDoesNotApplyToTests) {
  const std::string source =
      "void f() { throw std::runtime_error(\"test-only\"); }\n";
  EXPECT_TRUE(analyze_one("tests/gp/fixture.cpp", source).empty());
}

// ---- catch-all-swallow ----------------------------------------------------

TEST(PamoLint, FlagsSwallowingCatchAll) {
  const std::string source =
      "int f() {\n"
      "  try { return g(); } catch (...) {\n"
      "    return -1;\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(has_rule(analyze_one("src/core/fixture.cpp", source),
                       "catch-all-swallow"));
}

TEST(PamoLint, CatchAllThatCapturesOrRethrowsIsAllowed) {
  const std::string source =
      "void f() {\n"
      "  try { g(); } catch (...) { error = std::current_exception(); }\n"
      "  try { g(); } catch (...) { cleanup(); throw; }\n"
      "}\n";
  EXPECT_TRUE(analyze_one("src/core/fixture.cpp", source).empty());
}

// ---- float-eq -------------------------------------------------------------

TEST(PamoLint, FlagsFloatLiteralComparisons) {
  const std::string source =
      "bool f(double x) { return x == 0.0; }\n"
      "bool g(double x) { return 1.5f != x; }\n"
      "bool h(double x) { return x == 1e-6; }\n";
  const auto rules = rules_hit(analyze_one("src/la/fixture.cpp", source));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "float-eq"), 3);
}

TEST(PamoLint, IntegerComparisonsAndInequalitiesAreAllowed) {
  const std::string source =
      "bool f(int x) { return x == 2; }\n"
      "bool g(double x) { return x <= 0.5; }\n"
      "bool h(double x) { return x >= 1.0 && x < 2.0; }\n"
      "bool k(std::size_t n) { return n != 10; }\n";
  EXPECT_TRUE(analyze_one("src/la/fixture.cpp", source).empty());
}

// ---- unchecked-front-back -------------------------------------------------

TEST(PamoLint, FlagsUncheckedFrontInSchedulingPath) {
  const std::string source =
      "double f(const std::vector<double>& v) {\n"
      "  return v.front();\n"
      "}\n";
  EXPECT_TRUE(has_rule(analyze_one("src/sim/fixture.cpp", source),
                       "unchecked-front-back"));
}

TEST(PamoLint, GuardedFrontBackIsAllowed) {
  const std::string source =
      "double f(const std::vector<double>& v) {\n"
      "  if (v.empty()) return 0.0;\n"
      "  return v.front() + v.back();\n"
      "}\n"
      "double g(std::vector<double>& v) {\n"
      "  v.push_back(1.0);\n"
      "  return v.back();\n"
      "}\n";
  EXPECT_FALSE(has_rule(analyze_one("src/sim/fixture.cpp", source),
                        "unchecked-front-back"));
}

// ---- header hygiene -------------------------------------------------------

TEST(PamoLint, FlagsHeaderWithoutPragmaOnce) {
  const auto findings = analyze_one("src/eva/fixture.hpp", "int x = 0;\n");
  ASSERT_TRUE(has_rule(findings, "pragma-once"));
  EXPECT_EQ(findings.front().line, 1u);
}

TEST(PamoLint, FlagsUsingNamespaceInHeader) {
  const std::string source =
      "#pragma once\n"
      "using namespace std;\n";
  EXPECT_TRUE(has_rule(analyze_one("src/eva/fixture.hpp", source),
                       "using-namespace-header"));
}

TEST(PamoLint, HeaderRulesDoNotApplyToCpp) {
  const std::string source = "using namespace std;\n";
  EXPECT_TRUE(analyze_one("src/eva/fixture.cpp", source).empty());
}

// ---- raw-thread -----------------------------------------------------------

TEST(PamoLint, FlagsDirectThreadConstructionInSrc) {
  const std::string source =
      "#include <thread>\n"
      "void spawn() { std::thread t([] {}); t.join(); }\n"
      "void spawn2() { std::jthread t([] {}); }\n";
  const auto rules = rules_hit(analyze_one("src/eva/fixture.cpp", source));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "raw-thread"), 2);
}

TEST(PamoLint, ThreadPoolImplementationMayOwnThreads) {
  const std::string source =
      "#include <thread>\n"
      "std::vector<std::thread> workers_;\n";
  EXPECT_FALSE(has_rule(analyze_one("src/common/thread_pool.cpp", source),
                        "raw-thread"));
  EXPECT_FALSE(has_rule(analyze_one("src/common/thread_pool.hpp", source),
                        "raw-thread"));
}

TEST(PamoLint, StaticThreadQueriesAreNotFlagged) {
  const std::string source =
      "#include <thread>\n"
      "unsigned n() { return std::thread::hardware_concurrency(); }\n"
      "auto id() { return std::this_thread::get_id(); }\n";
  EXPECT_FALSE(has_rule(analyze_one("src/eva/fixture.cpp", source),
                        "raw-thread"));
}

TEST(PamoLint, RawThreadOutsideSrcIsAllowed) {
  const std::string source =
      "#include <thread>\n"
      "void spawn() { std::thread t([] {}); t.join(); }\n";
  EXPECT_FALSE(has_rule(analyze_one("tests/common/fixture.cpp", source),
                        "raw-thread"));
}

// ---- wall-clock -----------------------------------------------------------

TEST(PamoLint, FlagsWallClockReadsInSrc) {
  const std::string source =
      "#include <chrono>\n"
      "auto a() { return std::chrono::system_clock::now(); }\n"
      "long b() { return time(nullptr); }\n"
      "void c(timeval* tv) { gettimeofday(tv, nullptr); }\n"
      "tm* d(const time_t* t) { return localtime(t); }\n"
      "void e(timespec* ts) { clock_gettime(CLOCK_REALTIME, ts); }\n";
  const auto rules = rules_hit(analyze_one("src/eva/fixture.cpp", source));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "wall-clock"), 5);
}

TEST(PamoLint, MonotonicClocksAndTimeLikeNamesAreAllowed) {
  const std::string source =
      "#include <chrono>\n"
      "auto a() { return std::chrono::steady_clock::now(); }\n"
      "double b(double x) { return proc_time(x) + elapsed_time(x); }\n"
      "double c(const Frame& f) { return f.start_time; }\n";
  EXPECT_FALSE(has_rule(analyze_one("src/sim/fixture.cpp", source),
                        "wall-clock"));
}

TEST(PamoLint, ObsAndTicksMayReadWallClock) {
  const std::string source =
      "#include <chrono>\n"
      "auto stamp() { return std::chrono::system_clock::now(); }\n";
  EXPECT_FALSE(has_rule(analyze_one("src/obs/obs.cpp", source),
                        "wall-clock"));
  EXPECT_FALSE(has_rule(analyze_one("src/common/ticks.cpp", source),
                        "wall-clock"));
  EXPECT_FALSE(has_rule(analyze_one("tests/common/fixture.cpp", source),
                        "wall-clock"));
}

// ---- unchecked-file-write -------------------------------------------------

TEST(PamoLint, FlagsStreamWritersInLibraryCode) {
  const std::string source =
      "#include <fstream>\n"
      "void a(const std::string& p) { std::ofstream out(p); out << 1; }\n"
      "void b(const std::string& p) { std::fstream f(p); }\n"
      "void c(const char* p) { FILE* f = fopen(p, \"w\"); (void)f; }\n";
  const auto rules = rules_hit(analyze_one("src/core/fixture.cpp", source));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "unchecked-file-write"), 3);
}

TEST(PamoLint, ReadsAndNonLibraryWritersAreAllowed) {
  const std::string source =
      "#include <fstream>\n"
      "std::string a(const std::string& p) { std::ifstream in(p); return {}; }\n";
  EXPECT_FALSE(has_rule(analyze_one("src/core/fixture.cpp", source),
                        "unchecked-file-write"));
  const std::string writer =
      "#include <fstream>\n"
      "void w(const std::string& p) { std::ofstream out(p); }\n";
  EXPECT_FALSE(has_rule(analyze_one("tools/fixture.cpp", writer),
                        "unchecked-file-write"));
  EXPECT_FALSE(has_rule(analyze_one("bench/fixture.cpp", writer),
                        "unchecked-file-write"));
}

TEST(PamoLint, AtomicIoIsTheSanctionedWriter) {
  const std::string source =
      "#include <fstream>\n"
      "void w(const std::string& p) { std::ofstream out(p); }\n";
  EXPECT_FALSE(has_rule(analyze_one("src/ckpt/atomic_io.cpp", source),
                        "unchecked-file-write"));
}

TEST(PamoLint, UncheckedFileWriteIsSuppressible) {
  const std::string source =
      "#include <fstream>\n"
      "// pamo-analyze: allow(unchecked-file-write)\n"
      "void w(const std::string& p) { std::ofstream out(p); }\n";
  EXPECT_TRUE(analyze_one("src/core/fixture.cpp", source).empty());
}

// ---- governor-action ------------------------------------------------------

TEST(PamoLint, FlagsUnloggedAdmittedSetMutationInCore) {
  const std::string source =
      "void Governor::force_admit(std::uint64_t id) {\n"
      "  admitted_.push_back(id);\n"
      "}\n"
      "void Governor::swap_in(std::vector<std::uint64_t> next) {\n"
      "  admitted_ = std::move(next);\n"
      "}\n";
  const auto rules = rules_hit(analyze_one("src/core/fixture.cpp", source));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "governor-action"), 2);
}

TEST(PamoLint, LoggedAdmittedSetMutationIsAllowed) {
  const std::string source =
      "void Governor::admit(GovernorPlan& plan, std::uint64_t id) {\n"
      "  record_action(plan, epoch_, id, GovernorDecision::kAdmit, \"ok\");\n"
      "  admitted_.push_back(id);\n"
      "}\n";
  EXPECT_FALSE(has_rule(analyze_one("src/core/fixture.cpp", source),
                        "governor-action"));
}

TEST(PamoLint, AdmittedReadsAndLookalikeNamesAreNotMutations) {
  const std::string source =
      "bool Governor::incumbent(std::uint64_t id) const {\n"
      "  return std::binary_search(admitted_.begin(), admitted_.end(), id);\n"
      "}\n"
      "void Governor::finish(GovernorPlan& plan) {\n"
      "  plan.admitted_count = admitted_.size();\n"
      "  plan.admitted_load = load_sum_;\n"
      "  next_admitted.push_back(7);\n"
      "}\n";
  EXPECT_TRUE(analyze_one("src/core/fixture.cpp", source).empty());
}

TEST(PamoLint, GovernorActionDoesNotApplyOutsideCore) {
  const std::string source =
      "void Fixture::reset() { admitted_.clear(); }\n";
  EXPECT_FALSE(has_rule(analyze_one("src/eva/fixture.cpp", source),
                        "governor-action"));
  EXPECT_FALSE(has_rule(analyze_one("tests/core/fixture.cpp", source),
                        "governor-action"));
}

TEST(PamoLint, GovernorActionIsSuppressibleForStateRebuild) {
  const std::string source =
      "void Governor::restore() {\n"
      "  admitted_.clear();  // pamo-analyze: allow(governor-action)\n"
      "}\n";
  EXPECT_TRUE(analyze_one("src/core/fixture.cpp", source).empty());
}

// ---- suppressions ---------------------------------------------------------

TEST(PamoLint, SameLineSuppressionSilencesFinding) {
  const std::string source =
      "bool f(double x) { return x == 0.0; }"
      "  // pamo-analyze: allow(float-eq)\n";
  EXPECT_TRUE(analyze_one("src/la/fixture.cpp", source).empty());
}

TEST(PamoLint, PreviousLineSuppressionSilencesFinding) {
  const std::string source =
      "// pamo-analyze: allow(float-eq)\n"
      "bool f(double x) { return x == 0.0; }\n";
  EXPECT_TRUE(analyze_one("src/la/fixture.cpp", source).empty());
}

TEST(PamoLint, SuppressionIsRuleSpecific) {
  const std::string source =
      "// pamo-analyze: allow(determinism-rng)\n"
      "bool f(double x) { return x == 0.0; }\n";
  EXPECT_TRUE(has_rule(analyze_one("src/la/fixture.cpp", source), "float-eq"));
}

TEST(PamoLint, IncludeSuppressedKeepsAndMarksFinding) {
  Options options;
  options.include_suppressed = true;
  const std::string source =
      "bool f(double x) { return x == 0.0; }"
      "  // pamo-analyze: allow(float-eq)\n";
  const auto findings = analyze_one("src/la/fixture.cpp", source, options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings.front().suppressed);
}

TEST(PamoLint, MultiRuleSuppressionList) {
  const std::string source =
      "bool f(double x) { return x == 0.0; }"
      "  // pamo-analyze: allow(float-eq, determinism-rng)\n";
  EXPECT_TRUE(analyze_one("src/la/fixture.cpp", source).empty());
}

TEST(PamoLint, SuppressionInsideStringLiteralIsInert) {
  // The allow directive lives in a string literal, not a comment; it must
  // not silence the float-eq on the next line.
  const std::string source =
      "const char* doc = \"pamo-analyze: allow(float-eq)\";\n"
      "bool f(double x) { return x == 0.0; }\n";
  EXPECT_TRUE(has_rule(analyze_one("src/la/fixture.cpp", source), "float-eq"));
}

// ---- stripping ------------------------------------------------------------

TEST(PamoLint, StripPreservesGeometryAndBlanksLiterals) {
  const std::string source =
      "int a = 1; // std::rand\n"
      "const char* s = \"x == 0.0\";\n";
  const std::string stripped = strip_source(source).code;
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(source.begin(), source.end(), '\n'));
  EXPECT_EQ(stripped.find("std::rand"), std::string::npos);
  EXPECT_EQ(stripped.find("=="), std::string::npos);
  EXPECT_NE(stripped.find("int a = 1;"), std::string::npos);
}

TEST(PamoLint, StripHandlesRawStrings) {
  const std::string source =
      "const char* s = R\"(std::random_device inside)\";\n"
      "int after = 2;\n";
  const std::string stripped = strip_source(source).code;
  EXPECT_EQ(stripped.find("random_device"), std::string::npos);
  EXPECT_NE(stripped.find("int after = 2;"), std::string::npos);
}

TEST(PamoLint, SchedulingPathPredicate) {
  EXPECT_TRUE(Scope("src/sched/scheduler.cpp").scheduling_path());
  EXPECT_TRUE(Scope(scope_path("/home/u/src/pamo/src",
                               "/home/u/src/pamo/src/bo/candidates.cpp"))
                  .scheduling_path());
  EXPECT_TRUE(Scope("src/sim/fault.hpp").scheduling_path());
  EXPECT_TRUE(Scope("src/core/service.cpp").scheduling_path());
  EXPECT_FALSE(Scope("src/eva/profiler.cpp").scheduling_path());
  EXPECT_FALSE(Scope("tests/sched/test_scheduler.cpp").scheduling_path());
}

// ---- rule list and reports -----------------------------------------------

TEST(PamoLint, RuleListIsStableAndComplete) {
  const auto& ids = rule_ids();
  ASSERT_EQ(ids.size(), 17u);
  EXPECT_NE(std::find(ids.begin(), ids.end(), "determinism-rng"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "float-eq"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "pragma-once"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "raw-thread"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "wall-clock"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "unchecked-file-write"),
            ids.end());
  // The per-file rules come first and end with the last one appended to
  // that family; the tree analyses follow.
  EXPECT_EQ(ids.front(), "determinism-rng");
  EXPECT_EQ(ids[12], "governor-action");
}

TEST(PamoLint, TextReportCarriesLocationAndRule) {
  const auto findings = analyze_one("src/la/fixture.cpp",
                                    "bool f(double x) { return x == 0.0; }\n");
  const std::string text = to_text(findings);
  EXPECT_NE(text.find("src/la/fixture.cpp:1"), std::string::npos);
  EXPECT_NE(text.find("[float-eq]"), std::string::npos);
}

TEST(PamoLint, JsonReportIsMachineReadable) {
  const auto findings = analyze_one("src/la/fixture.cpp",
                                    "bool f(double x) { return x == 0.0; }\n");
  const std::string json = to_json(findings);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"float-eq\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":1"), std::string::npos);
  EXPECT_EQ(to_json({}).find("{\"findings\":[],\"count\":0}"), 0u);
}

}  // namespace
}  // namespace pamo::analyze
