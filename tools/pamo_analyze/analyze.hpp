// pamo_analyze — repo-native static analysis for PaMO's determinism,
// error-discipline, and cross-file invariants.
//
// The headline guarantees of this codebase (zero-jitter schedules, seeded
// bit-for-bit reproducibility, "empty FaultPlan / dormant corruption model
// is a no-op", lossless checkpoint restore) are invariants that one
// unseeded RNG, one iteration over an unordered container, one member
// forgotten in a codec, or one racy parallel_for capture silently breaks.
// analyze_tree runs two rule families over one tree:
//
// Per-file rules (rules.cpp), token/regex passes over each file's code
// channel (comments and literal bodies blanked):
//   determinism-rng        std::rand/srand/std::random_device/std engines —
//                          all randomness must flow through pamo::Rng.
//   time-seeded-rng        RNG seeded from a clock (now()/time()/clock()).
//   unordered-iter         range-iteration over an unordered_{map,set} in a
//                          scheduling path (src/{sim,sched,bo,core}) — its
//                          order feeds decisions nondeterministically.
//   throw-discipline       `throw` of any type other than pamo::Error in
//                          src/ (bare rethrow `throw;` is allowed) — module
//                          API boundaries expose exactly one exception type.
//   catch-all-swallow      `catch (...)` whose handler neither rethrows nor
//                          captures std::current_exception.
//   float-eq               `==`/`!=` against a floating-point literal in
//                          src/ — exact float compares are allowlisted per
//                          line, never implicit.
//   unchecked-front-back   .front()/.back() in a scheduling path with no
//                          nearby emptiness evidence (.empty/.size/push_back
//                          on the same object within the preceding lines).
//   pragma-once            header without #pragma once.
//   using-namespace-header using namespace at header scope.
//   raw-thread             std::thread / std::jthread in src/ outside
//                          common/thread_pool.* — work must go through
//                          pamo::ThreadPool (static queries like
//                          hardware_concurrency are fine).
//   wall-clock             wall-clock reads (system_clock, gettimeofday,
//                          time(nullptr), CLOCK_REALTIME, localtime/gmtime)
//                          in src/ outside src/obs/ and common/ticks —
//                          library results must not depend on the date.
//   unchecked-file-write   std::(o)fstream / fopen in src/ outside
//                          ckpt/atomic_io — durable writes must go through
//                          ckpt::write_file_atomic (temp + fsync + rename).
//   governor-action        mutation of the admission governor's admitted set
//                          (`admitted_`) in src/core with no record_action
//                          call in the preceding lines.
//
// Tree analyses (analyze.cpp), over an index of every file's includes,
// class/struct members, and function definitions built on the shared
// tokenizer:
//   snapshot-coverage   Types participating in checkpointing register their
//                       encode/decode pair with a `snapshot(TypeName)`
//                       annotation comment (prefixed with the analyzer tag).
//                       The analysis diffs the type's declared data members
//                       against the identifiers its encoders write and its
//                       decoders read, and checks that every key written via
//                       set("k") is read back via at("k")/find("k") and vice
//                       versa. Deliberately unserialized members (caches,
//                       construction-time options) carry a per-member allow.
//   layer-dag           The #include graph over src/ must respect the layer
//                       order (see kLayerRanks in analyze.cpp and DESIGN.md):
//                       common < {obs, la, opt} < ckpt < {gp, eva} <
//                       {pref, bo, sched} < {sim, baselines} < core < tools.
//                       Upward edges, same-rank lateral edges, and file-level
//                       include cycles are findings.
//   contract-coverage   Every public non-trivial function defined in
//                       src/{la,gp,sched,bo,sim,core} must contain a
//                       PAMO_EXPECTS/PAMO_ENSURES (or an always-on
//                       PAMO_CHECK/PAMO_ASSERT, which is stricter) or carry a
//                       per-function allow.
//   capture-hygiene     Inside lambdas passed to parallel_for/submit, a
//                       by-reference or this capture that is written without
//                       per-index partitioning evidence is a finding: indexed
//                       writes like out[i] / results(s, c) whose every index
//                       identifier is a lambda parameter or body-local are
//                       fine; push_back/insert on a shared container, `+=` on
//                       a shared local, and writes through non-local indices
//                       are races against the determinism digest.
//
// Path scoping: every path-scoped rule of both families reads the file's
// Scope, i.e. its path relative to the parent of the root it was collected
// under, never the path as given — where the checkout sits cannot change
// a finding.
//
// Suppression: one tag for every rule. `// pamo-analyze: allow(rule-a,
// rule-b)` on the finding line or the line directly above silences it
// (only in real comments — literals are inert, courtesy of the tokenizer).
// Suppressed findings are dropped unless Options.include_suppressed asks
// for them (they are then marked).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "pamo_analyze/tokenizer.hpp"

namespace pamo::analyze {

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
  bool suppressed = false;
};

struct Options {
  /// Keep findings silenced by allow() comments, marked suppressed=true.
  bool include_suppressed = false;
};

/// One translation unit handed to the analysis.
struct SourceFile {
  std::string path;  // as reported in findings
  std::string content;
  /// `path` relative to the parent of the root it was collected under (see
  /// scope_path); empty when `path` already is ("src/core/x.cpp").
  std::string scope = {};
};

/// `file` relative to the parent of `root`, the directory (or file) it was
/// collected under: scope_path("/u/src/pamo/src", "/u/src/pamo/src/core/a.cpp")
/// is "src/core/a.cpp", the same as scope_path("src", "src/core/a.cpp").
std::string scope_path(const std::string& root, const std::string& file);

/// Where a file sits in the checkout, read from its root-relative path:
/// the one classifier every path-scoped rule consults.
struct Scope {
  explicit Scope(std::string rel = {});
  std::string rel;    // "src/core/service.cpp"
  std::string top;    // first component: "src", "tests", "tools", ...
  std::string layer;  // the directory under src/ ("core"); "" otherwise

  bool in_src() const { return top == "src"; }
  /// src/{sim,sched,bo,core}: where the determinism and hot-path rules apply.
  bool scheduling_path() const;
};

/// All rule ids, in report order (stable; used by --list-rules and tests):
/// the per-file rules, then the tree analyses.
const std::vector<std::string>& rule_ids();

/// Run both rule families over the tree. Findings come back sorted by file
/// then line.
std::vector<Finding> analyze_tree(const std::vector<SourceFile>& files,
                                  const Options& options = {});

// ---- Index types, exposed for tests --------------------------------------

struct MemberDecl {
  std::string name;
  std::size_t line = 0;
};

struct TypeDecl {
  std::string name;  // unqualified
  std::string file;
  std::size_t line = 0;
  std::vector<MemberDecl> members;
  /// Method names declared public (used to decide publicness of out-of-class
  /// definitions).
  std::vector<std::string> public_methods;
};

struct FunctionDef {
  std::string name;        // unqualified
  std::string qualifier;   // "Type" for Type::name / in-class defs, else ""
  std::string file;
  std::size_t line = 0;       // line of the name token
  std::size_t body_begin = 0; // token index of '{' in the file token stream
  std::size_t body_end = 0;   // token index one past the matching '}'
  std::size_t first_body_line = 0;
  std::size_t last_body_line = 0;
  bool internal = false;  // anonymous namespace or static linkage
};

struct FileIndex {
  std::string path;
  Scope scope;
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;
  std::vector<TypeDecl> types;
  std::vector<FunctionDef> functions;
  /// line (1-based) -> rule ids allowed on that line.
  std::map<std::size_t, std::vector<std::string>> allows;
  /// line (1-based) -> type names named by snapshot(...) annotations.
  std::map<std::size_t, std::vector<std::string>> snapshot_annotations;
};

/// Parse one file into its index (exposed for tests); `path` doubles as
/// the root-relative scope.
FileIndex index_file(const std::string& path, const std::string& content);

/// `file:line: [rule] message` lines, one per finding.
std::string to_text(const std::vector<Finding>& findings);

/// Machine-readable report: {"findings":[...],"count":N}.
std::string to_json(const std::vector<Finding>& findings);

}  // namespace pamo::analyze
