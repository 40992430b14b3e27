#include "pamo_analyze/analyze.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "obs/json.hpp"
#include "pamo_analyze/rules.hpp"

namespace pamo::analyze {
namespace {

// New rules are APPENDED to their family: the id order is the stable
// report order that --list-rules and the tests pin down.
const char* const kRuleIds[] = {
    // Per-file rules (rules.cpp).
    "determinism-rng",   "time-seeded-rng",      "unordered-iter",
    "throw-discipline",  "catch-all-swallow",    "float-eq",
    "unchecked-front-back", "pragma-once",       "using-namespace-header",
    "raw-thread",        "wall-clock",           "unchecked-file-write",
    "governor-action",
    // Tree analyses.
    "snapshot-coverage", "layer-dag",            "contract-coverage",
    "capture-hygiene",
};

const char* const kSchedulingDirs[] = {"sim", "sched", "bo", "core"};

// The layer table: includes may only point at the same directory or a
// strictly lower rank. This is the dependency order the tree actually
// builds with (see DESIGN.md "Cross-file semantic analysis" for why the
// serialization layers obs/ckpt sit below the learners that snapshot
// through them).
const std::pair<const char*, int> kLayerRanks[] = {
    {"common", 0}, {"obs", 1},   {"la", 1},        {"opt", 1},
    {"ckpt", 2},   {"gp", 3},    {"eva", 3},       {"pref", 4},
    {"bo", 4},     {"sched", 4}, {"sim", 5},       {"baselines", 5},
    {"core", 6},
};
constexpr int kToolsRank = 7;

constexpr std::size_t kMinBodySpan = 11;  // lines; smaller bodies are trivial

const char* const kContractDirs[] = {"la", "gp", "sched", "bo", "sim", "core"};

const char* const kContractMacros[] = {"PAMO_EXPECTS", "PAMO_ENSURES",
                                       "PAMO_CHECK", "PAMO_ASSERT"};

// Container methods that mutate the object they are called on. A call on a
// shared capture inside a parallel_for lambda through one of these is a
// data race against the determinism digest.
const char* const kMutators[] = {
    "push_back", "emplace_back", "emplace", "insert",  "push",
    "pop_back",  "pop",          "erase",   "clear",   "resize",
    "assign",    "reserve",      "emplace_front", "push_front",
};

bool is_keyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",      "while",    "switch",   "catch",   "return",
      "sizeof",   "alignof",  "alignas",  "decltype", "new",     "delete",
      "throw",    "static_assert", "const",  "mutable", "volatile",
      "inline",   "constexpr", "consteval", "constinit", "static",
      "unsigned", "signed",   "long",     "short",    "int",     "bool",
      "char",     "double",   "float",    "void",     "auto",    "typename",
      "noexcept", "final",    "override", "explicit", "virtual", "friend",
      "register", "extern",   "thread_local", "operator", "co_return",
      "co_await", "co_yield", "requires", "default",  "delete",  "goto",
      "do",       "else",     "case",     "break",    "continue",
  };
  return kKeywords.count(s) != 0;
}

int layer_rank(const std::string& dir) {
  for (const auto& [name, rank] : kLayerRanks) {
    if (dir == name) return rank;
  }
  return -1;
}

bool is_punct(const Token& t, const char* s) {
  return t.kind == TokenKind::kPunct && t.text == s;
}

bool is_ident(const Token& t, const char* s) {
  return t.kind == TokenKind::kIdentifier && t.text == s;
}

/// Index of the token matching the opener at `open` (same nesting kind), or
/// toks.size() when unbalanced.
std::size_t match_close(const std::vector<Token>& toks, std::size_t open,
                        const char* open_s, const char* close_s) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == open_s) {
      ++depth;
    } else if (toks[i].text == close_s && --depth == 0) {
      return i;
    }
  }
  return toks.size();
}

// ---- File indexer ---------------------------------------------------------

struct Indexer {
  FileIndex& out;
  const std::vector<Token>& toks;
  std::size_t pos = 0;
  int anon_depth = 0;

  bool at(std::size_t i) const { return i < toks.size(); }

  /// Skip a balanced <...> template argument list starting at `open`; the
  /// heuristic counts only angle tokens (with >> closing two) which is
  /// enough for declaration contexts.
  std::size_t skip_angles(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kPunct) continue;
      if (t.text == "<") ++depth;
      if (t.text == ">" && --depth == 0) return i + 1;
      if (t.text == ">>") {
        depth -= 2;
        if (depth <= 0) return i + 1;
      }
    }
    return toks.size();
  }

  /// Advance to one past the `;` terminating the current statement,
  /// balancing (), [], {} on the way.
  std::size_t skip_to_semi(std::size_t i) const {
    int pd = 0, bd = 0, sd = 0;
    for (; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kPunct) continue;
      if (t.text == "(") ++pd;
      if (t.text == ")") --pd;
      if (t.text == "{") ++bd;
      if (t.text == "}") --bd;
      if (t.text == "[") ++sd;
      if (t.text == "]") --sd;
      if (t.text == ";" && pd <= 0 && bd <= 0 && sd <= 0) return i + 1;
      if (t.text == "}" && bd < 0) return i;  // ran out of the scope
    }
    return toks.size();
  }

  void parse_block(std::size_t end, TypeDecl* type, bool* public_access) {
    while (pos < end && pos < toks.size()) {
      const Token& t = toks[pos];
      if (is_punct(t, ";") || is_punct(t, "}")) {
        ++pos;
        continue;
      }
      if (t.kind == TokenKind::kIdentifier) {
        const std::string& w = t.text;
        if (w == "namespace" && type == nullptr) {
          parse_namespace(end);
          continue;
        }
        if (w == "inline" && at(pos + 1) && is_ident(toks[pos + 1], "namespace") &&
            type == nullptr) {
          ++pos;
          continue;
        }
        if (w == "template") {
          ++pos;
          if (at(pos) && is_punct(toks[pos], "<")) pos = skip_angles(pos);
          continue;
        }
        if (w == "class" || w == "struct" || w == "union") {
          parse_type(type, public_access);
          continue;
        }
        if (w == "enum") {
          std::size_t i = pos;
          while (i < end && !is_punct(toks[i], "{") && !is_punct(toks[i], ";")) {
            ++i;
          }
          if (i < end && is_punct(toks[i], "{")) {
            i = match_close(toks, i, "{", "}") + 1;
          }
          pos = skip_to_semi(i);
          continue;
        }
        if (w == "using" || w == "typedef" || w == "friend" ||
            w == "static_assert") {
          pos = skip_to_semi(pos);
          continue;
        }
        if (w == "public" || w == "protected" || w == "private") {
          if (type != nullptr && at(pos + 1) && is_punct(toks[pos + 1], ":")) {
            *public_access = (w == "public");
            pos += 2;
            continue;
          }
        }
        if (w == "extern" && at(pos + 1) &&
            toks[pos + 1].kind == TokenKind::kString) {
          if (at(pos + 2) && is_punct(toks[pos + 2], "{")) {
            const std::size_t close = match_close(toks, pos + 2, "{", "}");
            pos += 3;
            parse_block(close, type, public_access);
            pos = close + 1;
            continue;
          }
          pos += 2;
          continue;
        }
      }
      scan_statement(end, type, public_access);
    }
  }

  void parse_namespace(std::size_t end) {
    std::size_t j = pos + 1;
    bool anon = at(j) && is_punct(toks[j], "{");
    while (at(j) && (toks[j].kind == TokenKind::kIdentifier ||
                     is_punct(toks[j], "::"))) {
      ++j;
    }
    if (at(j) && is_punct(toks[j], "=")) {  // namespace alias
      pos = skip_to_semi(j);
      return;
    }
    if (!at(j) || !is_punct(toks[j], "{")) {
      pos = j + 1;
      return;
    }
    const std::size_t close = match_close(toks, j, "{", "}");
    if (anon) ++anon_depth;
    pos = j + 1;
    parse_block(close, nullptr, nullptr);
    if (anon) --anon_depth;
    pos = std::min(close + 1, end);
  }

  void parse_type(TypeDecl* enclosing, bool* enclosing_public) {
    const bool is_class = is_ident(toks[pos], "class");
    std::size_t j = pos + 1;
    if (at(j) && is_ident(toks[j], "alignas") && at(j + 1) &&
        is_punct(toks[j + 1], "(")) {
      j = match_close(toks, j + 1, "(", ")") + 1;
    }
    std::string name;
    std::size_t name_line = toks[pos].line;
    if (at(j) && toks[j].kind == TokenKind::kIdentifier &&
        !is_ident(toks[j], "final")) {
      name = toks[j].text;
      name_line = toks[j].line;
      ++j;
    }
    if (at(j) && is_ident(toks[j], "final")) ++j;
    if (at(j) && is_punct(toks[j], ":")) {  // base list
      int pd = 0;
      while (at(j) && !(pd == 0 && is_punct(toks[j], "{"))) {
        if (is_punct(toks[j], "(")) ++pd;
        if (is_punct(toks[j], ")")) --pd;
        if (is_punct(toks[j], ";")) break;  // malformed / elaborated decl
        ++j;
      }
    }
    if (!at(j) || !is_punct(toks[j], "{")) {
      // Forward declaration (`class X;`) or elaborated use: plain statement.
      pos = skip_to_semi(pos);
      return;
    }
    const std::size_t close = match_close(toks, j, "{", "}");
    TypeDecl td;
    td.name = name;
    td.file = out.path;
    td.line = name_line;
    bool pub = !is_class;
    pos = j + 1;
    parse_block(close, &td, &pub);
    if (!td.name.empty()) out.types.push_back(std::move(td));
    pos = close + 1;
    // Declarators after the closing brace (`} last_good_;`) are members of
    // the enclosing type.
    const std::size_t semi = skip_to_semi(pos) - 1;
    if (enclosing != nullptr && enclosing_public != nullptr) {
      for (std::size_t k = pos; k < semi && k < toks.size(); ++k) {
        if (toks[k].kind == TokenKind::kIdentifier &&
            !is_keyword(toks[k].text)) {
          enclosing->members.push_back(MemberDecl{toks[k].text, toks[k].line});
        }
      }
    }
    pos = semi < toks.size() ? semi + 1 : toks.size();
  }

  /// One declaration/definition at namespace or class scope. Detects
  /// function definitions (records them, skips bodies), function
  /// declarations (public-method bookkeeping at class scope), and data
  /// member declarations.
  void scan_statement(std::size_t end, TypeDecl* type, bool* public_access) {
    const std::size_t start = pos;
    std::size_t i = pos;
    int ad = 0;  // template-angle heuristic depth
    bool saw_static = false;
    std::string name;
    std::string qualifier;
    std::size_t name_line = toks[start].line;
    bool have_cand = false;
    bool after_close = false;

    const auto finish_decl = [&](std::size_t semi_one_past) {
      if (type != nullptr && have_cand && public_access != nullptr &&
          *public_access && !name.empty()) {
        type->public_methods.push_back(name);
      }
      if (type != nullptr && !have_cand) {
        extract_members(start, semi_one_past - 1, type);
      }
      pos = semi_one_past;
    };

    while (i < end && i < toks.size()) {
      const Token& t = toks[i];
      if (!after_close) {
        if (is_punct(t, ";")) {
          finish_decl(i + 1);
          return;
        }
        if (is_punct(t, "=")) {
          const std::size_t after = skip_to_semi(i);
          if (type != nullptr) extract_members(start, after - 1, type);
          pos = after;
          return;
        }
        if (is_punct(t, "{")) {
          const bool fn_like = i > start && is_punct(toks[i - 1], ")");
          const std::size_t close = match_close(toks, i, "{", "}");
          if (fn_like) {
            pos = close + 1;  // unrecognized function-ish body (operators…)
            return;
          }
          i = close + 1;  // brace initializer; statement continues to ';'
          continue;
        }
        if (is_punct(t, "[")) {
          i = match_close(toks, i, "[", "]") + 1;
          continue;
        }
        if (t.kind == TokenKind::kIdentifier && t.text == "operator") {
          std::size_t j = i + 1;
          if (at(j) && is_punct(toks[j], "(") && at(j + 1) &&
              is_punct(toks[j + 1], ")")) {
            j += 2;  // operator()
          } else {
            while (at(j) && !is_punct(toks[j], "(")) ++j;
          }
          if (!at(j)) {
            pos = toks.size();
            return;
          }
          name = "operator";
          name_line = t.line;
          qualifier = qualifier_before(i);
          have_cand = true;
          i = match_close(toks, j, "(", ")") + 1;
          after_close = true;
          continue;
        }
        if (t.kind == TokenKind::kIdentifier && t.text == "static") {
          saw_static = true;
          ++i;
          continue;
        }
        if (is_punct(t, "(")) {
          if (ad == 0 && i > start &&
              toks[i - 1].kind == TokenKind::kIdentifier &&
              !is_keyword(toks[i - 1].text)) {
            name = toks[i - 1].text;
            name_line = toks[i - 1].line;
            qualifier = qualifier_before(i - 1);
            if (i >= start + 2 && is_punct(toks[i - 2], "~")) name = "~" + name;
            have_cand = true;
            i = match_close(toks, i, "(", ")") + 1;
            after_close = true;
            continue;
          }
          i = match_close(toks, i, "(", ")") + 1;
          continue;
        }
        if (is_punct(t, "<") && i > start &&
            toks[i - 1].kind == TokenKind::kIdentifier) {
          ++ad;
          ++i;
          continue;
        }
        if (is_punct(t, ">") && ad > 0) {
          --ad;
          ++i;
          continue;
        }
        if (is_punct(t, ">>") && ad > 0) {
          ad = ad >= 2 ? ad - 2 : 0;
          ++i;
          continue;
        }
        ++i;
        continue;
      }
      // Trailer after the candidate's closing ')'.
      if (is_punct(t, "{")) {
        record_function(name, qualifier, name_line, i, saw_static, type);
        pos = match_close(toks, i, "{", "}") + 1;
        return;
      }
      if (is_punct(t, ";")) {
        finish_decl(i + 1);
        return;
      }
      if (is_punct(t, "=")) {  // = default / = delete / = 0
        finish_decl(skip_to_semi(i));
        return;
      }
      if (is_punct(t, ":")) {  // constructor init list
        std::size_t j = i + 1;
        while (j < toks.size()) {
          const Token& u = toks[j];
          if (is_punct(u, "(")) {
            j = match_close(toks, j, "(", ")") + 1;
            continue;
          }
          if (is_punct(u, "{")) {
            const Token& prev = toks[j - 1];
            const bool initializer = prev.kind == TokenKind::kIdentifier ||
                                     is_punct(prev, ">");
            if (initializer) {
              j = match_close(toks, j, "{", "}") + 1;
              continue;
            }
            record_function(name, qualifier, name_line, j, saw_static, type);
            pos = match_close(toks, j, "{", "}") + 1;
            return;
          }
          if (is_punct(u, ";")) {  // malformed; bail as declaration
            finish_decl(j + 1);
            return;
          }
          ++j;
        }
        pos = toks.size();
        return;
      }
      if (is_punct(t, ",")) {  // multi-declarator: treat as declaration
        finish_decl(skip_to_semi(i));
        return;
      }
      if (is_punct(t, "(") || is_punct(t, "[")) {
        i = match_close(toks, i, t.text == "(" ? "(" : "[",
                        t.text == "(" ? ")" : "]") + 1;
        continue;
      }
      ++i;
    }
    pos = std::max(i, start + 1);
  }

  /// Walk an `A::B::name` chain backwards from the name token at `idx`;
  /// returns the qualifier directly before the name, if any.
  std::string qualifier_before(std::size_t idx) const {
    if (idx < 2) return "";
    if (!is_punct(toks[idx - 1], "::")) return "";
    if (toks[idx - 2].kind != TokenKind::kIdentifier) return "";
    return toks[idx - 2].text;
  }

  void record_function(const std::string& name, const std::string& qualifier,
                       std::size_t name_line, std::size_t body_open,
                       bool saw_static, TypeDecl* type) {
    const std::size_t body_close = match_close(toks, body_open, "{", "}");
    FunctionDef fd;
    fd.name = name;
    fd.qualifier = type != nullptr ? type->name : qualifier;
    fd.file = out.path;
    fd.line = name_line;
    fd.body_begin = body_open;
    fd.body_end = std::min(body_close + 1, toks.size());
    fd.first_body_line = toks[body_open].line;
    fd.last_body_line =
        body_close < toks.size() ? toks[body_close].line : toks.back().line;
    fd.internal = anon_depth > 0 || (saw_static && type == nullptr);
    out.functions.push_back(std::move(fd));
    if (type != nullptr && !name.empty()) {
      type->public_methods.push_back(name);  // defined in-class
    }
  }

  /// Data-member extraction over a declaration statement [begin, semi).
  void extract_members(std::size_t begin, std::size_t semi, TypeDecl* type) {
    if (begin >= semi || begin >= toks.size()) return;
    const Token& first = toks[begin];
    if (first.kind == TokenKind::kIdentifier) {
      static const std::set<std::string> kSkip = {
          "using",  "typedef", "friend",    "static", "constexpr",
          "template", "enum",  "class",     "struct", "union",
          "public", "protected", "private", "static_assert",
      };
      if (kSkip.count(first.text) != 0) return;
    }
    int ad = 0;
    std::size_t i = begin;
    while (i < semi && i < toks.size()) {
      const Token& t = toks[i];
      if (is_punct(t, "<") && i > begin &&
          toks[i - 1].kind == TokenKind::kIdentifier) {
        ++ad;
        ++i;
        continue;
      }
      if (is_punct(t, ">") && ad > 0) {
        --ad;
        ++i;
        continue;
      }
      if (is_punct(t, ">>") && ad > 0) {
        ad = ad >= 2 ? ad - 2 : 0;
        ++i;
        continue;
      }
      if (t.kind == TokenKind::kIdentifier && !is_keyword(t.text) && ad == 0 &&
          i + 1 <= semi) {
        const Token* nx = i + 1 < toks.size() ? &toks[i + 1] : nullptr;
        const bool at_end_of_stmt = i + 1 == semi || nx == nullptr;
        const bool separator =
            at_end_of_stmt ||
            (nx->kind == TokenKind::kPunct &&
             (nx->text == ";" || nx->text == "," || nx->text == "=" ||
              nx->text == "[" || nx->text == "{" || nx->text == ":"));
        if (separator) {
          const bool bitfield = !at_end_of_stmt && nx->text == ":";
          if (!bitfield) {
            type->members.push_back(MemberDecl{t.text, t.line});
          }
          // Skip array extents and initializers up to the next ',' or end.
          std::size_t j = i + 1;
          while (j < semi && j < toks.size()) {
            const Token& u = toks[j];
            if (is_punct(u, "[")) {
              j = match_close(toks, j, "[", "]") + 1;
              continue;
            }
            if (is_punct(u, "{")) {
              j = match_close(toks, j, "{", "}") + 1;
              continue;
            }
            if (is_punct(u, "(")) {
              j = match_close(toks, j, "(", ")") + 1;
              continue;
            }
            if (is_punct(u, ",")) {
              ++j;
              break;
            }
            ++j;
          }
          i = j;
          continue;
        }
      }
      ++i;
    }
  }
};

void parse_comment_directives(FileIndex& fi, const std::string& comments) {
  static const std::regex kAllow(R"(pamo-analyze:\s*allow\(([^)]*)\))");
  static const std::regex kSnapshot(R"(pamo-analyze:\s*snapshot\(([^)]*)\))");
  std::size_t line = 1;
  std::size_t pos = 0;
  while (pos <= comments.size()) {
    const std::size_t eol = comments.find('\n', pos);
    const std::string text =
        comments.substr(pos, (eol == std::string::npos ? comments.size() : eol) - pos);
    const auto collect = [&](const std::regex& re,
                             std::map<std::size_t, std::vector<std::string>>& dst) {
      for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
           it != std::sregex_iterator(); ++it) {
        std::stringstream list((*it)[1].str());
        std::string id;
        while (std::getline(list, id, ',')) {
          id.erase(std::remove_if(
                       id.begin(), id.end(),
                       [](unsigned char c) { return std::isspace(c) != 0; }),
                   id.end());
          if (!id.empty()) dst[line].push_back(id);
        }
      }
    };
    collect(kAllow, fi.allows);
    collect(kSnapshot, fi.snapshot_annotations);
    if (eol == std::string::npos) break;
    pos = eol + 1;
    ++line;
  }
}

FileIndex index_stripped(const std::string& path, const std::string& scope,
                         const std::string& content,
                         const std::string& comments) {
  FileIndex fi;
  fi.path = path;
  fi.scope = Scope(scope);
  fi.tokens = tokenize(content);
  fi.includes = parse_includes(content);
  parse_comment_directives(fi, comments);
  Indexer indexer{fi, fi.tokens};
  indexer.parse_block(fi.tokens.size(), nullptr, nullptr);
  return fi;
}

// ---- Analyses -------------------------------------------------------------

struct Analyzer {
  const std::vector<FileIndex>& files;
  std::vector<Finding> findings;

  void add(const std::string& file, std::size_t line, const char* rule,
           std::string message) {
    findings.push_back(
        Finding{file, line, rule, std::move(message), /*suppressed=*/false});
  }

  const TypeDecl* find_type(const std::string& name) const {
    for (const auto& fi : files) {
      for (const auto& td : fi.types) {
        if (td.name == name) return &td;
      }
    }
    return nullptr;
  }

  // -- layer-dag ------------------------------------------------------------
  void layer_dag() {
    // Directory-rank edges.
    for (const auto& fi : files) {
      const std::string& dir = fi.scope.layer;
      int rank = -1;
      if (!dir.empty()) {
        rank = layer_rank(dir);
        if (rank < 0) {
          add(fi.path, 1, "layer-dag",
              "directory src/" + dir +
                  " is not in the layer table; add it to kLayerRanks (and "
                  "DESIGN.md) before introducing a new layer");
          continue;
        }
      } else if (fi.scope.top == "tools") {
        rank = kToolsRank;
      } else {
        continue;
      }
      for (const auto& inc : fi.includes) {
        if (inc.computed || inc.angled) continue;
        const std::size_t slash = inc.target.find('/');
        if (slash == std::string::npos) continue;
        const std::string tdir = inc.target.substr(0, slash);
        const int trank = layer_rank(tdir);
        if (trank < 0) continue;
        if (trank > rank) {
          add(fi.path, inc.line, "layer-dag",
              "upward include: " + (dir.empty() ? std::string("tools") : dir) +
                  " (rank " + std::to_string(rank) + ") must not include " +
                  tdir + "/ (rank " + std::to_string(trank) +
                  "); invert the dependency or move the shared piece down "
                  "the stack");
        } else if (trank == rank && tdir != dir && rank != kToolsRank) {
          add(fi.path, inc.line, "layer-dag",
              "lateral include: " + dir + " and " + tdir +
                  " share layer rank " + std::to_string(rank) +
                  " and must stay independent; move the shared piece to a "
                  "lower layer");
        }
      }
    }
    // File-level include cycles over the indexed tree.
    std::map<std::string, std::size_t> by_path;
    for (std::size_t i = 0; i < files.size(); ++i) by_path[files[i].path] = i;
    const auto resolve = [&](const std::string& target) -> std::size_t {
      for (std::size_t i = 0; i < files.size(); ++i) {
        if (files[i].path == target ||
            files[i].path.ends_with("/" + target)) {
          return i;
        }
      }
      return files.size();
    };
    std::vector<std::vector<std::size_t>> adj(files.size());
    struct Edge {
      std::size_t from, to, line;
      std::string target;
    };
    std::vector<Edge> edges;
    for (std::size_t i = 0; i < files.size(); ++i) {
      for (const auto& inc : files[i].includes) {
        if (inc.computed || inc.angled) continue;
        const std::size_t j = resolve(inc.target);
        if (j >= files.size()) continue;
        adj[i].push_back(j);
        edges.push_back(Edge{i, j, inc.line, inc.target});
      }
    }
    // reach[v] = every node reachable from v (v included).
    std::vector<std::vector<bool>> reach(files.size(),
                                         std::vector<bool>(files.size()));
    for (std::size_t v = 0; v < files.size(); ++v) {
      std::vector<std::size_t> stack{v};
      reach[v][v] = true;
      while (!stack.empty()) {
        const std::size_t u = stack.back();
        stack.pop_back();
        for (std::size_t w : adj[u]) {
          if (!reach[v][w]) {
            reach[v][w] = true;
            stack.push_back(w);
          }
        }
      }
    }
    for (const auto& e : edges) {
      if (reach[e.to][e.from]) {
        add(files[e.from].path, e.line, "layer-dag",
            "include cycle: " + e.target + " transitively includes " +
                files[e.from].path + " again; break the cycle with a "
                "forward declaration or an interface header");
      }
    }
  }

  // -- snapshot-coverage ----------------------------------------------------
  struct SnapshotReg {
    std::vector<const FunctionDef*> encoders;
    std::vector<const FunctionDef*> decoders;
    std::string first_file;
    std::size_t first_line = 0;
  };

  void snapshot_coverage() {
    std::map<std::string, SnapshotReg> reg;
    for (const auto& fi : files) {
      for (const auto& [line, types] : fi.snapshot_annotations) {
        // Attach to the first function defined at or below the annotation.
        const FunctionDef* best = nullptr;
        for (const auto& fd : fi.functions) {
          if (fd.line >= line && (best == nullptr || fd.line < best->line)) {
            best = &fd;
          }
        }
        if (best == nullptr) {
          add(fi.path, line, "snapshot-coverage",
              "snapshot(...) annotation with no following function "
              "definition in this file");
          continue;
        }
        const bool enc = best->name.find("snapshot") != std::string::npos ||
                         best->name.find("to_json") != std::string::npos;
        const bool dec = best->name.find("restore") != std::string::npos ||
                         best->name.find("from_json") != std::string::npos;
        for (const auto& type : types) {
          auto& r = reg[type];
          if (r.first_line == 0) {
            r.first_file = fi.path;
            r.first_line = line;
          }
          if (enc || !dec) r.encoders.push_back(best);
          if (dec || !enc) r.decoders.push_back(best);
        }
      }
    }
    for (const auto& [type_name, r] : reg) {
      const TypeDecl* td = find_type(type_name);
      if (td == nullptr) {
        add(r.first_file, r.first_line, "snapshot-coverage",
            "snapshot(" + type_name +
                "): no class/struct of that name is declared anywhere in "
                "the analyzed tree");
        continue;
      }
      if (r.encoders.empty() || r.decoders.empty()) {
        add(r.first_file, r.first_line, "snapshot-coverage",
            "snapshot(" + type_name + "): only the " +
                (r.encoders.empty() ? "decode" : "encode") +
                " side is annotated; annotate the matching " +
                (r.encoders.empty() ? "encoder" : "decoder") + " too");
        continue;
      }
      const auto body_names = [&](const std::vector<const FunctionDef*>& fns) {
        std::set<std::string> names;
        for (const FunctionDef* fd : fns) {
          const FileIndex* fi = file_of(fd);
          for (std::size_t i = fd->body_begin; i < fd->body_end; ++i) {
            const Token& t = fi->tokens[i];
            if (t.kind == TokenKind::kIdentifier ||
                t.kind == TokenKind::kString) {
              names.insert(t.text);
            }
          }
        }
        return names;
      };
      const std::set<std::string> enc_names = body_names(r.encoders);
      const std::set<std::string> dec_names = body_names(r.decoders);
      for (const auto& m : td->members) {
        std::string base = m.name;
        while (!base.empty() && base.back() == '_') base.pop_back();
        const auto mentions = [&](const std::set<std::string>& names) {
          return names.count(m.name) != 0 || names.count(base) != 0;
        };
        if (!mentions(enc_names)) {
          add(td->file, m.line, "snapshot-coverage",
              "member '" + m.name + "' of " + type_name +
                  " is never referenced by its snapshot encoder: restored "
                  "instances will silently lose this state (allowlist "
                  "deliberately unserialized members with a justification)");
        } else if (!mentions(dec_names)) {
          add(td->file, m.line, "snapshot-coverage",
              "member '" + m.name + "' of " + type_name +
                  " is written by the encoder but never referenced by its "
                  "decoder: encode/decode asymmetry");
        }
      }
      // Key symmetry between set("k") writes and at("k")/find("k") reads.
      std::map<std::string, std::pair<const FileIndex*, std::size_t>> written;
      std::map<std::string, std::pair<const FileIndex*, std::size_t>> read_req;
      std::set<std::string> read_any;
      const auto scan_keys = [&](const std::vector<const FunctionDef*>& fns,
                                 bool encode_side) {
        for (const FunctionDef* fd : fns) {
          const FileIndex* fi = file_of(fd);
          const auto& tk = fi->tokens;
          for (std::size_t i = fd->body_begin; i + 2 < fd->body_end; ++i) {
            if (tk[i].kind != TokenKind::kIdentifier) continue;
            if (i == 0 || !(is_punct(tk[i - 1], ".") ||
                            is_punct(tk[i - 1], "->"))) {
              continue;
            }
            if (!is_punct(tk[i + 1], "(") ||
                tk[i + 2].kind != TokenKind::kString) {
              continue;
            }
            const std::string& key = tk[i + 2].text;
            if (encode_side && tk[i].text == "set") {
              written.emplace(key, std::make_pair(fi, tk[i + 2].line));
            } else if (!encode_side && tk[i].text == "at") {
              read_req.emplace(key, std::make_pair(fi, tk[i + 2].line));
              read_any.insert(key);
            } else if (!encode_side && tk[i].text == "find") {
              read_any.insert(key);
            }
          }
        }
      };
      scan_keys(r.encoders, /*encode_side=*/true);
      scan_keys(r.decoders, /*encode_side=*/false);
      for (const auto& [key, where] : written) {
        if (read_any.count(key) == 0) {
          add(where.first->path, where.second, "snapshot-coverage",
              "key \"" + key + "\" written by the " + type_name +
                  " encoder is never read back by its decoder: the field "
                  "is dropped on restore");
        }
      }
      for (const auto& [key, where] : read_req) {
        if (written.count(key) == 0) {
          add(where.first->path, where.second, "snapshot-coverage",
              "key \"" + key + "\" read via at() by the " + type_name +
                  " decoder is never written by its encoder: restore will "
                  "throw on every snapshot (use find() for optional "
                  "backward-compatible keys)");
        }
      }
    }
  }

  const FileIndex* file_of(const FunctionDef* fd) const {
    for (const auto& fi : files) {
      if (fi.path == fd->file) return &fi;
    }
    return nullptr;
  }

  // -- contract-coverage ----------------------------------------------------
  void contract_coverage() {
    for (const auto& fi : files) {
      bool in_scope = false;
      for (const char* d : kContractDirs) {
        if (fi.scope.layer == d) in_scope = true;
      }
      if (!in_scope) continue;
      for (const auto& fd : fi.functions) {
        if (fd.internal || fd.name.empty() || fd.name == "main" ||
            fd.name == "operator" || fd.name[0] == '~') {
          continue;
        }
        if (fd.last_body_line - fd.first_body_line < kMinBodySpan) continue;
        if (!fd.qualifier.empty()) {
          const TypeDecl* td = find_type(fd.qualifier);
          if (td != nullptr &&
              std::find(td->public_methods.begin(), td->public_methods.end(),
                        fd.name) == td->public_methods.end()) {
            continue;  // private/protected member
          }
        }
        bool evidenced = false;
        for (std::size_t i = fd.body_begin; i < fd.body_end && !evidenced;
             ++i) {
          const Token& t = fi.tokens[i];
          if (t.kind != TokenKind::kIdentifier) continue;
          for (const char* macro : kContractMacros) {
            if (t.text == macro) {
              evidenced = true;
              break;
            }
          }
        }
        if (!evidenced) {
          add(fi.path, fd.line, "contract-coverage",
              "public function " +
                  (fd.qualifier.empty() ? fd.name
                                        : fd.qualifier + "::" + fd.name) +
                  " (" +
                  std::to_string(fd.last_body_line - fd.first_body_line + 1) +
                  " lines) has no PAMO_EXPECTS/PAMO_ENSURES (or "
                  "PAMO_CHECK/PAMO_ASSERT); state its pre/postconditions or "
                  "allowlist it with a justification");
        }
      }
    }
  }

  // -- capture-hygiene ------------------------------------------------------
  void capture_hygiene() {
    for (const auto& fi : files) {
      if (fi.scope.layer.empty()) continue;
      const auto& tk = fi.tokens;
      for (std::size_t i = 0; i + 1 < tk.size(); ++i) {
        if (tk[i].kind != TokenKind::kIdentifier) continue;
        if (tk[i].text != "parallel_for" && tk[i].text != "submit") continue;
        if (!is_punct(tk[i + 1], "(")) continue;
        const std::size_t close = match_close(tk, i + 1, "(", ")");
        scan_call_lambdas(fi, i + 2, close);
      }
    }
  }

  struct Lambda {
    bool default_ref = false;
    bool default_val = false;
    bool this_cap = false;
    std::set<std::string> ref_names;
    std::set<std::string> params;
    std::size_t body_begin = 0;
    std::size_t body_end = 0;
  };

  void scan_call_lambdas(const FileIndex& fi, std::size_t begin,
                         std::size_t end) {
    const auto& tk = fi.tokens;
    for (std::size_t i = begin; i < end && i < tk.size(); ++i) {
      if (!is_punct(tk[i], "[")) continue;
      if (i == begin || is_punct(tk[i - 1], "(") || is_punct(tk[i - 1], ",")) {
        Lambda lam;
        std::size_t after = parse_lambda(fi, i, &lam);
        if (after == 0) continue;
        check_lambda(fi, lam);
        i = after - 1;
      }
    }
  }

  /// Parse a lambda starting at its '[' token. Returns one past the body's
  /// closing '}' (0 when this is not actually a lambda).
  std::size_t parse_lambda(const FileIndex& fi, std::size_t open,
                           Lambda* lam) {
    const auto& tk = fi.tokens;
    const std::size_t cap_close = match_close(tk, open, "[", "]");
    if (cap_close >= tk.size()) return 0;
    // Capture list entries, split on top-level commas.
    std::vector<std::vector<const Token*>> entries(1);
    int pd = 0;
    for (std::size_t j = open + 1; j < cap_close; ++j) {
      if (is_punct(tk[j], "(") || is_punct(tk[j], "{")) ++pd;
      if (is_punct(tk[j], ")") || is_punct(tk[j], "}")) --pd;
      if (pd == 0 && is_punct(tk[j], ",")) {
        entries.emplace_back();
        continue;
      }
      entries.back().push_back(&tk[j]);
    }
    for (const auto& e : entries) {
      if (e.empty()) continue;
      if (e.size() == 1 && is_punct(*e[0], "&")) {
        lam->default_ref = true;
      } else if (e.size() == 1 && is_punct(*e[0], "=")) {
        lam->default_val = true;
      } else if (is_ident(*e[0], "this") ||
                 (e.size() >= 2 && is_punct(*e[0], "*") &&
                  is_ident(*e[1], "this"))) {
        lam->this_cap = true;
      } else if (is_punct(*e[0], "&") && e.size() >= 2 &&
                 e[1]->kind == TokenKind::kIdentifier) {
        lam->ref_names.insert(e[1]->text);
      }
      // By-value and init captures copy; out of scope for this rule.
    }
    std::size_t j = cap_close + 1;
    if (j < tk.size() && is_punct(tk[j], "<")) {  // template intro
      int ang = 0;
      for (; j < tk.size(); ++j) {
        if (is_punct(tk[j], "<")) ++ang;
        if (is_punct(tk[j], ">") && --ang == 0) {
          ++j;
          break;
        }
      }
    }
    if (j < tk.size() && is_punct(tk[j], "(")) {
      const std::size_t pclose = match_close(tk, j, "(", ")");
      const Token* last_ident = nullptr;
      int depth = 0;
      for (std::size_t k = j + 1; k < pclose; ++k) {
        if (is_punct(tk[k], "(") || is_punct(tk[k], "{") ||
            is_punct(tk[k], "[") || is_punct(tk[k], "<")) {
          ++depth;
        }
        if (is_punct(tk[k], ")") || is_punct(tk[k], "}") ||
            is_punct(tk[k], "]") || is_punct(tk[k], ">")) {
          --depth;
        }
        if (depth > 0) continue;
        if (tk[k].kind == TokenKind::kIdentifier && !is_keyword(tk[k].text)) {
          last_ident = &tk[k];
        }
        if (is_punct(tk[k], ",") || is_punct(tk[k], "=")) {
          if (last_ident != nullptr) lam->params.insert(last_ident->text);
          last_ident = nullptr;
          if (is_punct(tk[k], "=")) {
            while (k < pclose && !is_punct(tk[k], ",")) ++k;
          }
        }
      }
      if (last_ident != nullptr) lam->params.insert(last_ident->text);
      j = pclose + 1;
    }
    while (j < tk.size() && !is_punct(tk[j], "{")) {
      if (is_punct(tk[j], "(")) {  // noexcept(...)
        j = match_close(tk, j, "(", ")") + 1;
        continue;
      }
      if (is_punct(tk[j], ";") || is_punct(tk[j], ")") ||
          is_punct(tk[j], ",")) {
        return 0;  // not a lambda after all (e.g. array subscript)
      }
      ++j;
    }
    if (j >= tk.size()) return 0;
    lam->body_begin = j + 1;
    lam->body_end = match_close(tk, j, "{", "}");
    return std::min(lam->body_end + 1, tk.size());
  }

  void check_lambda(const FileIndex& fi, const Lambda& lam) {
    const auto& tk = fi.tokens;
    // Pass 1: body-local declarations (heuristic: identifier preceded by a
    // type-ish token and not by an access/scope operator).
    std::set<std::string> locals;
    for (std::size_t i = lam.body_begin; i < lam.body_end; ++i) {
      if (tk[i].kind != TokenKind::kIdentifier || is_keyword(tk[i].text)) {
        continue;
      }
      if (i == lam.body_begin) continue;
      const Token& p = tk[i - 1];
      const bool typeish =
          (p.kind == TokenKind::kIdentifier) || is_punct(p, ">") ||
          is_punct(p, "&") || is_punct(p, "*") || is_punct(p, "&&");
      if (!typeish) continue;
      // `a.b c` / `a->b c` is never a declaration, but `ns::type c` is the
      // common qualified-type case (std::size_t s = ...), so `::` stays in.
      if (p.kind == TokenKind::kIdentifier &&
          (i >= 2 && (is_punct(tk[i - 2], ".") || is_punct(tk[i - 2], "->")))) {
        continue;
      }
      locals.insert(tk[i].text);
    }
    const auto is_partition_index = [&](std::size_t open, const char* open_s,
                                        const char* close_s) {
      const std::size_t close = match_close(tk, open, open_s, close_s);
      bool has_ident = false;
      for (std::size_t k = open + 1; k < close; ++k) {
        if (is_punct(tk[k], "[")) return false;  // nested subscript: opaque
        if (tk[k].kind == TokenKind::kIdentifier && !is_keyword(tk[k].text)) {
          has_ident = true;
          if (lam.params.count(tk[k].text) == 0 &&
              locals.count(tk[k].text) == 0) {
            return false;
          }
        }
      }
      return has_ident;
    };
    const auto is_shared = [&](const std::string& root) {
      if (lam.params.count(root) != 0 || locals.count(root) != 0) return false;
      return lam.ref_names.count(root) != 0 || lam.default_ref ||
             lam.this_cap;
    };
    std::set<std::pair<std::size_t, std::string>> reported;
    const auto report = [&](std::size_t line, const std::string& root,
                            const std::string& what) {
      if (!reported.insert({line, root}).second) return;
      add(fi.path, line, "capture-hygiene",
          what + " on '" + root +
              "', a by-reference/this capture in a parallel_for/submit "
              "lambda, without per-index partitioning: concurrent workers "
              "race on it and break the any-worker-count determinism "
              "digest; partition by the loop index or reduce after the "
              "parallel section");
    };
    // Pass 2: writes through chains rooted at a shared capture.
    for (std::size_t i = lam.body_begin; i < lam.body_end; ++i) {
      if (tk[i].kind != TokenKind::kIdentifier || is_keyword(tk[i].text)) {
        continue;
      }
      if (i > 0 && (is_punct(tk[i - 1], ".") || is_punct(tk[i - 1], "->") ||
                    is_punct(tk[i - 1], "::"))) {
        continue;  // not a chain root
      }
      const std::string root = tk[i].text;
      // Walk the access chain: .name / ->name / [..] / (..) steps.
      std::size_t j = i + 1;
      bool partitioned = false;
      std::string pending_method;
      while (j < lam.body_end) {
        if (is_punct(tk[j], "[")) {
          if (is_partition_index(j, "[", "]")) partitioned = true;
          j = match_close(tk, j, "[", "]") + 1;
          pending_method.clear();
          continue;
        }
        if (is_punct(tk[j], "(")) {
          // A call step: either a mutator invocation or an element access
          // à la Matrix::operator() — treat param/local indices as
          // partition evidence.
          if (pending_method.empty() && is_partition_index(j, "(", ")")) {
            partitioned = true;
          }
          if (!pending_method.empty()) {
            bool mutator = false;
            for (const char* m : kMutators) {
              if (pending_method == m) mutator = true;
            }
            if (mutator && !partitioned && is_shared(root)) {
              report(tk[j].line, root, "." + pending_method + "()");
            }
            j = match_close(tk, j, "(", ")") + 1;
            break;  // method call ends the interesting part of the chain
          }
          j = match_close(tk, j, "(", ")") + 1;
          continue;
        }
        if ((is_punct(tk[j], ".") || is_punct(tk[j], "->")) &&
            j + 1 < lam.body_end &&
            tk[j + 1].kind == TokenKind::kIdentifier) {
          pending_method = tk[j + 1].text;
          j += 2;
          continue;
        }
        break;
      }
      if (j < lam.body_end && tk[j].kind == TokenKind::kPunct) {
        static const std::set<std::string> kWriteOps = {
            "=",  "+=", "-=", "*=", "/=", "%=",
            "&=", "|=", "^=", "<<=", ">>=", "++", "--"};
        if (kWriteOps.count(tk[j].text) != 0 && !partitioned &&
            is_shared(root)) {
          report(tk[j].line, root, "write '" + tk[j].text + "'");
        }
      }
      // Prefix increment/decrement.
      if (i > 0 && (is_punct(tk[i - 1], "++") || is_punct(tk[i - 1], "--")) &&
          !is_shared(root)) {
        continue;
      }
      if (i > 0 && (is_punct(tk[i - 1], "++") || is_punct(tk[i - 1], "--")) &&
          is_shared(root)) {
        report(tk[i].line, root, "write '" + tk[i - 1].text + "'");
      }
    }
  }
};

}  // namespace

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> ids(std::begin(kRuleIds),
                                            std::end(kRuleIds));
  return ids;
}

std::string scope_path(const std::string& root, const std::string& file) {
  namespace fs = std::filesystem;
  fs::path r = fs::path(root).lexically_normal();
  if (!r.has_filename()) r = r.parent_path();  // "src/" names "src"
  return fs::path(file)
      .lexically_normal()
      .lexically_relative(r.parent_path())
      .generic_string();
}

Scope::Scope(std::string rel_path) : rel(std::move(rel_path)) {
  const std::size_t slash = rel.find('/');
  top = rel.substr(0, slash);
  if (top == "src" && slash != std::string::npos) {
    const std::size_t next = rel.find('/', slash + 1);
    if (next != std::string::npos) {
      layer = rel.substr(slash + 1, next - slash - 1);
    }
  }
}

bool Scope::scheduling_path() const {
  return std::find(std::begin(kSchedulingDirs), std::end(kSchedulingDirs),
                   layer) != std::end(kSchedulingDirs);
}

FileIndex index_file(const std::string& path, const std::string& content) {
  return index_stripped(path, path, content, strip_source(content).comments);
}

std::vector<Finding> analyze_tree(const std::vector<SourceFile>& files,
                                  const Options& options) {
  std::vector<FileIndex> idx;
  idx.reserve(files.size());
  std::vector<Finding> findings;
  for (const auto& f : files) {
    const StripResult stripped = strip_source(f.content);
    idx.push_back(index_stripped(f.path, f.scope.empty() ? f.path : f.scope,
                                 f.content, stripped.comments));
    check_file(f.path, idx.back().scope, stripped.code, findings);
  }

  Analyzer analyzer{idx, std::move(findings)};
  analyzer.snapshot_coverage();
  analyzer.layer_dag();
  analyzer.contract_coverage();
  analyzer.capture_hygiene();

  std::map<std::string, const FileIndex*> by_path;
  for (const auto& fi : idx) by_path[fi.path] = &fi;
  std::vector<Finding> result;
  for (auto& f : analyzer.findings) {
    bool suppressed = false;
    const auto it = by_path.find(f.file);
    if (it != by_path.end()) {
      const auto& allows = it->second->allows;
      for (std::size_t line : {f.line, f.line - 1}) {
        const auto a = allows.find(line);
        if (a != allows.end() &&
            std::find(a->second.begin(), a->second.end(), f.rule) !=
                a->second.end()) {
          suppressed = true;
        }
      }
    }
    if (suppressed && !options.include_suppressed) continue;
    f.suppressed = suppressed;
    result.push_back(std::move(f));
  }
  std::stable_sort(result.begin(), result.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  return result;
}

std::string to_text(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const auto& f : findings) {
    os << f.file << ':' << f.line << ": [" << f.rule << "] " << f.message;
    if (f.suppressed) os << " (suppressed)";
    os << '\n';
  }
  return os.str();
}

std::string to_json(const std::vector<Finding>& findings) {
  using obs::json::Value;
  Value list = Value::array();
  for (const auto& f : findings) {
    Value entry = Value::object();
    entry.set("file", f.file);
    entry.set("line", static_cast<std::uint64_t>(f.line));
    entry.set("rule", f.rule);
    entry.set("message", f.message);
    entry.set("suppressed", f.suppressed);
    list.push_back(std::move(entry));
  }
  Value report = Value::object();
  report.set("findings", std::move(list));
  report.set("count", static_cast<std::uint64_t>(findings.size()));
  return report.dump();
}

}  // namespace pamo::analyze
