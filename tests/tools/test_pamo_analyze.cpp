// Tests for the pamo_analyze engine (its cross-file analyses, suppression,
// scoping, and reports) and the shared tokenizer it is built on. Fixtures
// are in-memory SourceFile trees handed to analyze_tree; the tokenizer
// tests pin the geometry-preservation property every downstream line
// number depends on. The per-file rules' fixtures live in
// test_pamo_analyze_rules.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "pamo_analyze/analyze.hpp"
#include "pamo_analyze/tokenizer.hpp"

namespace pamo::analyze {
namespace {

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::size_t count_rule(const std::vector<Finding>& findings,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// ---- tokenizer: stripping -------------------------------------------------

TEST(AnalyzeTokenizer, StripPreservesGeometryExactly) {
  const std::string source =
      "int a = 1; // trailing comment\n"
      "/* block\n"
      "   spanning */ int b = 2;\n"
      "const char* s = \"str with // not a comment\";\n"
      "const char* r = R\"(raw \" with /* markers */)\";\n"
      "char c = '\\n';\n";
  const StripResult sr = strip_source(source);
  // Both channels are byte-for-byte the same length as the input, with
  // newlines at identical offsets: every token line number is exact.
  ASSERT_EQ(sr.code.size(), source.size());
  ASSERT_EQ(sr.comments.size(), source.size());
  for (std::size_t i = 0; i < source.size(); ++i) {
    EXPECT_EQ(source[i] == '\n', sr.code[i] == '\n') << "offset " << i;
    EXPECT_EQ(source[i] == '\n', sr.comments[i] == '\n') << "offset " << i;
  }
}

TEST(AnalyzeTokenizer, StripSeparatesCommentAndCodeChannels) {
  const std::string source = "int x; // keep me\nint y = 0;\n";
  const StripResult sr = strip_source(source);
  EXPECT_NE(sr.comments.find("keep me"), std::string::npos);
  EXPECT_EQ(sr.code.find("keep me"), std::string::npos);
  EXPECT_NE(sr.code.find("int y"), std::string::npos);
  EXPECT_EQ(sr.comments.find("int y"), std::string::npos);
}

TEST(AnalyzeTokenizer, CommentMarkersInsideStringsStayStrings) {
  // "/*" inside a literal must not open a comment, or the rest of the
  // file would be swallowed.
  const std::string source =
      "const char* a = \"/* not a comment\";\n"
      "int alive = 1;\n";
  const StripResult sr = strip_source(source);
  EXPECT_NE(sr.code.find("alive"), std::string::npos);
  EXPECT_EQ(sr.comments.find("not a comment"), std::string::npos);
}

TEST(AnalyzeTokenizer, DigraphsAndDelimitersInsideStringsAreInert) {
  const std::string source =
      "const char* d = \"<% %> { } ( )\";\n"
      "int z = 0;\n";
  const auto tokens = tokenize(source);
  // The literal is ONE string token; none of its braces leak as punct.
  std::size_t braces = 0;
  for (const auto& t : tokens) {
    if (t.kind == TokenKind::kPunct && (t.text == "{" || t.text == "}")) {
      ++braces;
    }
  }
  EXPECT_EQ(braces, 0u);
}

TEST(AnalyzeTokenizer, LineContinuationExtendsLineComment) {
  // The backslash splices the next physical line into the comment: `int
  // hidden` is commentary, not code.
  const std::string source =
      "int a; // comment \\\n"
      "int hidden = 1;\n"
      "int visible = 2;\n";
  const StripResult sr = strip_source(source);
  EXPECT_EQ(sr.code.find("hidden"), std::string::npos);
  EXPECT_NE(sr.code.find("visible"), std::string::npos);
  // Geometry still holds: 'visible' tokenizes on line 3.
  for (const auto& t : tokenize(source)) {
    if (t.text == "visible") {
      EXPECT_EQ(t.line, 3u);
    }
  }
}

// ---- tokenizer: token stream ----------------------------------------------

TEST(AnalyzeTokenizer, RawStringBodyAndLineNumbersSurvive) {
  const std::string source =
      "const char* r = R\"delim(line one\n"
      "line two)delim\";\n"
      "int after = 3;\n";
  const auto tokens = tokenize(source);
  bool saw_string = false;
  for (const auto& t : tokens) {
    if (t.kind == TokenKind::kString) {
      saw_string = true;
      EXPECT_NE(t.text.find("line one"), std::string::npos);
      EXPECT_NE(t.text.find("line two"), std::string::npos);
    }
    if (t.text == "after") {
      EXPECT_EQ(t.line, 3u);
    }
  }
  EXPECT_TRUE(saw_string);
}

TEST(AnalyzeTokenizer, StringBodiesRecoveredWithEscapes) {
  const std::string source = "const char* s = \"a\\\"b\";\nint next = 1;\n";
  const auto tokens = tokenize(source);
  bool found = false;
  for (const auto& t : tokens) {
    if (t.kind == TokenKind::kString) {
      found = true;
      EXPECT_EQ(t.text, "a\\\"b");  // raw bytes, escape intact
    }
    if (t.text == "next") {
      EXPECT_EQ(t.line, 2u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(AnalyzeTokenizer, DigitSeparatorsDoNotOpenCharLiterals) {
  const auto tokens = tokenize("int big = 1'000'000; int after = 2;\n");
  bool saw_number = false;
  bool saw_after = false;
  for (const auto& t : tokens) {
    if (t.kind == TokenKind::kNumber && t.text == "1'000'000") {
      saw_number = true;
    }
    if (t.text == "after") saw_after = true;
  }
  EXPECT_TRUE(saw_number);
  EXPECT_TRUE(saw_after);
}

TEST(AnalyzeTokenizer, PreprocessorDirectivesEmitNoTokens) {
  // An unbalanced brace in a macro body must not corrupt scope tracking.
  const std::string source =
      "#define OPEN {\n"
      "#define MULTI(x) \\\n"
      "  do { (x); } while (0)\n"
      "int real = 1;\n";
  const auto tokens = tokenize(source);
  for (const auto& t : tokens) {
    EXPECT_NE(t.text, "OPEN");
    EXPECT_NE(t.text, "MULTI");
  }
  ASSERT_FALSE(tokens.empty());
  EXPECT_EQ(tokens[0].text, "int");
  EXPECT_EQ(tokens[0].line, 4u);
}

TEST(AnalyzeTokenizer, CompoundOperatorsAreSingleTokens) {
  const auto tokens = tokenize("a += b; c <<= d; e == f; g->h; i::j;\n");
  std::vector<std::string> punct;
  for (const auto& t : tokens) {
    if (t.kind == TokenKind::kPunct) punct.push_back(t.text);
  }
  EXPECT_NE(std::find(punct.begin(), punct.end(), "+="), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "<<="), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "=="), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "->"), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "::"), punct.end());
  // No bare '=' was minted from the compound forms.
  EXPECT_EQ(std::count(punct.begin(), punct.end(), "="), 0);
}

TEST(AnalyzeTokenizer, IncludeFormsParsed) {
  const std::string source =
      "#include <vector>\n"
      "#include \"gp/kernel.hpp\"\n"
      "#include MACRO_HEADER\n"
      "// #include \"commented/out.hpp\"\n"
      "const char* fake = \"#include \\\"literal.hpp\\\"\";\n";
  const auto incs = parse_includes(source);
  ASSERT_EQ(incs.size(), 3u);
  EXPECT_EQ(incs[0].target, "vector");
  EXPECT_TRUE(incs[0].angled);
  EXPECT_EQ(incs[1].target, "gp/kernel.hpp");
  EXPECT_FALSE(incs[1].angled);
  EXPECT_EQ(incs[1].line, 2u);
  EXPECT_TRUE(incs[2].computed);
  EXPECT_EQ(incs[2].target, "MACRO_HEADER");
}

// ---- index ----------------------------------------------------------------

TEST(AnalyzeIndex, MembersAndFunctionsIndexed) {
  const std::string source =
      "namespace pamo {\n"
      "class Widget {\n"
      " public:\n"
      "  void poke();\n"
      "  int size() const { return count_; }\n"
      " private:\n"
      "  int count_ = 0;\n"
      "  std::vector<double> data_;\n"
      "};\n"
      "void Widget::poke() { ++count_; }\n"
      "namespace { void helper() { } }\n"
      "}\n";
  const FileIndex fi = index_file("src/core/widget.cpp", source);
  ASSERT_EQ(fi.types.size(), 1u);
  const TypeDecl& w = fi.types[0];
  EXPECT_EQ(w.name, "Widget");
  ASSERT_EQ(w.members.size(), 2u);
  EXPECT_EQ(w.members[0].name, "count_");
  EXPECT_EQ(w.members[0].line, 7u);
  EXPECT_EQ(w.members[1].name, "data_");
  EXPECT_NE(std::find(w.public_methods.begin(), w.public_methods.end(),
                      "poke"),
            w.public_methods.end());
  bool saw_poke_def = false;
  bool helper_internal = false;
  for (const auto& fd : fi.functions) {
    if (fd.name == "poke" && fd.qualifier == "Widget") saw_poke_def = true;
    if (fd.name == "helper") helper_internal = fd.internal;
  }
  EXPECT_TRUE(saw_poke_def);
  EXPECT_TRUE(helper_internal);
}

TEST(AnalyzeIndex, DirectivesParsedFromCommentsOnly) {
  const std::string source =
      "// pamo-analyze: allow(layer-dag)\n"
      "// pamo-analyze: snapshot(Widget, Gadget)\n"
      "const char* s = \"pamo-analyze: allow(contract-coverage)\";\n";
  const FileIndex fi = index_file("src/core/d.cpp", source);
  ASSERT_EQ(fi.allows.count(1), 1u);
  EXPECT_EQ(fi.allows.at(1), std::vector<std::string>{"layer-dag"});
  ASSERT_EQ(fi.snapshot_annotations.count(2), 1u);
  EXPECT_EQ(fi.snapshot_annotations.at(2),
            (std::vector<std::string>{"Widget", "Gadget"}));
  // The directive inside the string literal is inert.
  EXPECT_EQ(fi.allows.count(3), 0u);
}

// ---- snapshot-coverage ----------------------------------------------------

const char* const kSnapshotHeader =
    "#pragma once\n"
    "struct Counter {\n"
    "  double kept_ = 0.0;\n"
    "  double dropped_ = 0.0;\n"
    "};\n";

TEST(AnalyzeSnapshot, OmittedMemberIsCaught) {
  const std::string codec =
      "// pamo-analyze: snapshot(Counter)\n"
      "Value counter_to_json(const Counter& c) {\n"
      "  Value obj = Value::object();\n"
      "  obj.set(\"kept\", Value(c.kept_));\n"
      "  return obj;\n"
      "}\n"
      "// pamo-analyze: snapshot(Counter)\n"
      "Counter counter_from_json(const Value& v) {\n"
      "  Counter c;\n"
      "  c.kept_ = v.at(\"kept\").as_double();\n"
      "  return c;\n"
      "}\n";
  const auto findings = analyze_tree(
      {{"src/eva/counter.hpp", kSnapshotHeader}, {"src/eva/codec.cpp", codec}});
  ASSERT_EQ(count_rule(findings, "snapshot-coverage"), 1u);
  EXPECT_EQ(findings[0].file, "src/eva/counter.hpp");
  EXPECT_EQ(findings[0].line, 4u);  // dropped_'s declaration line
  EXPECT_NE(findings[0].message.find("dropped_"), std::string::npos);
}

TEST(AnalyzeSnapshot, CompletePairIsQuiet) {
  const std::string codec =
      "// pamo-analyze: snapshot(Counter)\n"
      "Value counter_to_json(const Counter& c) {\n"
      "  Value obj = Value::object();\n"
      "  obj.set(\"kept\", Value(c.kept_));\n"
      "  obj.set(\"dropped\", Value(c.dropped_));\n"
      "  return obj;\n"
      "}\n"
      "// pamo-analyze: snapshot(Counter)\n"
      "Counter counter_from_json(const Value& v) {\n"
      "  Counter c;\n"
      "  c.kept_ = v.at(\"kept\").as_double();\n"
      "  c.dropped_ = v.at(\"dropped\").as_double();\n"
      "  return c;\n"
      "}\n";
  const auto findings = analyze_tree(
      {{"src/eva/counter.hpp", kSnapshotHeader}, {"src/eva/codec.cpp", codec}});
  EXPECT_FALSE(has_rule(findings, "snapshot-coverage"));
}

TEST(AnalyzeSnapshot, KeyAsymmetryCaughtBothWays) {
  const std::string codec =
      "// pamo-analyze: snapshot(Counter)\n"
      "Value counter_to_json(const Counter& c) {\n"
      "  Value obj = Value::object();\n"
      "  obj.set(\"kept\", Value(c.kept_));\n"
      "  obj.set(\"dropped\", Value(c.dropped_));\n"
      "  obj.set(\"orphan\", Value(1.0));\n"
      "  return obj;\n"
      "}\n"
      "// pamo-analyze: snapshot(Counter)\n"
      "Counter counter_from_json(const Value& v) {\n"
      "  Counter c;\n"
      "  c.kept_ = v.at(\"kept\").as_double();\n"
      "  c.dropped_ = v.at(\"dropped\").as_double();\n"
      "  double ghost = v.at(\"missing\").as_double();\n"
      "  (void)ghost;\n"
      "  return c;\n"
      "}\n";
  const auto findings = analyze_tree(
      {{"src/eva/counter.hpp", kSnapshotHeader}, {"src/eva/codec.cpp", codec}});
  ASSERT_EQ(count_rule(findings, "snapshot-coverage"), 2u);
  bool orphan = false;
  bool missing = false;
  for (const auto& f : findings) {
    if (f.message.find("\"orphan\"") != std::string::npos) orphan = true;
    if (f.message.find("\"missing\"") != std::string::npos) missing = true;
  }
  EXPECT_TRUE(orphan);
  EXPECT_TRUE(missing);
}

TEST(AnalyzeSnapshot, FindReadsAreOptionalNotAsymmetric) {
  // Backward-compatible keys read via find() need no matching write.
  const std::string codec =
      "// pamo-analyze: snapshot(Counter)\n"
      "Value counter_to_json(const Counter& c) {\n"
      "  Value obj = Value::object();\n"
      "  obj.set(\"kept\", Value(c.kept_));\n"
      "  obj.set(\"dropped\", Value(c.dropped_));\n"
      "  return obj;\n"
      "}\n"
      "// pamo-analyze: snapshot(Counter)\n"
      "Counter counter_from_json(const Value& v) {\n"
      "  Counter c;\n"
      "  c.kept_ = v.at(\"kept\").as_double();\n"
      "  c.dropped_ = v.at(\"dropped\").as_double();\n"
      "  if (const Value* lenient = v.find(\"added_in_v2\")) {\n"
      "    c.kept_ += lenient->as_double();\n"
      "  }\n"
      "  return c;\n"
      "}\n";
  const auto findings = analyze_tree(
      {{"src/eva/counter.hpp", kSnapshotHeader}, {"src/eva/codec.cpp", codec}});
  EXPECT_FALSE(has_rule(findings, "snapshot-coverage"));
}

TEST(AnalyzeSnapshot, MemberAllowSuppressesAtDeclaration) {
  const std::string header =
      "#pragma once\n"
      "struct Counter {\n"
      "  double kept_ = 0.0;\n"
      "  // scratch, rebuilt on demand. pamo-analyze: allow(snapshot-coverage)\n"
      "  double dropped_ = 0.0;\n"
      "};\n";
  const std::string codec =
      "// pamo-analyze: snapshot(Counter)\n"
      "Value counter_to_json(const Counter& c) {\n"
      "  Value obj = Value::object();\n"
      "  obj.set(\"kept\", Value(c.kept_));\n"
      "  return obj;\n"
      "}\n"
      "// pamo-analyze: snapshot(Counter)\n"
      "Counter counter_from_json(const Value& v) {\n"
      "  Counter c;\n"
      "  c.kept_ = v.at(\"kept\").as_double();\n"
      "  return c;\n"
      "}\n";
  const auto quiet = analyze_tree(
      {{"src/eva/counter.hpp", header}, {"src/eva/codec.cpp", codec}});
  EXPECT_FALSE(has_rule(quiet, "snapshot-coverage"));
  Options keep;
  keep.include_suppressed = true;
  const auto all = analyze_tree(
      {{"src/eva/counter.hpp", header}, {"src/eva/codec.cpp", codec}}, keep);
  ASSERT_EQ(count_rule(all, "snapshot-coverage"), 1u);
  EXPECT_TRUE(all[0].suppressed);
}

TEST(AnalyzeSnapshot, UnknownTypeAndOneSidedAnnotationFlagged) {
  const std::string one_sided =
      "// pamo-analyze: snapshot(Nowhere)\n"
      "Value nowhere_to_json() { return Value(); }\n"
      "// pamo-analyze: snapshot(Counter)\n"
      "Value counter_to_json(const Counter& c) {\n"
      "  Value obj = Value::object();\n"
      "  obj.set(\"kept\", Value(c.kept_));\n"
      "  obj.set(\"dropped\", Value(c.dropped_));\n"
      "  return obj;\n"
      "}\n";
  const auto findings =
      analyze_tree({{"src/eva/counter.hpp", kSnapshotHeader},
                    {"src/eva/codec.cpp", one_sided}});
  ASSERT_EQ(count_rule(findings, "snapshot-coverage"), 2u);
  bool unknown = false;
  bool one_side = false;
  for (const auto& f : findings) {
    if (f.message.find("Nowhere") != std::string::npos) unknown = true;
    if (f.message.find("only the") != std::string::npos) one_side = true;
  }
  EXPECT_TRUE(unknown);
  EXPECT_TRUE(one_side);
}

// ---- layer-dag ------------------------------------------------------------

TEST(AnalyzeLayers, UpwardIncludeIsCaught) {
  const auto findings = analyze_tree(
      {{"src/la/matrix.hpp", "#pragma once\n#include \"core/service.hpp\"\n"},
       {"src/core/service.hpp", "#pragma once\n"}});
  ASSERT_EQ(count_rule(findings, "layer-dag"), 1u);
  EXPECT_EQ(findings[0].file, "src/la/matrix.hpp");
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(AnalyzeLayers, LateralSameRankIncludeIsCaught) {
  // obs and la share a rank: neither may include the other.
  const auto findings = analyze_tree(
      {{"src/obs/metrics.hpp", "#include \"la/matrix.hpp\"\n"},
       {"src/la/matrix.hpp", "int x;\n"}});
  EXPECT_EQ(count_rule(findings, "layer-dag"), 1u);
}

TEST(AnalyzeLayers, DownwardIncludesAreQuiet) {
  const auto findings = analyze_tree(
      {{"src/core/service.hpp",
        "#include \"la/matrix.hpp\"\n#include \"gp/kernel.hpp\"\n"},
       {"src/la/matrix.hpp", "int x;\n"},
       {"src/gp/kernel.hpp", "#include \"la/matrix.hpp\"\n"}});
  EXPECT_FALSE(has_rule(findings, "layer-dag"));
}

TEST(AnalyzeLayers, IncludeCycleIsCaught) {
  const auto findings = analyze_tree(
      {{"src/gp/a.hpp", "#pragma once\n#include \"gp/b.hpp\"\n"},
       {"src/gp/b.hpp", "#pragma once\n#include \"gp/a.hpp\"\n"}});
  EXPECT_GE(count_rule(findings, "layer-dag"), 1u);
  for (const auto& f : findings) {
    EXPECT_NE(f.message.find("cycle"), std::string::npos);
  }
}

// ---- contract-coverage ----------------------------------------------------

std::string long_body(const std::string& first_line) {
  std::string body = first_line + "\n";
  for (int i = 0; i < 12; ++i) {
    body += "  x += " + std::to_string(i) + ";\n";
  }
  body += "  return x;\n}\n";
  return body;
}

TEST(AnalyzeContracts, BarePublicFunctionIsCaught) {
  const std::string source =
      long_body("int schedule_all(int x) {");
  const auto findings = analyze_tree({{"src/sched/fix.cpp", source}});
  ASSERT_EQ(count_rule(findings, "contract-coverage"), 1u);
  EXPECT_NE(findings[0].message.find("schedule_all"), std::string::npos);
}

TEST(AnalyzeContracts, ContractMacroSatisfies) {
  const std::string source = long_body(
      "int schedule_all(int x) {\n  PAMO_EXPECTS(x >= 0, \"x\");");
  EXPECT_FALSE(has_rule(analyze_tree({{"src/sched/fix.cpp", source}}),
                        "contract-coverage"));
}

TEST(AnalyzeContracts, InternalAndOutOfScopeFunctionsSkipped) {
  // Anonymous namespace → internal; src/obs → outside the contract dirs.
  const std::string internal_src =
      "namespace {\n" + long_body("int helper(int x) {") + "}\n";
  EXPECT_FALSE(has_rule(analyze_tree({{"src/sched/fix.cpp", internal_src}}),
                        "contract-coverage"));
  EXPECT_FALSE(has_rule(
      analyze_tree({{"src/obs/fix.cpp", long_body("int render(int x) {")}}),
      "contract-coverage"));
}

TEST(AnalyzeContracts, ShortFunctionsSkipped) {
  const std::string source = "int tiny(int x) { return x + 1; }\n";
  EXPECT_FALSE(has_rule(analyze_tree({{"src/sched/fix.cpp", source}}),
                        "contract-coverage"));
}

TEST(AnalyzeContracts, NonPublicMethodSkipped) {
  std::string source =
      "class Planner {\n"
      " public:\n"
      "  void go();\n"
      " private:\n"
      "  int plan(int x);\n"
      "};\n";
  source += long_body("int Planner::plan(int x) {");
  EXPECT_FALSE(has_rule(analyze_tree({{"src/sched/fix.cpp", source}}),
                        "contract-coverage"));
}

// ---- capture-hygiene ------------------------------------------------------

TEST(AnalyzeCaptures, SharedPushBackIsCaught) {
  const std::string source =
      "void collect(std::vector<double>& out) {\n"
      "  parallel_for(100, [&](std::size_t i) {\n"
      "    out.push_back(static_cast<double>(i));\n"
      "  });\n"
      "}\n";
  const auto findings = analyze_tree({{"src/core/fix.cpp", source}});
  ASSERT_EQ(count_rule(findings, "capture-hygiene"), 1u);
  EXPECT_NE(findings[0].message.find("push_back"), std::string::npos);
}

TEST(AnalyzeCaptures, PartitionedWritesAreQuiet) {
  const std::string source =
      "void fill(std::vector<double>& out, la::Matrix& table) {\n"
      "  parallel_for(out.size(), [&](std::size_t i) {\n"
      "    out[i] = 1.0;\n"
      "    for (std::size_t g = 0; g < 4; ++g) {\n"
      "      table(i, g) = static_cast<double>(g);\n"
      "    }\n"
      "  });\n"
      "}\n";
  EXPECT_FALSE(has_rule(analyze_tree({{"src/core/fix.cpp", source}}),
                        "capture-hygiene"));
}

TEST(AnalyzeCaptures, SharedCompoundAssignIsCaught) {
  const std::string source =
      "void sum_up(double& total) {\n"
      "  parallel_for(10, [&](std::size_t i) {\n"
      "    total += static_cast<double>(i);\n"
      "  });\n"
      "}\n";
  EXPECT_EQ(count_rule(analyze_tree({{"src/core/fix.cpp", source}}),
                       "capture-hygiene"),
            1u);
}

TEST(AnalyzeCaptures, WriteThroughNonLocalIndexIsCaught) {
  // The index is itself a shared capture: workers race on out[j].
  const std::string source =
      "void scatter(std::vector<double>& out, std::size_t j) {\n"
      "  parallel_for(10, [&](std::size_t i) {\n"
      "    out[j] = static_cast<double>(i);\n"
      "  });\n"
      "}\n";
  EXPECT_EQ(count_rule(analyze_tree({{"src/core/fix.cpp", source}}),
                       "capture-hygiene"),
            1u);
}

TEST(AnalyzeCaptures, ByValueLambdasAndPlainLoopsAreQuiet) {
  const std::string source =
      "void ok(std::vector<double>& out) {\n"
      "  for (std::size_t i = 0; i < out.size(); ++i) {\n"
      "    out.push_back(1.0);\n"  // not inside a parallel_for lambda
      "  }\n"
      "  parallel_for(10, [](std::size_t i) {\n"
      "    double local = static_cast<double>(i);\n"
      "    local += 1.0;\n"
      "  });\n"
      "}\n";
  EXPECT_FALSE(has_rule(analyze_tree({{"src/core/fix.cpp", source}}),
                        "capture-hygiene"));
}

// ---- engine surface -------------------------------------------------------

TEST(AnalyzeEngine, RuleListIsStable) {
  // Report order is a stable API: the per-file rules, then the tree
  // analyses, each family appended to at its end.
  const std::vector<std::string> expected = {
      "determinism-rng",      "time-seeded-rng",   "unordered-iter",
      "throw-discipline",     "catch-all-swallow", "float-eq",
      "unchecked-front-back", "pragma-once",       "using-namespace-header",
      "raw-thread",           "wall-clock",        "unchecked-file-write",
      "governor-action",      "snapshot-coverage", "layer-dag",
      "contract-coverage",    "capture-hygiene",
  };
  EXPECT_EQ(rule_ids(), expected);
}

TEST(AnalyzeEngine, AllowOnLineOrAboveSuppresses) {
  const std::string above =
      "// pamo-analyze: allow(layer-dag)\n"
      "#include \"core/service.hpp\"\n";
  const std::string same_line =
      "#include \"core/service.hpp\"  // pamo-analyze: allow(layer-dag)\n";
  const std::vector<SourceFile> core = {
      {"src/core/service.hpp", "int x;\n"}};
  for (const std::string& src : {above, same_line}) {
    auto files = core;
    files.push_back({"src/la/matrix.hpp", src});
    EXPECT_FALSE(has_rule(analyze_tree(files), "layer-dag"));
    Options keep;
    keep.include_suppressed = true;
    const auto all = analyze_tree(files, keep);
    ASSERT_EQ(count_rule(all, "layer-dag"), 1u);
    for (const auto& f : all) {
      if (f.rule == "layer-dag") {
        EXPECT_TRUE(f.suppressed);
      }
    }
  }
}

TEST(AnalyzeEngine, OneTagSilencesBothFamilies) {
  // One line holds a per-file hit (float-eq) and a tree hit
  // (capture-hygiene); one allow on the line above silences both.
  const auto fixture = [](const std::string& allow) {
    return "void sum_up(double& total, const std::vector<double>& v) {\n"
           "  parallel_for(v.size(), [&](std::size_t i) {\n" +
           allow +
           "    total += v[i] == 0.0 ? 1.0 : 0.0;\n"
           "  });\n"
           "}\n";
  };
  const auto run = [&](const std::string& allow, const Options& options) {
    return analyze_tree({{"src/core/fix.cpp", fixture(allow)}}, options);
  };
  const auto bare = run("", {});
  ASSERT_EQ(bare.size(), 2u);
  EXPECT_EQ(count_rule(bare, "float-eq"), 1u);
  EXPECT_EQ(count_rule(bare, "capture-hygiene"), 1u);

  const std::string allow =
      "    // pamo-analyze: allow(float-eq, capture-hygiene)\n";
  EXPECT_TRUE(run(allow, {}).empty());
  Options keep;
  keep.include_suppressed = true;
  const auto marked = run(allow, keep);
  ASSERT_EQ(marked.size(), 2u);
  for (const auto& f : marked) EXPECT_TRUE(f.suppressed) << f.rule;

  // The retired per-file tag is not a second spelling: it silences nothing.
  const std::string retired =
      "    // pamo-" "lint: allow(float-eq, capture-hygiene)\n";
  const auto unsilenced = run(retired, {});
  ASSERT_EQ(unsilenced.size(), 2u);
  for (const auto& f : unsilenced) EXPECT_FALSE(f.suppressed) << f.rule;
}

TEST(AnalyzeEngine, CheckoutLocationDoesNotChangeFindings) {
  // A checkout under a directory named src/ (/home/u/src/pamo): every
  // absolute path contains "src/", but rules read the scope, the path
  // below the root's parent, so both trees give the same findings.
  const std::vector<SourceFile> tree = {
      // Fodder for src/-only per-file rules; quiet under tests/.
      {"tests/x.cpp",
       "#include <thread>\n"
       "void f() { throw std::runtime_error(\"x\"); }\n"
       "bool g(double x) { return x == 0.0; }\n"
       "void h() { std::thread t([] {}); t.join(); }\n"},
      // One upward include: the only finding either way.
      {"src/la/m.cpp", "#include \"core/s.hpp\"\n"},
      {"src/core/s.hpp", "#pragma once\n"},
  };
  const std::string checkout = "/home/u/src/pamo/";
  std::vector<SourceFile> moved;
  for (const auto& f : tree) {
    const std::string top = f.path.substr(0, f.path.find('/'));
    const std::string path = checkout + f.path;
    moved.push_back({path, f.content, scope_path(checkout + top, path)});
    EXPECT_EQ(moved.back().scope, f.path);
  }
  EXPECT_EQ(scope_path(checkout + "tests/", checkout + "tests/x.cpp"),
            "tests/x.cpp");

  const auto here = analyze_tree(tree);
  const auto there = analyze_tree(moved);
  ASSERT_EQ(here.size(), 1u);
  EXPECT_EQ(here[0].rule, "layer-dag");
  ASSERT_EQ(there.size(), here.size());
  for (std::size_t i = 0; i < here.size(); ++i) {
    EXPECT_EQ(there[i].file, checkout + here[i].file);
    EXPECT_EQ(there[i].line, here[i].line);
    EXPECT_EQ(there[i].rule, here[i].rule);
    EXPECT_EQ(there[i].message, here[i].message);
  }
}

TEST(AnalyzeEngine, ReportFormats) {
  // One report carries both families: a tree finding (layer-dag) and a
  // per-file one (float-eq).
  const auto findings = analyze_tree(
      {{"src/la/matrix.cpp",
        "#include \"core/service.hpp\"\n"
        "bool f(double x) { return x == 0.0; }\n"},
       {"src/core/service.hpp", "#pragma once\n"}});
  ASSERT_EQ(findings.size(), 2u);
  const std::string text = to_text(findings);
  EXPECT_NE(text.find("src/la/matrix.cpp:1: [layer-dag]"), std::string::npos);
  EXPECT_NE(text.find("src/la/matrix.cpp:2: [float-eq]"), std::string::npos);
  const std::string json = to_json(findings);
  EXPECT_NE(json.find("\"rule\":\"layer-dag\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"float-eq\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":2"), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  // Exact bytes: fixed key order, compact form.
  EXPECT_EQ(to_json({}), "{\"findings\":[],\"count\":0}");
  EXPECT_EQ(to_json({Finding{"a.cpp", 3, "float-eq", "say \"hi\"\tnow", true}}),
            "{\"findings\":[{\"file\":\"a.cpp\",\"line\":3,"
            "\"rule\":\"float-eq\",\"message\":\"say \\\"hi\\\"\\tnow\","
            "\"suppressed\":true}],\"count\":1}");
}

TEST(AnalyzeEngine, JsonReportRoundTripsControlCharacters) {
  const Finding f{"dir\r/a\x01.cpp", 7, "float-eq", "a\rb\x01" "c", false};
  const auto report = obs::json::Value::parse(to_json({f}));
  ASSERT_EQ(report.at("count").as_uint(), 1u);
  const auto& entry = report.at("findings").items().at(0);
  EXPECT_EQ(entry.at("file").as_string(), f.file);
  EXPECT_EQ(entry.at("line").as_uint(), 7u);
  EXPECT_EQ(entry.at("rule").as_string(), f.rule);
  EXPECT_EQ(entry.at("message").as_string(), f.message);
  EXPECT_FALSE(entry.at("suppressed").as_bool());
}

TEST(AnalyzeEngine, FindingsSortedByFileThenLine) {
  const auto findings = analyze_tree(
      {{"src/la/zzz.cpp", "#include \"core/b.hpp\"\n"},
       {"src/la/aaa.cpp", "int y;\n#include \"core/b.hpp\"\n"},
       {"src/core/b.hpp", "#pragma once\n"}});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/la/aaa.cpp");
  EXPECT_EQ(findings[1].file, "src/la/zzz.cpp");
}

}  // namespace
}  // namespace pamo::analyze
