// Shared lossless C++ tokenizer for PaMO's repo-native static analyses.
//
// One comment/string stripping implementation serves both of pamo_analyze's
// rule families (per-file regex rules and whole-tree semantic passes). The
// contract is geometric: every transformation preserves line and column
// positions exactly, so a finding computed on the stripped text maps 1:1
// onto the raw source.
//
// Three views of a translation unit:
//   strip_source    two parallel strings the same shape as the input — `code`
//                   with comments and literal bodies blanked (quote characters
//                   kept as anchors), and `comments` with everything *except*
//                   comment text blanked. Suppression and annotation comments
//                   are parsed from the `comments` channel only, which is what
//                   makes directives inside string literals inert.
//   tokenize        a flat token stream (identifiers, numbers, punctuators,
//                   string/char literals with their raw bodies), each tagged
//                   with its 1-based source line. Comments are skipped;
//                   preprocessor directives are consumed as opaque logical
//                   lines so unbalanced braces in macro bodies cannot corrupt
//                   scope tracking downstream.
//   parse_includes  every #include directive with its target, quoting form
//                   (<...> vs "..."), and computed-macro includes flagged.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pamo::analyze {

struct StripResult {
  /// Comments and literal bodies blanked to spaces; newlines, quote anchors,
  /// and all code characters kept, so line/column geometry survives.
  std::string code;
  /// The complement: only comment text (including the // and /* markers)
  /// survives; code, strings, and chars are blanked. Same geometry.
  std::string comments;
};

StripResult strip_source(const std::string& content);

enum class TokenKind {
  kIdentifier,
  kNumber,
  kString,   // text = raw literal body, without quotes or raw-string delims
  kCharLit,  // text = raw literal body, without quotes
  kPunct,    // text = the punctuator, multi-character operators combined
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string text;
  std::size_t line = 0;  // 1-based
};

/// Tokenize raw source. Comments vanish; preprocessor directives (including
/// their backslash-continuation lines) are consumed without emitting tokens.
std::vector<Token> tokenize(const std::string& content);

struct IncludeDirective {
  std::string target;    // path without delimiters; empty when computed
  bool angled = false;   // #include <...>
  bool computed = false; // #include MACRO — target is the macro spelling
  std::size_t line = 0;  // 1-based
};

/// Every #include in the file, in source order. Directives inside comments
/// or string literals are not includes and are not reported.
std::vector<IncludeDirective> parse_includes(const std::string& content);

/// True for identifier characters ([A-Za-z0-9_]).
bool is_word_char(char c);

}  // namespace pamo::analyze
