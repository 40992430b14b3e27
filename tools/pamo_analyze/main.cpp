// pamo_analyze CLI — run every rule (the per-file rules and the cross-file
// analyses) over the C++ sources under the given roots as one tree, print
// findings, exit 1 when any unsuppressed finding remains and 2 on a usage
// error, a missing root, or an unreadable file.
//
// Usage: pamo_analyze [--format=text|json] [--include-suppressed]
//                     [--list-rules] <root>...
//
// Roots are top-level directories of a checkout (src tests bench examples
// tools). Path-scoped rules read each file's path below its root's parent,
// so `pamo_analyze src` and `pamo_analyze /any/where/src` agree.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "pamo_analyze/analyze.hpp"

namespace {

namespace fs = std::filesystem;

bool analyzable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  pamo::analyze::Options options;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json") {
        std::cerr << "pamo_analyze: unknown format '" << format << "'\n";
        return 2;
      }
    } else if (arg == "--include-suppressed") {
      options.include_suppressed = true;
    } else if (arg == "--list-rules") {
      for (const auto& id : pamo::analyze::rule_ids()) std::cout << id << '\n';
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: pamo_analyze [--format=text|json] "
                   "[--include-suppressed] [--list-rules] <root>...\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "pamo_analyze: unknown option '" << arg << "'\n";
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::cerr << "pamo_analyze: no inputs (try --help)\n";
    return 2;
  }

  std::vector<pamo::analyze::SourceFile> sources;
  for (const auto& root : inputs) {
    std::vector<std::string> found;
    if (fs::is_directory(root)) {
      for (const auto& entry : fs::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() && analyzable(entry.path())) {
          found.push_back(entry.path().generic_string());
        }
      }
    } else if (fs::is_regular_file(root)) {
      found.push_back(fs::path(root).generic_string());
    } else {
      // A mistyped root would otherwise check nothing and pass the gate.
      std::cerr << "pamo_analyze: no such file or directory: " << root << '\n';
      return 2;
    }
    for (auto& file : found) {
      std::string scope = pamo::analyze::scope_path(root, file);
      sources.push_back({std::move(file), {}, std::move(scope)});
    }
  }
  std::sort(sources.begin(), sources.end(),  // deterministic report order
            [](const auto& a, const auto& b) { return a.path < b.path; });
  for (auto& source : sources) {
    std::ifstream in(source.path, std::ios::binary);
    if (!in) {
      std::cerr << "pamo_analyze: cannot read " << source.path << '\n';
      return 2;
    }
    std::ostringstream content;
    content << in.rdbuf();
    source.content = content.str();
  }

  const auto all = pamo::analyze::analyze_tree(sources, options);
  if (format == "json") {
    std::cout << pamo::analyze::to_json(all) << '\n';
  } else {
    std::cout << pamo::analyze::to_text(all);
  }
  const auto unsuppressed = std::count_if(
      all.begin(), all.end(),
      [](const pamo::analyze::Finding& f) { return !f.suppressed; });
  if (format == "text") {
    std::cout << unsuppressed << " finding(s)\n";
  }
  return unsuppressed == 0 ? 0 : 1;
}
