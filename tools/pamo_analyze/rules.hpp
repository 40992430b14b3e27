// The per-file rules (rules.cpp): analyze_tree's first pass.
#pragma once

#include <string>
#include <vector>

#include "pamo_analyze/analyze.hpp"

namespace pamo::analyze {

/// Run the per-file rules over one file's code channel
/// (strip_source(...).code), appending findings to `out` unsuppressed.
void check_file(const std::string& path, const Scope& scope,
                const std::string& code, std::vector<Finding>& out);

}  // namespace pamo::analyze
