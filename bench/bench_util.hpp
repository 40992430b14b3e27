// Shared helpers for the figure-reproduction benches.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "baselines/fact.hpp"
#include "baselines/jcab.hpp"
#include "core/evaluation.hpp"
#include "common/table.hpp"
#include "core/pamo.hpp"
#include "obs/json.hpp"

namespace pamo::bench {

/// PAMO_BENCH_FAST=1 trims repetition counts so the whole harness runs in
/// seconds (useful during development); default is the full protocol.
bool fast_mode();

/// When PAMO_BENCH_CSV_DIR is set, write the table to
/// $PAMO_BENCH_CSV_DIR/<name>.csv (for plotting); otherwise do nothing.
void maybe_export_csv(const TablePrinter& table, const std::string& name);

/// Repetitions per configuration (the paper uses 3).
std::size_t repetitions();

/// Steady-clock milliseconds; only differences are meaningful.
double now_ms();

/// Parse a committed baseline report (the JSON a bench wrote with --out).
/// Throws pamo::Error when the file cannot be read or is not valid JSON.
/// Callers pull values out with json::Value::at(), which also throws on a
/// missing key, so one catch covers every way a baseline can be unusable.
obs::json::Value read_baseline(const std::string& path);

enum class Method { kJcab, kFact, kPamo, kPamoPlus };

const char* method_name(Method method);

/// PaMO options used across all benches (the "evaluation" preset).
core::PamoOptions pamo_preset(std::uint64_t seed, bool true_preference,
                              double delta = 0.02);

struct MethodRun {
  bool feasible = false;
  eva::JointConfig config;
  core::SolutionScore score;   // valid when feasible
  std::size_t iterations = 0;
};

/// Run one method on a workload under the given true preference weights
/// and score it on ground truth. Baseline weights mirror the preference on
/// the objectives each baseline optimizes (the §5.2 protocol: "the weights
/// of the corresponding metrics ... are adjusted accordingly").
MethodRun run_method(Method method, const eva::Workload& workload,
                     const std::array<double, eva::kNumObjectives>& weights,
                     std::uint64_t seed, double delta = 0.02,
                     bo::AcquisitionType acquisition =
                         bo::AcquisitionType::kQNEI);

}  // namespace pamo::bench
