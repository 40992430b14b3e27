// Service-epoch benchmark: drives core::SchedulingService::run_epoch epoch
// after epoch on one seeded workload, the way a deployment's operator loop
// does (a closed loop with one caller: the next epoch starts when the
// previous one returns), checks every decision, and prints the end-to-end
// metrics (--trace 0) or the per-layer split of a traced run (--trace 1).
//
//   epoch_bench --workload flat_cold|fleet_cold|churn_faults_warm
//               --seed N --seconds S --trace 0|1
//               [--commit ID] [--source-digest HEX]
//
// One *lineage* is a freshly set-up service on a workload generated from a
// lineage seed (derived from --seed), run for a fixed number of epochs. An
// untraced run is one pass over round(--seconds / lineage cost) lineages,
// so its work and sample counts depend only on the arguments; pooling many
// workloads per run keeps the figures steady from seed to seed. Every
// decision is a pure function of --seed, which the runs check through
// core::digest_epoch across tracing and worker counts. The last stdout
// line is one JSON object {"correct", "attempted", "failed", "metrics"};
// the line before it is the full record (run identity, every metric, the
// tail percentile chosen). A correctness violation prints a diagnosis to
// stderr and exits 3 with no metrics.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/ticks.hpp"
#include "core/evaluation.hpp"
#include "core/governor.hpp"
#include "core/pareto.hpp"
#include "core/report_digest.hpp"
#include "core/service.hpp"
#include "eva/churn.hpp"
#include "eva/outcomes.hpp"
#include "eva/workload.hpp"
#include "obs/obs.hpp"
#include "pref/learner.hpp"
#include "pref/oracle.hpp"
#include "sched/constraints.hpp"
#include "sched/stream.hpp"
#include "sim/fault.hpp"
#include "stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace pamo;
using perfbench::EpochReport;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A benchmark check failed: the program produced a wrong or inconsistent
/// answer. Reported as a violation, never as a number.
struct Violation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw Violation(what);
}

/// splitmix64 finalizer: decorrelated lineage/plan seeds from one --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t lane) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + lane + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---- Workloads ---------------------------------------------------------------

/// One set-up service and everything it was given. The learner (fleet
/// only) is owned here because the service options hold a raw pointer.
struct Lineage {
  eva::Workload base;
  eva::ChurnPlan churn;
  std::unique_ptr<pref::PreferenceLearner> learner;
  pref::PreferenceOracle oracle{pref::BenefitFunction::uniform()};
  std::unique_ptr<core::SchedulingService> service;
  /// Replays the service's admission decisions so the benchmark can score
  /// each decision against the workload that epoch actually scheduled.
  core::AdmissionGovernor mirror;
  /// Normalizer of the scheduled workload when it never changes (no churn).
  std::optional<eva::OutcomeNormalizer> normalizer;
};

struct WorkloadSpec {
  const char* name;
  std::size_t workers;  // pinned ThreadPool size of the timed loop
  std::size_t epochs;   // per lineage
  /// Nominal wall-clock of one lineage at `workers` on the reference host
  /// (4-core, Release). An untraced run sets up round(--seconds / this)
  /// lineages, so the amount of work — and every sample count — is a pure
  /// function of the arguments, never of the host's speed.
  double lineage_seconds;
  /// Exponent of the host-speed correction (see host_calibration_ms): the
  /// share of the epoch's slowdown the probe's slowdown predicts. Fitted on
  /// the reference host over ten-run sets under moderate and heavy
  /// contention; the fleet epoch is nearly all fan-out, like the probe.
  double probe_exponent;
  std::size_t traced_lineages;  // lineages of the traced run
  std::size_t replay_epochs;    // traced 1-worker replay in untraced runs
  std::unique_ptr<Lineage> (*make)(std::uint64_t seed, std::size_t epochs);
};

/// The paper's four-Jetson testbed shape under default ServiceOptions: the
/// operator interview in epoch 0, a learned preference, cold MLE every
/// epoch, the flat path, no faults.
std::unique_ptr<Lineage> make_flat_cold(std::uint64_t seed, std::size_t) {
  auto l = std::make_unique<Lineage>();
  l->base = eva::make_workload(12, 4, seed);
  l->normalizer = eva::OutcomeNormalizer::for_workload(l->base);
  l->service =
      std::make_unique<core::SchedulingService>(l->base, core::ServiceOptions{});
  return l;
}

/// 1000 streams on 100 servers through the hierarchical (sharded) path with
/// per-shard MLE on and a learned preference frozen before epoch 0. The
/// learner is anchored on a paper-scale workload (anchoring on the fleet
/// itself finds no feasible samples) exactly the way the service anchors
/// its own, trained against the oracle, and shared read-only by every shard.
std::unique_ptr<Lineage> make_fleet_cold(std::uint64_t seed, std::size_t) {
  auto l = std::make_unique<Lineage>();
  l->base = eva::make_fleet_workload(1000, 100, seed);
  l->normalizer = eva::OutcomeNormalizer::for_workload(l->base);
  core::ServiceOptions options;
  const eva::Workload anchor = eva::make_workload(12, 4, seed);
  const auto samples = core::sample_outcome_space(
      anchor, options.pref_pool_size, options.seed + 0xB00);
  require(samples.size() >= 2, "fleet_cold: preference anchor has no pool");
  std::vector<std::vector<double>> pool;
  pool.reserve(samples.size());
  for (const auto& s : samples) {
    pool.emplace_back(s.normalized.begin(), s.normalized.end());
  }
  l->learner = std::make_unique<pref::PreferenceLearner>(
      std::move(pool), options.initial.pref_learner, options.seed + 0xB01);
  l->learner->run(l->oracle, options.initial_comparisons);
  options.fleet.enabled = true;
  options.fleet.pamo.use_true_preference = false;
  options.fleet.pamo.learn_in_loop = false;
  options.fleet.pamo.shared_learner = l->learner.get();
  l->service = std::make_unique<core::SchedulingService>(l->base, options);
  return l;
}

/// Continual operation of a small cluster: warm-started outcome models, the
/// admission governor, stream churn (arrivals, geometric lifetimes, a
/// diurnal wave, content drift) over the whole run, and a fault plan with
/// one crash, one uplink collapse, one straggler and 2% frame loss under a
/// latency SLO — the only workload that exercises repair.
std::unique_ptr<Lineage> make_churn_faults_warm(std::uint64_t seed,
                                                std::size_t epochs) {
  auto l = std::make_unique<Lineage>();
  l->base = eva::make_workload(8, 4, seed);
  eva::ChurnOptions churn;
  churn.arrival_rate = 0.5;
  churn.mean_lifetime_epochs = 4.0;
  churn.diurnal_amplitude = 0.25;
  churn.diurnal_period = 8;
  churn.drift_per_epoch = 0.04;
  churn.horizon = epochs;
  churn.seed = derive_seed(seed, 1);
  churn.drift_seed = derive_seed(seed, 2);
  churn.clip_seed = derive_seed(seed, 3);
  l->churn = eva::ChurnPlan(churn);

  const std::size_t servers = l->base.num_servers();
  const std::size_t crashed = seed % servers;
  sim::FaultPlan faults;
  faults.kill_server(crashed, 2.0)
      .collapse_uplink((crashed + 1) % servers, 1.0, 0.3)
      .slow_server((crashed + 2) % servers, 0.5, 2.0)
      .drop_frames(0.02, derive_seed(seed, 4));

  core::ServiceOptions options;
  options.continual.warm_start = true;
  options.governor.enabled = true;
  options.resilience.slo_latency = 0.5;
  l->mirror = core::AdmissionGovernor(options.governor);
  l->service = std::make_unique<core::SchedulingService>(l->base, options);
  l->service->set_churn_plan(l->churn);
  l->service->set_fault_plan(faults);
  return l;
}

const WorkloadSpec kWorkloads[] = {
    {"flat_cold", 2, 8, 0.5, 0.75, 3, 2, make_flat_cold},
    {"fleet_cold", 2, 8, 3.2, 1.0, 1, 2, make_fleet_cold},
    {"churn_faults_warm", 2, 10, 0.56, 0.75, 3, 3, make_churn_faults_warm},
};

std::size_t lineages_for(const WorkloadSpec& spec, double seconds) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::llround(seconds / spec.lineage_seconds)));
}

// ---- Checks and scoring ------------------------------------------------------

/// The workload epoch `epoch` of lineage `l` scheduled: the base, or under
/// churn the plan's offered view narrowed to what the governor admitted.
/// Must be called once per epoch, in order (the mirror governor is
/// stateful). Also checks the admission accounting.
const eva::Workload& scheduled_workload(Lineage& l, const EpochReport& r,
                                        std::optional<eva::Workload>& holder) {
  const auto& c = r.churn;
  require(c.admitted + c.deferred + c.shed == c.offered,
          "admitted + deferred + shed != offered");
  if (!l.churn.enabled()) {
    require(c.offered == l.base.num_streams(), "offered != base streams");
    return l.base;
  }
  holder = l.churn.offered_workload(l.base, r.epoch);
  const core::GovernorPlan plan = l.mirror.plan_epoch(r.epoch, *holder);
  require(plan.offered == c.offered && plan.admitted_count == c.admitted &&
              plan.deferred == c.deferred && plan.shed == c.shed,
          "governor replay disagrees with the service's admission counts");
  if (plan.admitted_count < plan.offered) {
    eva::Workload admitted;
    admitted.uplink_mbps = holder->uplink_mbps;
    admitted.space = holder->space;
    for (std::size_t i : plan.admitted) admitted.clips.push_back(holder->clips[i]);
    holder = std::move(admitted);
  }
  return *holder;
}

/// A served decision must satisfy Const2, place every split stream on a
/// server of the scheduled workload, and cover every scheduled stream
/// exactly once (each parent with exactly its split count).
void check_decision(const eva::Workload& w, const eva::JointConfig& config,
                    const sched::ScheduleResult& s) {
  require(s.feasible, "served schedule is not marked feasible");
  require(config.size() == w.num_streams(),
          "decision config does not match the scheduled stream count");
  require(s.assignment.size() == s.streams.size(),
          "schedule assignment and streams differ in length");
  for (std::size_t server : s.assignment) {
    require(server < w.num_servers(), "stream placed on a server out of range");
  }
  require(sched::const2_holds(s.streams, s.assignment, w.num_servers(),
                              TickClock(w.space.fps_knobs())),
          "served schedule violates Const2");
  std::vector<std::size_t> expected(w.num_streams(), 0);
  for (const auto& st : sched::split_streams(w, config)) ++expected[st.parent];
  std::vector<std::size_t> placed(w.num_streams(), 0);
  for (const auto& st : s.streams) {
    require(st.parent < w.num_streams(), "split stream with unknown parent");
    ++placed[st.parent];
  }
  require(placed == expected,
          "schedule does not cover every scheduled stream exactly once");
}

struct EpochScore {
  bool scored = false;
  double benefit = 0.0;    // ground-truth Eq. 13 benefit of the decision
  double model_gap = 0.0;  // final benefit_trace entry minus ground truth
  double evaluate_ms = 0.0;
};

/// Check one epoch's report and, when `score`, price its served decision
/// with core::evaluate_solution under one normalizer for the whole
/// scheduled workload.
EpochScore check_epoch(Lineage& l, const EpochReport& r, bool score) {
  std::optional<eva::Workload> holder;
  const eva::Workload& w = scheduled_workload(l, r, holder);
  EpochScore out;
  if (!r.feasible) return out;
  const eva::JointConfig& config = r.repaired ? r.repaired_config : r.config;
  const sched::ScheduleResult& schedule =
      r.repaired ? r.repaired_schedule : r.schedule;
  check_decision(w, config, schedule);
  if (!score) return out;
  const auto t0 = Clock::now();
  const eva::OutcomeNormalizer normalizer =
      l.normalizer ? *l.normalizer : eva::OutcomeNormalizer::for_workload(w);
  const auto value = core::evaluate_solution(w, config, schedule, normalizer,
                                             l.oracle.benefit());
  out.evaluate_ms = 1e3 * seconds_between(t0, Clock::now());
  require(value.has_value(), "evaluate_solution refused a feasible decision");
  out.scored = true;
  out.benefit = value->benefit;
  out.model_gap =
      (r.benefit_trace.empty() ? 0.0 : r.benefit_trace.back()) - value->benefit;
  return out;
}

// ---- Running lineages -------------------------------------------------------

/// The benchmark's own timing of its calls into the program for one epoch;
/// the row index is the epoch's id within its pass.
struct EpochRow {
  std::size_t lineage = 0;
  std::size_t epoch = 0;
  double run_epoch_ms = 0.0;
  double evaluate_ms = 0.0;  // 0 when the decision was not scored
  std::uint64_t digest = 0;  // core::digest_epoch
};

struct PassLog {
  std::vector<double> calib_ms;  // host calibration before each lineage
  std::vector<double> setup_s;
  std::vector<double> first_ms;   // epoch 0 of each lineage
  std::vector<double> steady_ms;  // epochs >= 1
  double loop_s = 0.0;            // Σ run_epoch wall-clock
  std::size_t stream_epochs = 0;  // Σ streams scheduled
  std::size_t oracle_queries = 0;
  std::vector<EpochRow> rows;
  perfbench::Tally tally;
  std::vector<EpochScore> scores;
};

// ---- Host calibration ---------------------------------------------------------

/// host_calibration_ms(2) on the reference host (4-vCPU shared VM, gcc 12,
/// Release). Time metrics are reported at this host speed.
constexpr double kReferenceCalibMs = 5.0;

/// Host-speed probe: a fixed kernel (a 40x40 Cholesky, exp, and a 512-key
/// sort per block, 48 blocks per round, 6 rounds) fanned out over
/// `workers` + 1 threads the benchmark starts itself, mirroring the pinned
/// pool plus the participating caller. It uses nothing from src/, so no
/// change to the program can move it, while a slower host or a busier
/// machine slows it like the epochs, only more steeply where the epoch has
/// serial parts (hence WorkloadSpec::probe_exponent).
double host_calibration_ms(std::size_t workers) {
  constexpr std::size_t kBlocks = 48;
  constexpr std::size_t kN = 40;
  std::vector<double> sink(kBlocks, 0.0);
  auto block = [&](std::size_t b) {
    std::vector<double> a(kN * kN);
    for (std::size_t i = 0; i < kN; ++i) {
      for (std::size_t j = 0; j < kN; ++j) {
        const double d = static_cast<double>(i) - static_cast<double>(j);
        a[i * kN + j] = std::exp(-0.1 * std::abs(d)) +
                        (i == j ? static_cast<double>(kN) : 0.0) +
                        1e-3 * static_cast<double>(b);
      }
    }
    for (std::size_t j = 0; j < kN; ++j) {
      double d = a[j * kN + j];
      for (std::size_t k = 0; k < j; ++k) d -= a[j * kN + k] * a[j * kN + k];
      d = std::sqrt(d);
      a[j * kN + j] = d;
      for (std::size_t i = j + 1; i < kN; ++i) {
        double v = a[i * kN + j];
        for (std::size_t k = 0; k < j; ++k) v -= a[i * kN + k] * a[j * kN + k];
        a[i * kN + j] = v / d;
      }
    }
    std::vector<std::uint64_t> keys(512);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL + b;
    for (auto& key : keys) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      key = x >> 20;
    }
    std::sort(keys.begin(), keys.end());
    sink[b] = a[kN * kN - 1] + static_cast<double>(keys[256] & 7);
  };
  // Like a parallel_for per round: every thread drains a shared block
  // counter, and a barrier separates the rounds.
  constexpr std::size_t kRounds = 6;
  std::array<std::atomic<std::size_t>, kRounds> next{};
  std::barrier round_done(static_cast<std::ptrdiff_t>(workers + 1));
  auto drain = [&] {
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (std::size_t b = next[r]++; b < kBlocks; b = next[r]++) block(b);
      round_done.arrive_and_wait();
    }
  };
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(drain);
    drain();
  }
  const double ms = 1e3 * seconds_between(t0, Clock::now());
  require(std::isfinite(sink[kBlocks - 1]), "calibration kernel diverged");
  return ms;
}

/// Set up lineage `lineage` and run it for `epochs` epochs, appending to
/// `log`. With `traced`, obs is switched on around each run_epoch call
/// only, so neither set-up nor the benchmark's own checks and scoring reach
/// the program's spans or counters; callers reset obs before a traced pass.
void run_lineage(const WorkloadSpec& spec, std::uint64_t seed,
                 std::size_t lineage, std::size_t epochs, bool score,
                 bool traced, PassLog& log) {
  const auto t0 = Clock::now();
  const std::unique_ptr<Lineage> l =
      spec.make(derive_seed(seed, 100 + lineage), spec.epochs);
  log.setup_s.push_back(seconds_between(t0, Clock::now()));
  for (std::size_t e = 0; e < epochs; ++e) {
    if (traced) obs::set_enabled(true);
    const auto t1 = Clock::now();
    const EpochReport r = l->service->run_epoch(l->oracle);
    const double ms = 1e3 * seconds_between(t1, Clock::now());
    if (traced) obs::set_enabled(false);
    require(r.epoch == e, "run_epoch returned the wrong epoch index");
    (e == 0 ? log.first_ms : log.steady_ms).push_back(ms);
    log.loop_s += ms / 1e3;
    log.stream_epochs += r.churn.admitted;
    log.oracle_queries += r.oracle_queries;
    log.tally.add(r);
    const EpochScore s = check_epoch(*l, r, score);
    log.scores.push_back(s);
    log.rows.push_back({lineage, e, ms, s.evaluate_ms, core::digest_epoch(r)});
  }
}

/// Lineages [0, lineages) in order, each for `epochs` epochs. An untraced
/// pass probes the host before every lineage, so the probes interleave
/// with the timed epochs.
PassLog run_pass(const WorkloadSpec& spec, std::uint64_t seed,
                 std::size_t lineages, std::size_t epochs, bool score,
                 bool traced) {
  if (traced) obs::reset();
  PassLog log;
  for (std::size_t i = 0; i < lineages; ++i) {
    if (!traced) log.calib_ms.push_back(host_calibration_ms(spec.workers));
    run_lineage(spec, seed, i, epochs, score, traced, log);
  }
  return log;
}

/// Every epoch of `replay` must have the digest of the same (lineage,
/// epoch) in `reference`.
void require_same_decisions(const PassLog& reference, const PassLog& replay,
                            const std::string& what) {
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> digests;
  for (const EpochRow& row : reference.rows) {
    digests[{row.lineage, row.epoch}] = row.digest;
  }
  for (const EpochRow& row : replay.rows) {
    const auto it = digests.find({row.lineage, row.epoch});
    if (it == digests.end() || it->second != row.digest) {
      throw Violation("epoch digest of lineage " + std::to_string(row.lineage) +
                      " epoch " + std::to_string(row.epoch) + " differs: " +
                      what);
    }
  }
}

// ---- Output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " + quoted(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--commit") {
      a.commit = value;
    } else if (key == "--source-digest") {
      a.source_digest = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  return a;
}

std::string record_json(const Args& a, const WorkloadSpec& spec,
                        std::size_t workers, std::size_t lineages) {
  std::ostringstream out;
  out << "{\"workload\": " << quoted(spec.name) << ", \"seed\": " << a.seed
      << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"workers\": " << workers
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << quoted(compiler_id())
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"commit\": " << quoted(a.commit)
      << ", \"source_digest\": " << quoted(a.source_digest)
      << ", \"lineages\": " << lineages << ", \"epochs\": " << spec.epochs
      << "}";
  return out.str();
}

/// Mean ground-truth benefit, model gap and scoring cost over scored epochs.
struct ScoreSummary {
  double benefit = 0.0;
  double model_gap = 0.0;
  double evaluate_ms = 0.0;
};

ScoreSummary summarize_scores(const std::vector<EpochScore>& scores) {
  ScoreSummary s;
  std::size_t n = 0;
  for (const EpochScore& e : scores) {
    if (!e.scored) continue;
    s.benefit += e.benefit;
    s.model_gap += e.model_gap;
    s.evaluate_ms += e.evaluate_ms;
    ++n;
  }
  require(n > 0, "no epoch produced a decision to score");
  s.benefit /= static_cast<double>(n);
  s.model_gap /= static_cast<double>(n);
  s.evaluate_ms /= static_cast<double>(n);
  return s;
}

// ---- Untraced run: end-to-end metrics ------------------------------------------

int run_untraced(const Args& a, const WorkloadSpec& spec) {
  const std::size_t lineages = lineages_for(spec, a.seconds);
  PassLog run;
  {
    ThreadPool pool(spec.workers);
    ThreadPool::ScopedDefault pinned(pool);
    run = run_pass(spec, a.seed, lineages, spec.epochs, /*score=*/true,
                   /*traced=*/false);
  }
  const ScoreSummary scores = summarize_scores(run.scores);

  // Traced replay of lineage 0 at 1 worker: the decisions must not depend
  // on observability or on the worker count.
  {
    ThreadPool one(1);
    ThreadPool::ScopedDefault serial(one);
    const PassLog replay = run_pass(spec, a.seed, 1, spec.replay_epochs,
                                    /*score=*/false, /*traced=*/true);
    require_same_decisions(run, replay,
                           "traced 1-worker replay vs untraced pinned run");
    obs::reset();
  }

  // Time metrics at reference-host speed: each wall-clock figure scaled by
  // (reference probe time / this run's median probe time)^exponent.
  const double calib_ms = perfbench::median(run.calib_ms);
  const double to_reference =
      std::pow(kReferenceCalibMs / calib_ms, spec.probe_exponent);
  const perfbench::Tally& tally = run.tally;
  const perfbench::TailPick tail = perfbench::pick_tail(run.steady_ms);
  const auto q = perfbench::quartiles(run.steady_ms);
  const double p50_ms = perfbench::median(run.steady_ms);
  const double first_ms = perfbench::median(run.first_ms);
  const double streams_per_s =
      static_cast<double>(run.stream_epochs) / run.loop_s;
  const double setup_s = perfbench::median(run.setup_s);
  const std::vector<Metric> e2e = {
      {"epoch_ms_p50", p50_ms * to_reference, "ms"},
      {"epoch_ms_tail", tail.value * to_reference, "ms"},
      {"first_epoch_ms", first_ms * to_reference, "ms"},
      {"streams_per_s", streams_per_s / to_reference, "1/s"},
      {"benefit_loss_gt", -scores.benefit, "benefit"},
      {"frame_ok_ratio", 1.0 - tally.frame_miss_ratio(), "ratio"},
      {"epoch_ok_ratio", 1.0 - tally.epoch_fail_ratio(), "ratio"},
      {"streams_kept_ratio", 1.0 - tally.streams_shed_ratio(), "ratio"},
      {"setup_s", setup_s * to_reference, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::vector<Metric> full = e2e;
  full.insert(full.end(), {
      {"epoch_ms_p50_wall", p50_ms, "ms"},
      {"epoch_ms_tail_wall", tail.value, "ms"},
      {"first_epoch_ms_wall", first_ms, "ms"},
      {"streams_per_s_wall", streams_per_s, "1/s"},
      {"setup_s_wall", setup_s, "s"},
      {"host_calibration_ms", calib_ms, "ms"},
      {"host_speed_factor", to_reference, "ratio"},
      {"benefit_gt", scores.benefit, "benefit"},
      {"frame_miss_ratio", tally.frame_miss_ratio(), "ratio"},
      {"epoch_fail_ratio", tally.epoch_fail_ratio(), "ratio"},
      {"streams_shed_ratio", tally.streams_shed_ratio(), "ratio"},
      {"epoch_ms_tail_percentile", tail.percentile, "%"},
      {"epoch_ms_tail_beyond", static_cast<double>(tail.beyond), "count"},
      {"epoch_ms_samples", static_cast<double>(tail.samples), "count"},
      {"epoch_ms_q1_wall", q[0], "ms"},
      {"epoch_ms_q3_wall", q[2], "ms"},
      {"first_epoch_samples", static_cast<double>(run.first_ms.size()), "count"},
      {"setup_samples", static_cast<double>(run.setup_s.size()), "count"},
      {"core.benefit_model_gap", scores.model_gap, "benefit"},
      {"eval.evaluate_solution_ms", scores.evaluate_ms, "ms"},
  });

  std::cout << "{\"record\": " << record_json(a, spec, spec.workers, lineages)
            << ", \"metrics\": " << metrics_json(full) << "}\n";
  std::cout << "{\"correct\": true, \"attempted\": " << tally.epochs
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metrics_json(e2e) << "}\n";
  return 0;
}

// ---- Traced run: per-layer split ---------------------------------------------

std::map<std::string, std::uint64_t> counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : obs::MetricsRegistry::global().snapshot().counters) {
    out[name] = value;
  }
  return out;
}

int run_traced(const Args& a, const WorkloadSpec& spec) {
  // Untraced and traced passes at 1 worker: spans opened on pool workers
  // lose their parent path, and the overhead compares like with like.
  ThreadPool one(1);
  ThreadPool::ScopedDefault serial(one);
  const std::size_t lineages = spec.traced_lineages;
  // Each lineage runs untraced, then traced, so both sides of the
  // overhead ratio see the same cache and allocator state.
  PassLog plain;
  PassLog traced;
  obs::reset();
  for (std::size_t i = 0; i < lineages; ++i) {
    run_lineage(spec, a.seed, i, spec.epochs, /*score=*/true, /*traced=*/false,
                plain);
    run_lineage(spec, a.seed, i, spec.epochs, /*score=*/false, /*traced=*/true,
                traced);
  }
  const ScoreSummary scores = summarize_scores(plain.scores);
  const obs::SpanSnapshot spans = obs::span_snapshot();
  const auto count = counters();
  require_same_decisions(plain, traced, "traced vs untraced");
  std::size_t attempted = plain.tally.epochs + traced.tally.epochs;
  std::size_t failed = plain.tally.failed + traced.tally.failed;
  if (spec.workers > 1) {
    // The fan-out must not change any decision or any work count.
    ThreadPool wide(spec.workers);
    ThreadPool::ScopedDefault pinned(wide);
    const PassLog at_pinned = run_pass(spec, a.seed, lineages, spec.epochs,
                                       /*score=*/false, /*traced=*/true);
    require_same_decisions(traced, at_pinned,
                           "1 worker vs the pinned worker count");
    attempted += at_pinned.tally.epochs;
    failed += at_pinned.tally.failed;
    require(counters() == count,
            "work counters differ between 1 worker and the pinned count");
  }
  obs::reset();

  const double epochs = static_cast<double>(traced.rows.size());
  const std::string root = "service.run_epoch";
  const auto self = perfbench::self_ns(spans.stats);
  auto layer = [&](const char* name) {
    return perfbench::layer_total(spans.stats, self, root, name);
  };
  auto per_epoch_ms = [&](double ns) { return ns / 1e6 / epochs; };
  auto counter = [&](const char* name) {
    const auto it = count.find(name);
    return it == count.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  const auto run_epoch = layer("service.run_epoch");
  const auto fit = layer("gp.fit");
  const auto update = layer("gp.update");
  const auto posterior = layer("gp.posterior");
  const auto bo_iteration = layer("pamo.bo_iteration");
  const auto shard_epoch = layer("fleet.shard_epoch");
  const auto fleet_epoch = layer("fleet.run_epoch");
  const auto simulate = layer("sim.simulate");
  // Time left in self time of the aggregate spans (service, fleet fan-out,
  // pamo.run, its phases, the BO iteration) rather than in a leaf layer.
  double aggregate_self = 0.0;
  for (const char* name :
       {"service.run_epoch", "fleet.run_epoch", "fleet.shard_epoch", "pamo.run",
        "pamo.phase1_outcome_fit", "pamo.phase1_warm_start",
        "pamo.phase2_preference", "pamo.bo_iteration"}) {
    aggregate_self += layer(name).self_ns;
  }
  double self_sum = 0.0;
  double outside_root_ns = 0.0;
  for (const auto& s : spans.stats) {
    if (perfbench::under(s.path, root)) {
      self_sum += self.at(s.path);
    } else if (s.path.find('/') == std::string::npos) {
      outside_root_ns += static_cast<double>(s.total_ns);
    }
  }
  require(run_epoch.count == traced.rows.size(),
          "one service.run_epoch span per traced epoch");
  require(outside_root_ns == 0.0,
          "a span was recorded outside service.run_epoch in the traced run");
  const double run_epoch_ns = run_epoch.total_ns;

  const std::vector<Metric> layers = {
      {"gp.fit_ms", per_epoch_ms(fit.total_ns), "ms"},
      {"gp.fits", counter("gp.fits") / epochs, "count"},
      {"gp.update_ms", per_epoch_ms(update.total_ns), "ms"},
      {"gp.updates", counter("gp.updates") / epochs, "count"},
      {"gp.rebuilds", counter("gp.rebuilds") / epochs, "count"},
      {"gp.incremental_ratio",
       ratio(counter("gp.updates") - counter("gp.rebuilds"), counter("gp.updates")),
       "ratio"},
      {"gp.posterior_ms", per_epoch_ms(posterior.total_ns), "ms"},
      {"gp.posteriors", counter("gp.posteriors") / epochs, "count"},
      {"pamo.phase1_fit_ms",
       per_epoch_ms(layer("pamo.phase1_outcome_fit").total_ns), "ms"},
      {"pamo.phase1_warm_ms",
       per_epoch_ms(layer("pamo.phase1_warm_start").total_ns), "ms"},
      {"pamo.phase2_ms", per_epoch_ms(layer("pamo.phase2_preference").total_ns),
       "ms"},
      {"pamo.bo_iteration_ms", per_epoch_ms(bo_iteration.total_ns), "ms"},
      {"pamo.bo_iterations", counter("bo.iterations") / epochs, "count"},
      {"pamo.bo_iteration_self_ms", per_epoch_ms(bo_iteration.self_ns), "ms"},
      {"pamo.scenario_sweep_ms",
       per_epoch_ms(layer("pamo.scenario_sweep").total_ns), "ms"},
      {"pamo.scenario_cells", counter("pamo.scenario_cells") / epochs, "count"},
      {"pref.queries", static_cast<double>(traced.oracle_queries) / epochs,
       "count"},
      {"bo.acquisition_ms", per_epoch_ms(layer("bo.acquisition").total_ns), "ms"},
      {"bo.candidates_scored", counter("bo.candidates_scored") / epochs, "count"},
      {"sched.zero_jitter_ms", per_epoch_ms(layer("sched.zero_jitter").total_ns),
       "ms"},
      {"sched.zero_jitter_calls", counter("sched.zero_jitter_calls") / epochs,
       "count"},
      {"sched.zero_jitter_feasible_ratio",
       ratio(counter("sched.zero_jitter_calls") -
                 counter("sched.zero_jitter_infeasible"),
             counter("sched.zero_jitter_calls")),
       "ratio"},
      {"sched.make_shard_plan_ms",
       per_epoch_ms(layer("sched.make_shard_plan").total_ns), "ms"},
      {"sched.bnb_pinned_ms", per_epoch_ms(layer("sched.bnb_pinned").total_ns),
       "ms"},
      {"sched.bnb_nodes", counter("sched.bnb_nodes") / epochs, "count"},
      {"sim.simulate_ms", per_epoch_ms(simulate.total_ns), "ms"},
      {"sim.frames_served", counter("sim.frames_served") / epochs, "count"},
      {"sim.ns_per_frame", ratio(simulate.total_ns, counter("sim.frames_served")),
       "ns"},
      {"fleet.shards", ratio(static_cast<double>(shard_epoch.count),
                             static_cast<double>(fleet_epoch.count)),
       "count"},
      {"fleet.shard_epoch_ms_mean",
       ratio(shard_epoch.total_ns, static_cast<double>(shard_epoch.count)) / 1e6,
       "ms"},
      {"fleet.shard_epoch_ms_max", shard_epoch.max_ns / 1e6, "ms"},
      {"fleet.self_ms", per_epoch_ms(fleet_epoch.self_ns), "ms"},
      {"service.self_ms", per_epoch_ms(run_epoch.self_ns), "ms"},
      {"service.attempt_repair_ms",
       per_epoch_ms(layer("service.attempt_repair").total_ns), "ms"},
      {"service.repairs_applied", counter("service.repairs_applied") / epochs,
       "count"},
      {"core.benefit_model_gap", scores.model_gap, "benefit"},
      {"eval.evaluate_solution_ms", scores.evaluate_ms, "ms"},
      {"trace.epoch_ms", per_epoch_ms(run_epoch_ns), "ms"},
      {"trace_overhead", traced.loop_s / plain.loop_s - 1.0, "ratio"},
      {"trace.aggregate_self_share", ratio(aggregate_self, run_epoch_ns),
       "ratio"},
      {"trace.span_coverage", ratio(run_epoch_ns / 1e9, traced.loop_s), "ratio"},
  };
  require(std::abs(self_sum - run_epoch_ns) <= 1e-9 * run_epoch_ns + 1.0,
          "self times under service.run_epoch do not sum to its total");

  // Human-readable split, largest layer first.
  std::vector<std::pair<double, std::string>> split;
  for (const auto& s : spans.stats) {
    if (perfbench::under(s.path, root)) split.emplace_back(self.at(s.path), s.path);
  }
  std::sort(split.rbegin(), split.rend());
  std::cerr << "self-time split of service.run_epoch (" << spec.name << ", "
            << traced.rows.size() << " epochs, 1 worker)\n";
  for (const auto& [ns, path] : split) {
    if (ns / run_epoch_ns < 0.001) continue;
    char line[256];
    std::snprintf(line, sizeof line, "  %6.2f%%  %9.2f ms/epoch  %s\n",
                  100.0 * ns / run_epoch_ns, ns / 1e6 / epochs, path.c_str());
    std::cerr << line;
  }

  // The benchmark's own timing of its calls, keyed by epoch id: run_epoch
  // from the traced pass, evaluate_solution from the untraced one (both
  // passes run the same epochs in the same order).
  std::ostringstream rows;
  for (std::size_t id = 0; id < traced.rows.size(); ++id) {
    const EpochRow& row = traced.rows[id];
    char digest[24];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(row.digest));
    rows << (id > 0 ? ", " : "") << "{\"id\": " << id
         << ", \"lineage\": " << row.lineage << ", \"epoch\": " << row.epoch
         << ", \"run_epoch_ms\": " << number(row.run_epoch_ms)
         << ", \"evaluate_solution_ms\": "
         << number(plain.rows[id].evaluate_ms) << ", \"digest\": \"" << digest
         << "\"}";
  }
  std::cout << "{\"record\": " << record_json(a, spec, 1, lineages)
            << ", \"metrics\": " << metrics_json(layers)
            << ", \"epochs\": [" << rows.str() << "]}\n";
  std::cout << "{\"correct\": true, \"attempted\": " << attempted
            << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(layers) << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "epoch_bench: " << e.what()
              << "\nusage: epoch_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit ID] [--source-digest HEX]\n";
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::cerr << "epoch_bench: unknown workload " << args.workload << "\n";
    return 2;
  }
  try {
    return args.trace ? run_traced(args, *spec) : run_untraced(args, *spec);
  } catch (const Violation& v) {
    std::cerr << "epoch_bench: CHECK FAILED (" << spec->name << ", seed "
              << args.seed << "): " << v.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "epoch_bench: error: " << e.what() << "\n";
    return 4;
  }
}
