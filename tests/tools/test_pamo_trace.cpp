// pamo_trace library — structural validation (check_record) must accept
// internally consistent records and name every class of inconsistency,
// and the renderers must surface the record's content.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "obs/epoch_record.hpp"
#include "pamo_trace/trace.hpp"

namespace pamo::tools {
namespace {

/// A fully consistent record: every span event matches an aggregate, the
/// histogram buckets sum to the count, and the sim summary conserves
/// frames.
obs::EpochRecord consistent_record() {
  obs::EpochRecord r;
  r.epoch = 7;
  r.feasible = true;
  r.sim.total_frames = 120;
  r.sim.total_emitted = 130;
  r.sim.total_dropped = 10;
  r.sim.dropped_by_loss = 4;
  r.sim.slo_violations = 2;
  r.sim.mean_latency = 0.0425;
  r.sim.max_jitter = 0.011;
  r.sim.total_queue_delay = 0.75;
  r.benefit_trace = {0.1, 0.4, 0.55};
  r.metrics.counters = {{"bo.iterations", 12}, {"gp.fits", 3}};
  r.metrics.gauges = {{"epoch.benefit", 0.55}};
  obs::HistogramSnapshot h;
  h.name = "sim.latency";
  h.count = 3;
  h.min = 0.5;
  h.max = 8.5;
  h.buckets = {{10, 1}, {20, 2}};
  r.metrics.histograms.push_back(h);
  r.spans.stats = {{"epoch", 1, 5000, 5000, 5000},
                   {"epoch/gp.fit", 2, 600, 200, 400}};
  r.spans.events = {{"epoch", 0, 100, 5000},
                    {"epoch/gp.fit", 1, 150, 200},
                    {"epoch/gp.fit", 1, 400, 400}};
  r.spans.events_dropped = 0;
  return r;
}

bool mentions(const TraceCheck& check, const std::string& needle) {
  return std::any_of(check.problems.begin(), check.problems.end(),
                     [&](const std::string& p) {
                       return p.find(needle) != std::string::npos;
                     });
}

TEST(TraceCheck, PassesOnConsistentRecord) {
  const TraceCheck check = check_record(consistent_record());
  EXPECT_TRUE(check.ok) << (check.problems.empty() ? std::string()
                                                   : check.problems.front());
  EXPECT_TRUE(check.problems.empty());
}

TEST(TraceCheck, SurvivesJsonRoundTrip) {
  const obs::EpochRecord record = consistent_record();
  const obs::EpochRecord back = obs::record_from_json(obs::to_json(record));
  EXPECT_TRUE(check_record(back).ok);
}

TEST(TraceCheck, FlagsSpanAlgebraViolations) {
  {
    obs::EpochRecord r = consistent_record();
    r.spans.stats[1].min_ns = 500;  // min > max
    EXPECT_TRUE(mentions(check_record(r), "min_ns > max_ns"));
  }
  {
    obs::EpochRecord r = consistent_record();
    r.spans.stats[1].total_ns = 10000;  // > count * max
    EXPECT_TRUE(mentions(check_record(r), "total_ns outside"));
  }
  {
    obs::EpochRecord r = consistent_record();
    r.spans.stats[0].count = 0;
    EXPECT_TRUE(mentions(check_record(r), "zero occurrences"));
  }
  {
    obs::EpochRecord r = consistent_record();
    std::swap(r.spans.stats[0], r.spans.stats[1]);  // breaks sort order
    EXPECT_TRUE(mentions(check_record(r), "not sorted"));
  }
}

TEST(TraceCheck, FlagsEventInconsistencies) {
  {
    obs::EpochRecord r = consistent_record();
    std::swap(r.spans.events[0], r.spans.events[2]);  // unsorted starts
    EXPECT_TRUE(mentions(check_record(r), "not sorted by start_ns"));
  }
  {
    obs::EpochRecord r = consistent_record();
    r.spans.events[1].path = "phantom";  // no aggregate for this path
    const TraceCheck check = check_record(r);
    EXPECT_TRUE(mentions(check, "missing from span stats"));
  }
  {
    obs::EpochRecord r = consistent_record();
    r.spans.events[1].depth = 5;  // path has one slash, not five
    EXPECT_TRUE(mentions(check_record(r), "depth does not match"));
  }
  {
    // With no drops the event log must cover every aggregated occurrence.
    obs::EpochRecord r = consistent_record();
    r.spans.events.pop_back();
    EXPECT_TRUE(mentions(check_record(r), "no events dropped"));
    // ...but a positive drop counter legitimizes the shorter log.
    r.spans.events_dropped = 1;
    EXPECT_TRUE(check_record(r).ok);
  }
}

TEST(TraceCheck, FlagsMetricAndSimViolations) {
  {
    obs::EpochRecord r = consistent_record();
    r.metrics.histograms[0].buckets[0].second = 7;  // sum != count
    EXPECT_TRUE(mentions(check_record(r), "bucket sum"));
  }
  {
    obs::EpochRecord r = consistent_record();
    r.metrics.counters = {{"z.last", 1}, {"a.first", 2}};  // unsorted
    EXPECT_TRUE(mentions(check_record(r), "counters not sorted"));
  }
  {
    obs::EpochRecord r = consistent_record();
    r.sim.total_dropped = 9;  // 120 + 9 != 130
    EXPECT_TRUE(mentions(check_record(r), "frame conservation"));
  }
  {
    obs::EpochRecord r = consistent_record();
    r.sim.total_queue_delay = -0.5;
    EXPECT_TRUE(mentions(check_record(r), "latency statistics"));
  }
  {
    obs::EpochRecord r = consistent_record();
    r.benefit_trace.push_back(std::numeric_limits<double>::quiet_NaN());
    EXPECT_TRUE(mentions(check_record(r), "benefit_trace"));
  }
  {
    // post_repair_sim is only validated when the epoch was repaired.
    obs::EpochRecord r = consistent_record();
    r.post_repair_sim.total_emitted = 99;  // inconsistent, but dormant
    EXPECT_TRUE(check_record(r).ok);
    r.repaired = true;
    EXPECT_TRUE(mentions(check_record(r), "post_repair_sim"));
  }
}

/// A record for a churn-active epoch whose admission accounting adds up:
/// 6 offered = 4 admitted + 1 deferred + 1 shed.
obs::EpochRecord churned_record() {
  obs::EpochRecord r = consistent_record();
  r.churn.offered = 6;
  r.churn.arrived = 2;
  r.churn.departed = 1;
  r.churn.admitted = 4;
  r.churn.deferred = 1;
  r.churn.shed = 1;
  r.churn.load_factor = 1.25;
  r.churn.offered_load = 1.4;
  r.churn.admitted_load = 0.9;
  r.governor_actions.push_back({7, 11, "admit", "arrival admitted"});
  r.governor_actions.push_back({7, 12, "defer", "no headroom"});
  r.governor_actions.push_back({7, 13, "shed", "overload"});
  return r;
}

TEST(TraceCheck, PassesOnBalancedChurnAccounting) {
  const TraceCheck check = check_record(churned_record());
  EXPECT_TRUE(check.ok) << (check.problems.empty() ? std::string()
                                                   : check.problems.front());
}

TEST(TraceCheck, FlagsChurnAccountingViolations) {
  {
    // A lost stream: offered 6 but only 5 accounted for.
    obs::EpochRecord r = churned_record();
    r.churn.admitted = 3;
    EXPECT_TRUE(mentions(check_record(r), "!= offered"));
  }
  {
    // A double-counted stream: 7 accounted for out of 6 offered.
    obs::EpochRecord r = churned_record();
    r.churn.shed = 2;
    EXPECT_TRUE(mentions(check_record(r), "!= offered"));
  }
  {
    obs::EpochRecord r = churned_record();
    r.churn.arrived = 9;
    EXPECT_TRUE(mentions(check_record(r), "more arrivals than offered"));
  }
  {
    obs::EpochRecord r = churned_record();
    r.churn.admitted_load = 2.0;  // > offered_load
    EXPECT_TRUE(mentions(check_record(r), "admitted_load exceeds"));
  }
  {
    obs::EpochRecord r = churned_record();
    r.churn.load_factor = 0.0;
    EXPECT_TRUE(mentions(check_record(r), "load statistics"));
  }
  {
    obs::EpochRecord r = churned_record();
    r.governor_actions[1].decision = "banish";
    EXPECT_TRUE(mentions(check_record(r), "unknown decision 'banish'"));
  }
  {
    obs::EpochRecord r = churned_record();
    r.governor_actions[0].epoch = 3;  // record is epoch 7
    EXPECT_TRUE(mentions(check_record(r), "different epoch"));
  }
}

TEST(TraceRender, ChurnFreeRecordOmitsChurnSections) {
  const std::string text = render_record(consistent_record());
  EXPECT_EQ(text.find("churn:"), std::string::npos);
  EXPECT_EQ(text.find("governor:"), std::string::npos);
}

TEST(TraceRender, ChurnedRecordShowsAccountingAndGovernorLog) {
  const std::string text = render_record(churned_record());
  EXPECT_NE(text.find("churn: offered=6 (+2/-1)  admitted=4 deferred=1 "
                      "shed=1"),
            std::string::npos);
  EXPECT_NE(text.find("governor:"), std::string::npos);
  EXPECT_NE(text.find("[defer] stream 12: no headroom"), std::string::npos);
}

TEST(TraceRender, RecordReportCoversAllSections) {
  const std::string text = render_record(consistent_record());
  EXPECT_NE(text.find("epoch 7"), std::string::npos);
  EXPECT_NE(text.find("bo.iterations = 12"), std::string::npos);
  EXPECT_NE(text.find("epoch.benefit = 0.55"), std::string::npos);
  EXPECT_NE(text.find("sim.latency"), std::string::npos);
  EXPECT_NE(text.find("epoch/gp.fit"), std::string::npos);
  EXPECT_NE(text.find("timeline:"), std::string::npos);
  EXPECT_NE(text.find("benefit trace: 0.1 0.4 0.55"), std::string::npos);
}

TEST(TraceRender, SpanStatsOrderedByTotalTime) {
  const std::string text = render_span_stats(consistent_record().spans);
  // "epoch" (5000ns total) must be listed before "epoch/gp.fit" (600ns).
  const auto epoch_pos = text.find("  epoch\n");
  const auto fit_pos = text.find("epoch/gp.fit");
  ASSERT_NE(epoch_pos, std::string::npos);
  ASSERT_NE(fit_pos, std::string::npos);
  EXPECT_LT(epoch_pos, fit_pos);
}

TEST(TraceRender, TimelineElidesPastMaxRows) {
  const obs::EpochRecord record = consistent_record();
  const std::string full = render_timeline(record.spans);
  EXPECT_EQ(full.find("more events"), std::string::npos);
  const std::string capped = render_timeline(record.spans, 1);
  EXPECT_NE(capped.find("... (2 more events)"), std::string::npos);
  // Nested rows are indented under their parent and show the leaf name.
  EXPECT_NE(full.find("gp.fit ("), std::string::npos);
}

}  // namespace
}  // namespace pamo::tools
