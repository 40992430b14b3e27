#include "core/report_digest.hpp"

#include "ckpt/digest.hpp"

namespace pamo::core {

std::uint64_t digest_schedule(const sched::ScheduleResult& schedule) {
  ckpt::Fnv1a d;
  d.mix(schedule.feasible);
  d.mix_all(schedule.assignment);
  d.mix_all(schedule.phase);
  d.mix_all(schedule.uplink_per_parent);
  d.mix_all(schedule.latency_per_parent);
  d.mix(schedule.comm_cost);
  d.mix(std::uint64_t{schedule.streams.size()});
  return d.value();
}

// Stateless FNV fold: any well-formed report is a valid input and the only
// contract — bit-identical digests for bit-identical reports — is exactly
// what the ckpt restart matrix pins. pamo-analyze: allow(contract-coverage)
std::uint64_t digest_sim(const sim::SimReport& report) {
  ckpt::Fnv1a d;
  d.mix(std::uint64_t{report.per_stream.size()});
  for (const auto& s : report.per_stream) {
    d.mix(std::uint64_t{s.frames});
    d.mix(s.mean_latency);
    d.mix(s.min_latency);
    d.mix(s.max_latency);
    d.mix(s.jitter);
    d.mix(s.queue_delay);
    d.mix(std::uint64_t{s.emitted});
    d.mix(std::uint64_t{s.dropped});
    d.mix(std::uint64_t{s.slo_violations});
  }
  d.mix_all(report.latency_per_parent);
  d.mix(report.mean_latency);
  d.mix(report.max_jitter);
  d.mix(report.total_queue_delay);
  d.mix(std::uint64_t{report.total_frames});
  d.mix(std::uint64_t{report.total_emitted});
  d.mix(std::uint64_t{report.total_dropped});
  d.mix(std::uint64_t{report.dropped_by_loss});
  d.mix(std::uint64_t{report.slo_violations});
  d.mix(std::uint64_t{report.unserved_streams});
  d.mix_all(report.server_availability);
  d.mix_all(report.server_up_at_end);
  d.mix_all(report.uplink_factor_at_end);
  d.mix_all(report.slowdown_at_end);
  return d.value();
}

// Same story as digest_sim: a pure fold with no preconditions to state.
// pamo-analyze: allow(contract-coverage)
std::uint64_t digest_epoch(const SchedulingService::EpochReport& report) {
  ckpt::Fnv1a d;
  d.mix(std::uint64_t{report.epoch});
  d.mix(report.feasible);
  d.mix(report.fallback);
  d.mix(std::uint64_t{report.config.size()});
  for (const auto& c : report.config) {
    d.mix(std::uint64_t{c.resolution});
    d.mix(std::uint64_t{c.fps});
  }
  d.mix(digest_schedule(report.schedule));
  d.mix(digest_sim(report.sim));
  d.mix_all(report.benefit_trace);  // the BO trajectory, iteration by
                                    // iteration
  d.mix(std::uint64_t{report.oracle_queries});
  d.mix(report.repaired);
  if (report.repaired) {
    d.mix(std::uint64_t{report.repaired_config.size()});
    for (const auto& c : report.repaired_config) {
      d.mix(std::uint64_t{c.resolution});
      d.mix(std::uint64_t{c.fps});
    }
    d.mix(digest_schedule(report.repaired_schedule));
    d.mix(digest_sim(report.post_repair_sim));
  }
  d.mix(std::uint64_t{report.repairs.size()});
  for (const auto& r : report.repairs) {
    d.mix(std::uint64_t{static_cast<unsigned>(r.kind)});
    d.mix(r.detail);
  }
  d.mix(report.health.optimizer_error);
  d.mix(report.health.repair_error);
  d.mix(report.health.fallback_taken);
  d.mix(report.health.error_message);
  // Churn/governor surface — mixed only when something actually happened,
  // so a churn-free epoch's digest is unchanged from pre-churn builds.
  const auto& churn = report.churn;
  const bool churn_active =
      churn.arrived != 0 || churn.departed != 0 || churn.deferred != 0 ||
      churn.shed != 0 || churn.offered != churn.admitted ||
      churn.load_factor != 1.0 ||  // pamo-analyze: allow(float-eq)
      !report.governor_actions.empty();
  if (churn_active) {
    d.mix(std::uint64_t{churn.offered});
    d.mix(std::uint64_t{churn.arrived});
    d.mix(std::uint64_t{churn.departed});
    d.mix(std::uint64_t{churn.admitted});
    d.mix(std::uint64_t{churn.deferred});
    d.mix(std::uint64_t{churn.shed});
    d.mix(churn.load_factor);
    d.mix(churn.offered_load);
    d.mix(churn.admitted_load);
    d.mix(std::uint64_t{report.governor_actions.size()});
    for (const auto& a : report.governor_actions) {
      d.mix(std::uint64_t{a.epoch});
      d.mix(a.stream);
      d.mix(std::uint64_t{static_cast<unsigned>(a.decision)});
      d.mix(a.detail);
    }
  }
  return d.value();
}

}  // namespace pamo::core
