#include "workload.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "saferegion/motion_model.h"
#include "saferegion/pyramid.h"

namespace salarm::perfbench {

const std::vector<std::string>& all_strategy_labels() {
  static const std::vector<std::string> labels = {"PRD", "SP", "MWPSR",
                                                  "PBSR", "OPT"};
  return labels;
}

std::optional<WorkloadSpec> find_workload(std::string_view name,
                                          std::uint64_t seed, bool smoke) {
  WorkloadSpec spec;
  spec.name = std::string(name);
  spec.seed = seed;
  core::ExperimentConfig& cfg = spec.config;
  cfg.seed = kMapSeed;
  cfg.public_percent = 10.0;
  cfg.grid_cell_sqkm = 2.5;
  if (name == "paper-mix") {
    // The figure benches' 16 km map at 4x their vehicle count, one shard on
    // one thread: trace, probe, MWPSR, pyramid and NN search carry the load.
    cfg.universe_km = 16.0;
    cfg.alarm_count = 2560;
    cfg.vehicles = 1600;
    cfg.minutes = 8.0;
    spec.strategies = {"PRD", "SP", "MWPSR", "PBSR", "OPT"};
  } else if (name == "cluster-scale") {
    // The paper-size map (ExperimentConfig defaults) at 4,000 vehicles on a
    // 4-shard cluster: fan-out, skew and the serial fraction dominate. Half
    // the default 15 minutes, so a run holds enough jobs for steady
    // per-tick medians; the per-tick work is the same.
    cfg.vehicles = 4000;
    cfg.minutes = 7.5;
    spec.shards = 4;
    spec.threads = 4;
    spec.strategies = {"MWPSR"};
  } else if (name == "churn-faults") {
    // The write path: alarm churn, a lossy channel and shard crashes.
    cfg.universe_km = 16.0;
    cfg.alarm_count = 2560;
    cfg.vehicles = 800;
    cfg.minutes = 8.0;
    spec.shards = 4;
    spec.threads = 2;
    spec.churn = true;
    spec.faults = true;
    spec.strategies = {"MWPSR", "PBSR", "SP"};
  } else {
    return std::nullopt;
  }
  // Never more threads than the cores this process may run on.
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    spec.threads = std::min<std::size_t>(
        spec.threads, static_cast<std::size_t>(std::max(1, CPU_COUNT(&cpus))));
  }
  if (smoke) {
    cfg.universe_km = 8.0;
    cfg.alarm_count = 640;
    cfg.vehicles = 40;
    cfg.minutes = 1.5;
  }
  return spec;
}

StampedSource::StampedSource(const roadnet::RoadNetwork& network,
                             const mobility::TraceConfig& config,
                             std::size_t ticks)
    : generator_(network, config) {
  entries_.reserve(ticks);
  exits_.reserve(ticks);
}

void StampedSource::reset() {
  generator_.reset();
  entries_.clear();
  exits_.clear();
}

void StampedSource::step() {
  if (task_ && Clock::now() - last_interleaved_ >= interleave_every_) {
    const auto t0 = Clock::now();
    task_();
    last_interleaved_ = Clock::now();
    interleaved_ += last_interleaved_ - t0;
  }
  entries_.push_back(Clock::now() - interleaved_);
  generator_.step();
  if (step_timing_) exits_.push_back(Clock::now() - interleaved_);
}

mobility::TraceConfig trace_config(const WorkloadSpec& spec) {
  mobility::TraceConfig trace;
  trace.vehicle_count = spec.config.vehicles;
  trace.tick_seconds = spec.config.tick_seconds;
  trace.seed = spec.seed * 104729 + 2;
  return trace;
}

std::uint64_t churn_seed(const WorkloadSpec& spec) {
  return spec.seed * 32452843 + 4;
}

dynamics::ChurnConfig churn_config(const core::Experiment& experiment) {
  // 2 installs + 1 removal per tick; TTL knobs stay at their defaults.
  return experiment.churn_config(2.0, 1.0);
}

Rig::Rig(const WorkloadSpec& spec)
    : experiment(spec.config),
      source(experiment.network(), trace_config(spec), spec.config.ticks()),
      simulation(source, experiment.store(), experiment.grid(),
                 spec.config.ticks()) {
  if (spec.churn) {
    simulation.set_churn(churn_config(experiment), churn_seed(spec));
  }
  if (spec.faults) {
    net::ChannelConfig channel;
    channel.uplink_loss = 0.05;
    channel.downlink_loss = 0.05;
    channel.duplicate_rate = 0.02;
    channel.latency_base_ms = 40.0;
    channel.latency_jitter_ms = 60.0;
    channel.outage_start_per_tick = 0.002;
    channel.outage_mean_ticks = 5.0;
    simulation.set_channel(channel, kMapSeed * 49979687 + 5);

    failover::FailoverConfig crashes;
    crashes.crash_per_tick = 0.005;
    crashes.journal = true;
    crashes.checkpoint_interval_ticks = 30;
    simulation.set_failover(crashes, kMapSeed * 67867979 + 6);
  }
}

sim::Simulation::StrategyFactory strategy_factory(
    const core::Experiment& experiment, std::string_view label) {
  if (label == "PRD") return experiment.periodic();
  if (label == "SP") return experiment.safe_period();
  if (label == "MWPSR") {
    return experiment.rect(saferegion::MotionModel(1.0, 32));
  }
  if (label == "PBSR") {
    saferegion::PyramidConfig pbsr;
    pbsr.height = 5;
    return experiment.bitmap(pbsr);
  }
  return experiment.optimal();
}

sim::RunResult run_strategy(Rig& rig, const WorkloadSpec& spec,
                            const sim::Simulation::StrategyFactory& factory,
                            std::size_t threads) {
  return rig.simulation.run_sharded(
      factory, {.shards = spec.shards, .threads = threads});
}

std::vector<std::uint64_t> counted_fields(const sim::Metrics& m) {
  std::vector<std::uint64_t> out = {
      m.uplink_messages, m.uplink_bytes, m.downstream_region_bytes,
      m.downstream_notice_bytes, m.client_checks, m.client_check_ops,
      m.server_alarm_ops, m.server_region_ops, m.handoff_messages,
      m.handoff_bytes, m.alarms_installed, m.alarms_removed,
      m.invalidation_pushes, m.invalidation_bytes, m.net_retransmissions,
      m.net_duplicates_dropped, m.net_ack_messages, m.net_ack_bytes,
      m.net_lease_fallback_ticks, m.net_buffered_reports, m.net_outages,
      m.fo_crashes, m.fo_recoveries, m.fo_recovery_ticks, m.fo_checkpoints,
      m.fo_checkpoint_bytes, m.fo_journal_records, m.fo_journal_bytes,
      m.fo_journal_replays, m.fo_redo_events, m.fo_reregistrations,
      m.fo_reregistration_bytes, m.fo_grant_voids, m.fo_degraded_ticks,
      m.fo_buffered_reports, m.safe_region_recomputes, m.triggers,
      m.net_delivery_latency_ms.count(), m.region_payload_bytes.count()};
  // The distributions' sums are part of the counted output too; compare
  // their exact bit patterns.
  for (const double sum :
       {m.net_delivery_latency_ms.sum(), m.region_payload_bytes.sum()}) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(sum));
    std::memcpy(&bits, &sum, sizeof(bits));
    out.push_back(bits);
  }
  return out;
}

void PaperCosts::add(const sim::Metrics& m) {
  const sim::CostModel cost;
  uplink_msgs += static_cast<double>(m.uplink_messages);
  downlink_kb +=
      static_cast<double>(m.downstream_region_bytes + m.invalidation_bytes) /
      1024.0;
  client_energy_mwh += cost.client_energy_mwh(m) + cost.client_radio_mwh(m);
  server_model_s += (cost.server_total_minutes(m) +
                     cost.durability_server_minutes(m) +
                     cost.recovery_server_minutes(m)) *
                    60.0;
}

void Verdict::add(const sim::RunResult& run) {
  attempted += static_cast<std::uint64_t>(run.subscribers) * run.ticks;
  const sim::AccuracyReport& a = run.accuracy;
  failed += a.missed + a.spurious + a.late;
  expected += a.expected;
  if (!a.perfect()) {
    correct = false;
    std::fprintf(stderr,
                 "ACCURACY VIOLATION in %s: expected=%zu missed=%zu "
                 "spurious=%zu late=%zu\n",
                 run.strategy.c_str(), a.expected, a.missed, a.spurious,
                 a.late);
  }
}

void Verdict::fail(const char* what) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what);
}

void Verdict::merge(const Verdict& other) {
  correct = correct && other.correct;
  attempted += other.attempted;
  failed += other.failed;
  expected += other.expected;
}

namespace {

/// Tick t runs from its step() entry to tick t + 1's; the last tick has no
/// successor and is left out.
void append_tick_intervals_ms(const StampedSource& source,
                              std::vector<double>& out) {
  const auto& entries = source.step_entries();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    out.push_back(seconds_between(entries[i - 1], entries[i]) * 1e3);
  }
}

}  // namespace

RepOutcome run_rep(Rig& rig, const WorkloadSpec& spec) {
  RepOutcome out;
  const auto start = Clock::now();
  const double interleaved_at_start = rig.source.interleaved_seconds();
  rig.source.clear_stamps();
  (void)rig.simulation.oracle();
  append_tick_intervals_ms(rig.source, out.oracle_tick_ms);
  for (const std::string& label : spec.strategies) {
    const double interleaved_before = rig.source.interleaved_seconds();
    sim::RunResult run = run_strategy(
        rig, spec, strategy_factory(rig.experiment, label), spec.threads);
    out.verdict.add(run);
    out.strategy_wall_s += run.wall_seconds - (rig.source.interleaved_seconds() -
                                               interleaved_before);
    out.subscriber_ticks +=
        static_cast<double>(run.subscribers) * static_cast<double>(run.ticks);
    out.costs.add(run.metrics);
    append_tick_intervals_ms(rig.source, out.tick_ms);
    out.runs.push_back(std::move(run));
  }
  out.wall_s = seconds_between(start, Clock::now()) -
               (rig.source.interleaved_seconds() - interleaved_at_start);
  return out;
}

bool same_counted_output(const RepOutcome& a, const RepOutcome& b) {
  if (a.runs.size() != b.runs.size()) return false;
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    if (a.runs[i].trigger_log != b.runs[i].trigger_log ||
        counted_fields(a.runs[i].metrics) !=
            counted_fields(b.runs[i].metrics)) {
      return false;
    }
  }
  return true;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace salarm::perfbench
