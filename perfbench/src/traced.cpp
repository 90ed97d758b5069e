#include "traced.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alarms/alarm_store.h"
#include "cluster/shard_map.h"
#include "common/rng.h"
#include "common/units.h"
#include "dynamics/churn.h"
#include "roadnet/network_builder.h"
#include "saferegion/motion_model.h"
#include "saferegion/mwpsr.h"
#include "saferegion/pyramid.h"
#include "saferegion/wire_format.h"
#include "sim/oracle.h"
#include "sim/tick_pipeline.h"
#include "strategies/strategy.h"

namespace salarm::perfbench {
namespace {

/// Shards the per-shard busy metrics are reported for (the most any
/// workload runs); absent shards report 0.
constexpr std::size_t kReportedShards = 4;

constexpr std::size_t kPhaseCount = 6;
constexpr std::array<const char*, kPhaseCount> kPhaseNames = {
    "failover", "churn", "checkpoints", "graveyard", "channel", "subscribers"};

std::size_t phase_index(sim::TickPhase phase) {
  return static_cast<std::size_t>(phase);
}

/// On-tick timing of one strategy run, filled by TimedStrategy. Slots are
/// indexed by shard, and the pipeline hands each shard's subscribers of a
/// tick to one thread, so every slot is written by one thread at a time
/// (the fan-out's join orders successive ticks).
struct ShardTimes {
  ShardTimes(std::size_t ticks, std::size_t shard_count)
      : shards(shard_count), busy_s(ticks * shard_count, 0.0),
        on_tick_us(shard_count) {}

  std::size_t shards;
  std::vector<double> busy_s;                   ///< [tick * shards + shard]
  std::vector<std::vector<double>> on_tick_us;  ///< per shard
};

/// Forwards to the strategy under test and times every call. The shard is
/// the benchmark's own ShardMap's owner of the sample, which is how the
/// pipeline groups subscribers.
class TimedStrategy final : public strategies::ProcessingStrategy {
 public:
  TimedStrategy(std::unique_ptr<strategies::ProcessingStrategy> inner,
                const cluster::ShardMap& map, ShardTimes& times)
      : inner_(std::move(inner)), map_(map), times_(times) {}

  std::string_view name() const override { return inner_->name(); }

  void initialize(alarms::SubscriberId s,
                  const mobility::VehicleSample& sample) override {
    const auto start = Clock::now();
    inner_->initialize(s, sample);
    times_.busy_s[map_.shard_of(sample.pos)] +=
        seconds_between(start, Clock::now());
  }

  void on_tick(alarms::SubscriberId s, const mobility::VehicleSample& sample,
               std::uint64_t tick) override {
    const auto start = Clock::now();
    inner_->on_tick(s, sample, tick);
    const double elapsed = seconds_between(start, Clock::now());
    const std::size_t shard = map_.shard_of(sample.pos);
    times_.busy_s[tick * times_.shards + shard] += elapsed;
    times_.on_tick_us[shard].push_back(elapsed * 1e6);
  }

 private:
  std::unique_ptr<strategies::ProcessingStrategy> inner_;
  const cluster::ShardMap& map_;
  ShardTimes& times_;
};

struct PhaseStamp {
  sim::TickPhase phase;
  std::uint64_t tick;
  Clock::time_point at;
};

/// Pipeline and cluster timings summed over the traced strategy runs.
struct PipelineTotals {
  std::vector<double> step_ms;
  double step_s = 0.0;
  double run_wall_s = 0.0;
  std::array<double, kPhaseCount> phase_s{};
  /// Ticks with a complete record (every tick but the first and last).
  double ticks = 0.0;
  double tick_s = 0.0;
  double serial_s = 0.0;
  std::array<double, kReportedShards> shard_busy_s{};
  double busy_s = 0.0;
  /// Threads x fan-out wall time: what the pool could have done.
  double fanout_capacity_s = 0.0;
  std::vector<double> skew;

  void add_run(const StampedSource& source,
               const std::vector<PhaseStamp>& stamps,
               const ShardTimes& times, std::size_t threads, double wall);
};

void PipelineTotals::add_run(const StampedSource& source,
                             const std::vector<PhaseStamp>& stamps,
                             const ShardTimes& times, std::size_t threads,
                             double wall) {
  // entries[k] / exits[k] bracket the trace step that starts tick k + 1.
  const auto& entries = source.step_entries();
  const auto& exits = source.step_exits();
  for (std::size_t k = 0; k < entries.size() && k < exits.size(); ++k) {
    const double s = seconds_between(entries[k], exits[k]);
    step_ms.push_back(s * 1e3);
    step_s += s;
  }
  run_wall_s += wall;

  // A phase lasts until the next phase of its tick is entered; the
  // subscriber fan-out lasts until the next tick's trace step starts.
  for (std::size_t j = 0; j < stamps.size(); ++j) {
    const PhaseStamp& stamp = stamps[j];
    const bool fan_out = stamp.phase == sim::TickPhase::kSubscribers;
    Clock::time_point end;
    if (j + 1 < stamps.size() && stamps[j + 1].tick == stamp.tick) {
      end = stamps[j + 1].at;
    } else if (fan_out && stamp.tick < entries.size()) {
      end = entries[stamp.tick];
    } else {
      continue;
    }
    const double span = seconds_between(stamp.at, end);
    phase_s[phase_index(stamp.phase)] += span;
    if (!fan_out) continue;

    const std::size_t t = stamp.tick;
    const double interval = seconds_between(entries[t - 1], entries[t]);
    ticks += 1.0;
    tick_s += interval;
    serial_s += interval - span;
    double sum = 0.0;
    double max = 0.0;
    for (std::size_t shard = 0; shard < times.shards; ++shard) {
      const double busy = times.busy_s[t * times.shards + shard];
      sum += busy;
      max = std::max(max, busy);
      if (shard < kReportedShards) shard_busy_s[shard] += busy;
    }
    busy_s += sum;
    fanout_capacity_s += static_cast<double>(threads) * span;
    if (sum > 0.0) {
      skew.push_back(max / (sum / static_cast<double>(times.shards)));
    }
  }
}

/// What the traced pass measured per strategy.
struct StrategyTrace {
  double run_s = 0.0;
  double on_tick_us_p50 = 0.0;
  double on_tick_us_p99 = 0.0;
  double contact_ratio = 0.0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double count(std::uint64_t v) { return static_cast<double>(v); }

/// A fresh store holding `alarms`, built the way the server stands up its
/// index; returns the install_bulk time through `seconds`.
std::unique_ptr<alarms::AlarmStore> copy_store(
    const alarms::AlarmStore& like,
    const std::vector<alarms::SpatialAlarm>& alarms, double* seconds) {
  auto store =
      std::make_unique<alarms::AlarmStore>(like.rtree_node_capacity());
  const auto start = Clock::now();
  store->install_bulk(alarms);
  if (seconds != nullptr) *seconds = seconds_between(start, Clock::now());
  return store;
}

/// Replays contacts sampled from the workload's own trace through the
/// layer entry points a server contact runs, on a copy of the initial
/// alarm set, and reports each call's mean time next to its call count.
/// Each entry point is timed as one loop over every sample.
void replay_contacts(Rig& rig, const WorkloadSpec& spec,
                     const std::vector<alarms::SpatialAlarm>& initial,
                     Report& report) {
  struct Contact {
    alarms::SubscriberId subscriber = 0;
    mobility::VehicleSample sample;
    std::uint64_t tick = 0;
    geo::Rect cell{geo::Point{}, geo::Point{}};
    std::vector<geo::Rect> alarms;
  };
  // Every 10th tick, and a stride of vehicles sized to ~4,000 contacts.
  constexpr std::size_t kTickStride = 10;
  constexpr std::size_t kTargetContacts = 4000;
  const std::size_t ticks = spec.config.ticks();
  const std::size_t vehicles = rig.source.vehicle_count();
  const std::size_t sampled_ticks = std::max<std::size_t>(
      1, (ticks - 1) / kTickStride);
  const std::size_t vehicle_stride = std::max<std::size_t>(
      1, (vehicles * sampled_ticks + kTargetContacts - 1) / kTargetContacts);
  std::vector<Contact> contacts;
  rig.source.reset();
  for (std::size_t t = 1; t < ticks; ++t) {
    rig.source.step();
    if (t % kTickStride != 0) continue;
    const auto& samples = rig.source.samples();
    for (std::size_t v = t % vehicle_stride; v < vehicles;
         v += vehicle_stride) {
      Contact& c = contacts.emplace_back();
      c.subscriber = static_cast<alarms::SubscriberId>(v);
      c.sample = samples[v];
      c.tick = static_cast<std::uint64_t>(t);
    }
  }
  const grid::GridOverlay& grid = rig.experiment.grid();
  auto store = copy_store(rig.experiment.store(), initial, nullptr);
  const double n = static_cast<double>(contacts.size());
  // Sinks keep the timed results observable.
  std::uint64_t sink = 0;

  // The alarm probe of a position report (fires and spends, as live).
  store->reset_index_node_accesses();
  auto start = Clock::now();
  for (const Contact& c : contacts) {
    sink += store->process_position(c.subscriber, c.sample.pos, c.tick,
                                     nullptr)
                .size();
  }
  const double probe_s = seconds_between(start, Clock::now());
  const double probe_accesses = count(store->index_node_accesses());

  // The relevant alarms of each contact's cell: the safe-region input.
  for (Contact& c : contacts) {
    c.cell = grid.cell_rect(grid.cell_of(c.sample.pos));
    for (const alarms::SpatialAlarm* a :
         store->relevant_in_window(c.cell, c.subscriber)) {
      c.alarms.push_back(a->region);
    }
  }

  const saferegion::MotionModel model(1.0, 32);
  start = Clock::now();
  for (const Contact& c : contacts) {
    sink += saferegion::compute_mwpsr(c.sample.pos, c.sample.heading, c.cell,
                                      c.alarms, model)
                .ops;
  }
  const double mwpsr_s = seconds_between(start, Clock::now());

  saferegion::PyramidConfig pbsr;
  pbsr.height = 5;
  std::vector<saferegion::PyramidBitmap> bitmaps;
  bitmaps.reserve(contacts.size());
  std::uint64_t pyramid_ops = 0;
  start = Clock::now();
  for (const Contact& c : contacts) {
    bitmaps.push_back(saferegion::PyramidBitmap::build(c.cell, c.alarms, pbsr,
                                                       &pyramid_ops));
  }
  const double pyramid_s = seconds_between(start, Clock::now());

  start = Clock::now();
  for (const saferegion::PyramidBitmap& bitmap : bitmaps) {
    sink += wire::encode(wire::PyramidSafeRegionMsg::from(bitmap)).size();
  }
  const double encode_s = seconds_between(start, Clock::now());

  double nn_sink = 0.0;
  start = Clock::now();
  for (const Contact& c : contacts) {
    nn_sink += store->nearest_relevant_distance(c.sample.pos, c.subscriber);
  }
  const double nn_s = seconds_between(start, Clock::now());

  // Index writes: uninstall a strided sample of alarms, then reinstall
  // them, leaving the set as it was.
  std::vector<alarms::SpatialAlarm> moved;
  const std::size_t alarm_stride = std::max<std::size_t>(
      1, initial.size() / 1000);
  for (std::size_t i = 0; i < initial.size(); i += alarm_stride) {
    moved.push_back(initial[i]);
  }
  start = Clock::now();
  for (const alarms::SpatialAlarm& a : moved) {
    sink += store->uninstall(a.id) ? 1 : 0;
  }
  const double uninstall_s = seconds_between(start, Clock::now());
  start = Clock::now();
  for (const alarms::SpatialAlarm& a : moved) store->install(a);
  const double install_s = seconds_between(start, Clock::now());
  const double m = static_cast<double>(moved.size());

  std::printf("replay: %zu contacts, %zu index updates (sinks %llu %.3g)\n",
              contacts.size(), moved.size(),
              static_cast<unsigned long long>(sink + pyramid_ops), nn_sink);
  report.add("replay.contacts", n, "count");
  report.add("replay.index_updates", m, "count");
  report.add("alarms.probe_us", ratio(probe_s * 1e6, n), "us");
  report.add("index.node_accesses_per_probe", ratio(probe_accesses, n),
             "count");
  report.add("alarms.install_us", ratio(install_s * 1e6, m), "us");
  report.add("alarms.uninstall_us", ratio(uninstall_s * 1e6, m), "us");
  report.add("saferegion.mwpsr_us", ratio(mwpsr_s * 1e6, n), "us");
  report.add("saferegion.pyramid_build_us", ratio(pyramid_s * 1e6, n), "us");
  report.add("saferegion.safe_period_nn_us", ratio(nn_s * 1e6, n), "us");
  report.add("saferegion.wire_encode_us", ratio(encode_s * 1e6, n), "us");
}

}  // namespace

Verdict run_traced(const WorkloadSpec& spec, Report& report) {
  Verdict verdict;
  const core::ExperimentConfig& cfg = spec.config;
  const std::size_t ticks = cfg.ticks();

  // Set-up layers, by direct call: the road network here, the alarm index
  // below (install_bulk of the experiment's alarm set into a fresh store).
  roadnet::NetworkConfig net;
  net.width_m = cfg.universe_km * kMetersPerKm;
  net.height_m = cfg.universe_km * kMetersPerKm;
  Rng network_rng(cfg.seed * 7919 + 1);
  auto start = Clock::now();
  const roadnet::RoadNetwork network =
      roadnet::build_synthetic_network(net, network_rng);
  const double network_s = seconds_between(start, Clock::now());

  Rig rig(spec);
  const std::vector<alarms::SpatialAlarm> initial =
      rig.experiment.store().all();

  // Warm-up pass, then the untraced pass the traced one is compared with.
  const RepOutcome warm = run_rep(rig, spec);
  const RepOutcome plain = run_rep(rig, spec);
  verdict.merge(warm.verdict);
  verdict.merge(plain.verdict);
  if (!same_counted_output(warm, plain)) {
    verdict.fail("a repetition's trigger log or counted metrics differ");
  }

  // The traced pass: phase stamps, step exits and per-call strategy times.
  const cluster::ShardMap map(rig.experiment.grid(), spec.shards);
  std::vector<PhaseStamp> stamps;
  stamps.reserve(ticks * kPhaseCount);
  rig.simulation.set_phase_observer(
      [&stamps](sim::TickPhase phase, std::uint64_t tick) {
        stamps.push_back({phase, tick, Clock::now()});
      });
  rig.source.set_step_timing(true);
  PipelineTotals pipeline;
  std::vector<StrategyTrace> strategy_traces(all_strategy_labels().size());
  double traced_wall_s = 0.0;
  for (std::size_t i = 0; i < spec.strategies.size(); ++i) {
    const std::string& label = spec.strategies[i];
    ShardTimes times(ticks, map.shard_count());
    stamps.clear();
    const auto inner = strategy_factory(rig.experiment, label);
    const sim::Simulation::StrategyFactory timed =
        [&inner, &map, &times](net::ClientLink& link) {
          return std::make_unique<TimedStrategy>(inner(link), map, times);
        };
    const sim::RunResult run = run_strategy(rig, spec, timed, spec.threads);
    verdict.add(run);
    const sim::RunResult& base = plain.runs[i];
    if (run.trigger_log != base.trigger_log ||
        counted_fields(run.metrics) != counted_fields(base.metrics)) {
      verdict.fail("tracing changed a trigger log or counted metrics");
    }
    traced_wall_s += run.wall_seconds;
    pipeline.add_run(rig.source, stamps, times, spec.threads,
                     run.wall_seconds);

    std::vector<double> on_tick_us;
    for (const auto& shard : times.on_tick_us) {
      on_tick_us.insert(on_tick_us.end(), shard.begin(), shard.end());
    }
    const auto& labels = all_strategy_labels();
    const std::size_t slot = static_cast<std::size_t>(
        std::find(labels.begin(), labels.end(), label) - labels.begin());
    StrategyTrace& trace = strategy_traces[slot];
    trace.run_s = base.wall_seconds;
    trace.on_tick_us_p50 = percentile(on_tick_us, 0.50);
    trace.on_tick_us_p99 = percentile(on_tick_us, 0.99);
    trace.contact_ratio = ratio(count(base.metrics.uplink_messages),
                                count(base.subscribers) * count(base.ticks));
  }
  rig.simulation.set_phase_observer({});
  rig.source.set_step_timing(false);

  // Thread-count bit-identity, and the speedup it buys.
  double speedup = 1.0;
  const auto it =
      std::find(spec.strategies.begin(), spec.strategies.end(), "MWPSR");
  if (spec.threads > 1 && it != spec.strategies.end()) {
    const sim::RunResult& multi =
        plain.runs[static_cast<std::size_t>(it - spec.strategies.begin())];
    const sim::RunResult single = run_strategy(
        rig, spec, strategy_factory(rig.experiment, "MWPSR"), 1);
    verdict.add(single);
    if (single.trigger_log != multi.trigger_log ||
        counted_fields(single.metrics) != counted_fields(multi.metrics)) {
      verdict.fail("1-thread and multi-thread runs differ");
    }
    speedup = ratio(single.wall_seconds, multi.wall_seconds);
  }

  // The oracle by direct call, on a fresh copy of the initial alarm set
  // (with the workload's churn timeline rebuilt from the same seed).
  double alarm_index_s = 0.0;
  auto oracle_store =
      copy_store(rig.experiment.store(), initial, &alarm_index_s);
  std::optional<dynamics::AlarmScheduler> scheduler;
  if (spec.churn) {
    scheduler.emplace(churn_config(rig.experiment),
                      rig.experiment.grid().universe(), initial, ticks,
                      churn_seed(spec));
  }
  oracle_store->reset_index_node_accesses();
  start = Clock::now();
  const std::vector<alarms::TriggerEvent> truth =
      scheduler.has_value()
          ? sim::ground_truth_triggers(
                rig.source, *oracle_store, ticks,
                [&scheduler](std::size_t t, alarms::AlarmStore& store) {
                  scheduler->for_each_due(
                      static_cast<std::uint64_t>(t),
                      [&store](const dynamics::ChurnEvent& e) {
                        if (e.kind == dynamics::ChurnEvent::Kind::kInstall) {
                          store.install(e.alarm);
                        } else {
                          (void)store.uninstall(e.id);
                        }
                      });
                })
          : sim::ground_truth_triggers(rig.source, *oracle_store, ticks);
  const double oracle_s = seconds_between(start, Clock::now());
  const double oracle_accesses = count(oracle_store->index_node_accesses());
  if (truth != rig.simulation.oracle()) {
    verdict.fail("the direct oracle call differs from the simulation's");
  }

  sim::Metrics all;
  for (const sim::RunResult& run : plain.runs) all.merge(run.metrics);

  std::printf("%s traced: %zu strategy runs, %.0f complete ticks\n",
              spec.name.c_str(), spec.strategies.size(), pipeline.ticks);
  report.add("trace.overhead_share",
             ratio(traced_wall_s, plain.strategy_wall_s) - 1.0, "ratio");
  report.add("setup.network_s", network_s, "s");
  report.add("setup.alarm_index_s", alarm_index_s, "s");
  report.add("mobility.step_ms_p50", percentile(pipeline.step_ms, 0.50),
             "ms");
  report.add("mobility.step_share",
             ratio(pipeline.step_s, pipeline.run_wall_s), "ratio");
  report.add("oracle.s", oracle_s, "s");
  report.add("oracle.probes_per_s",
             ratio(count(rig.source.vehicle_count()) * count(ticks), oracle_s),
             "1/s");
  report.add("oracle.node_accesses", oracle_accesses, "count");
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    report.add(std::string("phase.") + kPhaseNames[p] + "_ms",
               ratio(pipeline.phase_s[p] * 1e3, pipeline.ticks), "ms");
  }
  report.add("pipeline.serial_share",
             ratio(pipeline.serial_s, pipeline.tick_s), "ratio");
  for (std::size_t shard = 0; shard < kReportedShards; ++shard) {
    report.add("cluster.shard_busy_ms." + std::to_string(shard),
               ratio(pipeline.shard_busy_s[shard] * 1e3, pipeline.ticks),
               "ms");
  }
  report.add("cluster.shard_skew", median(pipeline.skew), "ratio");
  report.add("cluster.fanout_wait_share",
             1.0 - ratio(pipeline.busy_s, pipeline.fanout_capacity_s),
             "ratio");
  report.add("cluster.speedup_vs_1t", speedup, "ratio");
  report.add("cluster.handoff_msgs", count(all.handoff_messages), "count");
  for (std::size_t i = 0; i < all_strategy_labels().size(); ++i) {
    const std::string prefix = "strategy." + all_strategy_labels()[i] + ".";
    const StrategyTrace& trace = strategy_traces[i];
    report.add(prefix + "run_s", trace.run_s, "s");
    report.add(prefix + "on_tick_us_p50", trace.on_tick_us_p50, "us");
    report.add(prefix + "on_tick_us_p99", trace.on_tick_us_p99, "us");
    report.add(prefix + "contact_ratio", trace.contact_ratio, "ratio");
  }
  replay_contacts(rig, spec, initial, report);
  report.add("saferegion.region_bytes_mean", all.region_payload_bytes.mean(),
             "B");
  report.add("saferegion.server_region_ops", count(all.server_region_ops),
             "count");
  report.add("net.retransmissions", count(all.net_retransmissions), "count");
  report.add("net.retransmit_ratio",
             ratio(count(all.net_retransmissions), count(all.uplink_messages)),
             "ratio");
  report.add("net.duplicates_dropped", count(all.net_duplicates_dropped),
             "count");
  report.add("net.delivery_latency_ms_mean",
             all.net_delivery_latency_ms.mean(), "ms");
  report.add("net.buffered_reports", count(all.net_buffered_reports),
             "count");
  report.add("dynamics.installs", count(all.alarms_installed), "count");
  report.add("dynamics.removes", count(all.alarms_removed), "count");
  report.add("dynamics.invalidation_pushes", count(all.invalidation_pushes),
             "count");
  report.add("dynamics.invalidation_kb",
             count(all.invalidation_bytes) / 1024.0, "KB");
  report.add("failover.crashes", count(all.fo_crashes), "count");
  report.add("failover.checkpoint_kb", count(all.fo_checkpoint_bytes) / 1024.0,
             "KB");
  report.add("failover.journal_kb", count(all.fo_journal_bytes) / 1024.0,
             "KB");
  report.add("failover.replays", count(all.fo_journal_replays), "count");
  report.add("failover.degraded_ticks", count(all.fo_degraded_ticks),
             "count");
  return verdict;
}

}  // namespace salarm::perfbench
