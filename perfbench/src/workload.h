// The benchmark's three workloads and the rig that runs one of them.
//
// Everything here goes through salarm's public API: core::Experiment builds
// the workload, the benchmark's own StampedSource (a TraceGenerator over the
// experiment's network) drives a sim::Simulation, and the strategies come
// from the experiment's factories. The program under test receives only the
// generated workload; the seed stays in the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "mobility/trace_generator.h"
#include "sim/cost_model.h"
#include "sim/simulation.h"

namespace salarm::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One benchmark workload: the experiment, how it is run, and which
/// strategies run on it after the oracle.
///
/// The road network and the initial alarm set are the deployment and stay
/// fixed (config.seed is kMapSeed, like the paper's one map); the workload
/// seed draws the traffic on it: the vehicles' trips, the churn timeline,
/// the channel's faults and the shard crashes.
struct WorkloadSpec {
  std::string name;
  core::ExperimentConfig config;
  std::uint64_t seed = 0;
  std::size_t shards = 1;
  std::size_t threads = 1;
  bool churn = false;
  /// Faulty channel plus shard crashes.
  bool faults = false;
  /// Labels among PRD, SP, MWPSR, PBSR, OPT, in run order.
  std::vector<std::string> strategies;
};

/// The strategy labels every workload reports per-layer metrics for.
const std::vector<std::string>& all_strategy_labels();

/// The named workload at full or smoke size; nullopt for an unknown name.
std::optional<WorkloadSpec> find_workload(std::string_view name,
                                          std::uint64_t seed, bool smoke);

/// The benchmark's position source: forwards to a TraceGenerator and stamps
/// every step() entry, which marks a tick boundary of the closed loop.
/// reset() clears the stamps, so after a Simulation run they hold exactly
/// that run's ticks (the oracle's replay comes before the run's reset).
/// With step timing on it also stamps every step() exit.
class StampedSource final : public mobility::PositionSource {
 public:
  StampedSource(const roadnet::RoadNetwork& network,
                const mobility::TraceConfig& config, std::size_t ticks);

  void reset() override;
  void step() override;
  const std::vector<mobility::VehicleSample>& samples() const override {
    return generator_.samples();
  }
  std::size_t vehicle_count() const override {
    return generator_.vehicle_count();
  }
  double tick_seconds() const override { return generator_.tick_seconds(); }
  geo::Rect extent() const override { return generator_.extent(); }

  void set_step_timing(bool on) { step_timing_ = on; }
  /// Has step() call `task` before its entry stamp whenever `every` has
  /// passed since the last call. The task's time is left out of every
  /// stamp taken after it, so tick intervals do not include it.
  void set_interleaved(std::function<void()> task, Clock::duration every) {
    task_ = std::move(task);
    interleave_every_ = every;
    last_interleaved_ = Clock::now();
  }
  /// Time spent in the interleaved task since construction.
  double interleaved_seconds() const {
    return std::chrono::duration<double>(interleaved_).count();
  }
  /// Forgets the stamps without resetting the trace.
  void clear_stamps() {
    entries_.clear();
    exits_.clear();
  }
  /// step() entry / exit stamps since the last reset(); entry i starts
  /// tick i + 1.
  const std::vector<Clock::time_point>& step_entries() const {
    return entries_;
  }
  const std::vector<Clock::time_point>& step_exits() const { return exits_; }

 private:
  mobility::TraceGenerator generator_;
  bool step_timing_ = false;
  std::function<void()> task_;
  Clock::duration interleave_every_{};
  Clock::time_point last_interleaved_{};
  Clock::duration interleaved_{};
  std::vector<Clock::time_point> entries_;
  std::vector<Clock::time_point> exits_;
};

/// One built workload: the experiment, the benchmark's source over its
/// network, and a simulation over both with churn / channel / failover
/// armed as the spec says. Constructing it is the set-up that setup_s
/// times.
struct Rig {
  explicit Rig(const WorkloadSpec& spec);

  core::Experiment experiment;
  StampedSource source;
  sim::Simulation simulation;
};

/// The seed of the map and the initial alarm set (the figure benches'
/// default seed).
inline constexpr std::uint64_t kMapSeed = 42;

/// Streams the rig derives from the workload seed (with core::Experiment's
/// derivation, so at seed 42 the trace is the figure benches' trace).
mobility::TraceConfig trace_config(const WorkloadSpec& spec);
std::uint64_t churn_seed(const WorkloadSpec& spec);
dynamics::ChurnConfig churn_config(const core::Experiment& experiment);

/// The strategy factory for a label (PRD, SP, MWPSR, PBSR or OPT).
sim::Simulation::StrategyFactory strategy_factory(
    const core::Experiment& experiment, std::string_view label);

/// Runs one strategy on the spec's shard count at `threads` threads.
sim::RunResult run_strategy(Rig& rig, const WorkloadSpec& spec,
                            const sim::Simulation::StrategyFactory& factory,
                            std::size_t threads);

/// Every counted field of a run's metrics, for exact comparisons across
/// repetitions and thread counts.
std::vector<std::uint64_t> counted_fields(const sim::Metrics& m);

/// The paper-unit costs the end-to-end run reports (Fig. 6a-d), summed
/// over strategy runs.
struct PaperCosts {
  double uplink_msgs = 0.0;
  double downlink_kb = 0.0;
  double client_energy_mwh = 0.0;
  double server_model_s = 0.0;

  void add(const sim::Metrics& m);
};

/// Accuracy of a set of strategy runs. Every subscriber-tick a run
/// processes is one attempted operation, checked against the oracle; every
/// missed, spurious or late trigger is one failure. A run that is not
/// oracle-exact, or any other failed check, makes the verdict incorrect.
struct Verdict {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Triggers the oracle expected, summed over runs.
  std::uint64_t expected = 0;

  /// Scores one run, printing its accuracy counts if it is not exact.
  void add(const sim::RunResult& run);
  /// Records a failed check other than accuracy.
  void fail(const char* what);
  void merge(const Verdict& other);
};

/// One pass over a rig's workload: the oracle (computed once per rig and
/// cached by the simulation), then every strategy of the spec.
struct RepOutcome {
  /// Oracle plus every strategy run, scored.
  double wall_s = 0.0;
  /// Sum of the strategy runs' own wall times.
  double strategy_wall_s = 0.0;
  /// Sum over strategy runs of subscribers x ticks.
  double subscriber_ticks = 0.0;
  PaperCosts costs;
  /// Intervals between successive tick starts of the oracle's replay (ms),
  /// empty when the simulation had the oracle cached.
  std::vector<double> oracle_tick_ms;
  /// The same for the strategy runs, pooled in run order.
  std::vector<double> tick_ms;
  std::vector<sim::RunResult> runs;
  Verdict verdict;
};

/// Runs the pass. The source's interleaved task is left out of every time.
RepOutcome run_rep(Rig& rig, const WorkloadSpec& spec);

/// True when two passes produced identical trigger logs and counted
/// metrics, run by run.
bool same_counted_output(const RepOutcome& a, const RepOutcome& b);

/// Nearest-rank percentile of unsorted samples (q in [0, 1]); 0 if empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Maximum resident set size of this process so far, in MB.
double peak_rss_mb();

}  // namespace salarm::perfbench
