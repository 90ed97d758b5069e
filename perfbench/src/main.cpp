// salarm_perfbench — the repository benchmark's harness.
//
//   salarm_perfbench --workload <paper-mix|cluster-scale|churn-faults>
//                    --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// --trace 0 measures the end-to-end metrics: it repeats the whole job (set
// up the experiment, compute the oracle, run every strategy and score it)
// until --seconds have passed, drops the first repetition as warm-up and
// reports medians, scaled to the reference host's speed (host_speed.h).
// --trace 1 makes the separate traced run that gives the
// per-layer metrics (traced.cpp). Either way the last line of standard
// output is the result object; the exit code is 1 when any run was not
// oracle-exact or any determinism check failed, 2 on bad arguments.
// perfbench/NOTES.md describes every metric.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "host_speed.h"
#include "report.h"
#include "traced.h"
#include "workload.h"

using namespace salarm;
using namespace salarm::perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

/// Set-up-only builds before the first repetition.
constexpr std::size_t kExtraSetups = 6;

/// Per-index median over repetitions of equally long series.
std::vector<double> median_per_index(
    const std::vector<std::vector<double>>& series) {
  std::vector<double> out;
  if (series.empty()) return out;
  for (std::size_t i = 0; i < series.front().size(); ++i) {
    std::vector<double> at;
    for (const auto& s : series) at.push_back(s[i]);
    out.push_back(median(std::move(at)));
  }
  return out;
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

/// The timed jobs' pieces. A job is deterministic: tick i does the same
/// work in every job, and only the shared host's brief stalls make its time
/// differ. So each tick's time is its median over the jobs, and a job's
/// time is the sum of those medians plus the median of what lies outside
/// the tick intervals (tick 0, the last tick, starting and scoring each
/// run).
struct JobPieces {
  std::vector<std::vector<double>> oracle_tick_ms;
  std::vector<std::vector<double>> strategy_tick_ms;
  std::vector<double> oracle_rest_s;
  std::vector<double> strategy_rest_s;

  void add(const RepOutcome& rep) {
    oracle_rest_s.push_back(rep.wall_s - rep.strategy_wall_s -
                            sum(rep.oracle_tick_ms) / 1e3);
    strategy_rest_s.push_back(rep.strategy_wall_s - sum(rep.tick_ms) / 1e3);
    oracle_tick_ms.push_back(rep.oracle_tick_ms);
    strategy_tick_ms.push_back(rep.tick_ms);
  }

  /// Every strategy run's ticks, each its median over the jobs.
  std::vector<double> strategy_ticks_ms() const {
    return median_per_index(strategy_tick_ms);
  }
  /// The strategy runs' summed time.
  double strategy_s() const {
    return sum(strategy_ticks_ms()) / 1e3 + median(strategy_rest_s);
  }
  /// The oracle plus every strategy run.
  double wall_s() const {
    return sum(median_per_index(oracle_tick_ms)) / 1e3 +
           median(oracle_rest_s) + strategy_s();
  }
};

/// How often the kernel is timed during the ticks: one run of about 2 ms
/// every 50 ms, so a few percent of the run.
constexpr auto kKernelEvery = std::chrono::milliseconds(50);

/// The end-to-end run: whole jobs back to back until the time is up. Every
/// time is scaled by the host's speed over the run (host_speed.h): the
/// kernel is timed before and after the extra set-ups, and within each job
/// from the trace source's step() every kKernelEvery, its time left out.
Verdict run_end_to_end(const WorkloadSpec& spec, double seconds,
                       Report& report) {
  Verdict verdict;
  std::vector<double> setup_s;
  JobPieces pieces;
  std::vector<double> measured_wall_s;
  std::vector<double> kernel_ms;
  std::unique_ptr<RepOutcome> first;
  const auto start = Clock::now();
  {
    std::vector<double> warm_up;
    time_kernel(warm_up, 4);
  }
  time_kernel(kernel_ms, 8);
  // Set-up alone is short, so time a few extra builds for a steady median;
  // the first build in the process is warm-up and is dropped.
  for (std::size_t i = 0; i < kExtraSetups; ++i) {
    const auto t0 = Clock::now();
    const Rig rig(spec);
    if (i > 0) setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  time_kernel(kernel_ms, 8);
  for (std::size_t rep = 0;; ++rep) {
    std::vector<double> job_kernel_ms;
    const auto t0 = Clock::now();
    auto rig = std::make_unique<Rig>(spec);
    const double setup = seconds_between(t0, Clock::now());
    rig->source.set_interleaved([&] { time_kernel(job_kernel_ms, 1); },
                                kKernelEvery);
    RepOutcome outcome = run_rep(*rig, spec);
    rig.reset();
    verdict.merge(outcome.verdict);
    std::printf("job %zu: setup %.4f s, wall %.4f s, strategies %.4f s, "
                "host speed %.4f\n",
                rep, setup, outcome.wall_s, outcome.strategy_wall_s,
                host_speed(job_kernel_ms));
    if (first == nullptr) {
      first = std::make_unique<RepOutcome>(std::move(outcome));
    } else {
      if (!same_counted_output(*first, outcome)) {
        verdict.fail("a repetition's trigger log or counted metrics differ");
      }
      // The first repetition is warm-up: it is checked but not timed.
      setup_s.push_back(setup);
      pieces.add(outcome);
      measured_wall_s.push_back(outcome.wall_s);
      kernel_ms.insert(kernel_ms.end(), job_kernel_ms.begin(),
                       job_kernel_ms.end());
    }
    // Stop when one more repetition of the average length would overrun.
    const double elapsed = seconds_between(start, Clock::now());
    if (rep >= 1 && elapsed * (rep + 2.0) / (rep + 1.0) > seconds) break;
  }

  const double speed = host_speed(kernel_ms);
  const std::vector<double> tick_ms = pieces.strategy_ticks_ms();
  std::printf("%s: %zu timed repetitions after 1 warm-up, %zu set-ups, "
              "%zu ticks, %zu kernel timings\n",
              spec.name.c_str(), measured_wall_s.size(), setup_s.size(),
              tick_ms.size(), kernel_ms.size());
  std::printf("measured: median job wall time %.6g s at host speed %.4f\n",
              median(measured_wall_s), speed);
  std::printf("trigger_error_ratio = %.6g (failed / expected triggers)\n",
              verdict.expected == 0
                  ? 0.0
                  : static_cast<double>(verdict.failed) /
                        static_cast<double>(verdict.expected));
  const PaperCosts& costs = first->costs;
  report.add("setup_s", median(setup_s) * speed, "s");
  report.add("wall_s", pieces.wall_s() * speed, "s");
  report.add("sub_ticks_per_s",
             first->subscriber_ticks / (pieces.strategy_s() * speed), "1/s");
  report.add("tick_ms_p50", percentile(tick_ms, 0.50) * speed, "ms");
  report.add("tick_ms_p95", percentile(tick_ms, 0.95) * speed, "ms");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("uplink_msgs", costs.uplink_msgs, "count");
  report.add("downlink_kb", costs.downlink_kb, "KB");
  report.add("client_energy_mwh", costs.client_energy_mwh, "mWh");
  report.add("server_model_s", costs.server_model_s, "s");
  return verdict;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: salarm_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke]\n");
    return 2;
  }
  const auto spec = find_workload(args.workload, args.seed, args.smoke);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  try {
    Report report;
    const Verdict verdict = args.trace
                                ? run_traced(*spec, report)
                                : run_end_to_end(*spec, args.seconds, report);
    report.print(verdict.correct, verdict.attempted, verdict.failed);
    return verdict.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "salarm_perfbench: %s\n", e.what());
    return 1;
  }
}
