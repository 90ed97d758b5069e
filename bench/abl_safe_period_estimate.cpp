// Ablation: the safe-period baseline's dependence on motion estimation
// (paper §1: "safe period computation heavily relies on future motion
// estimation of the mobile user"). With the sound pessimistic speed bound
// SP is accurate but chatty; assuming a lower speed trades messages for
// alarm misses — the trade-off the safe-region architecture avoids.
//
// The optimistic variant is the paper's SP strategy granting periods at a
// speed below the true bound: the bench builds it with the scaled speed,
// and the core keeps only the sound one.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "strategies/safe_period.h"

using namespace salarm;

int main() {
  core::ExperimentConfig cfg = bench::default_config();
  bench::print_banner("Ablation", "safe-period motion-estimation assumption",
                      cfg);

  core::Experiment experiment(cfg);
  const double bound = experiment.max_speed_bound();
  std::printf("%-24s %12s %10s %10s %10s\n", "assumed speed", "messages",
              "expected", "missed", "late");
  for (const double factor : {1.0, 0.75, 0.5, 0.25}) {
    const auto run = experiment.simulation().run(
        [&, assumed_speed = bound * factor](net::ClientLink& link) {
          return std::make_unique<strategies::SafePeriodStrategy>(
              link, assumed_speed, cfg.tick_seconds);
        });
    char label[40];
    std::snprintf(label, sizeof label, "%.0f%% of true bound",
                  100.0 * factor);
    std::printf("%-24s %12s %10zu %10zu %10zu\n", label,
                bench::with_commas(run.metrics.uplink_messages).c_str(),
                run.accuracy.expected, run.accuracy.missed,
                run.accuracy.late);
  }
  std::printf("\nonly the 100%% (pessimistic) assumption is accurate; "
              "optimism buys fewer\nmessages at the price of missed "
              "alarms.\n");
  return 0;
}
