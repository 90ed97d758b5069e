// Ablation: MWPSR vs the Hu et al. [10]-style corner-candidate baseline.
//
// The paper (§3, §6): the baseline "leads to alarm misses and erroneous
// safe regions" when alarm regions overlap or intersect the coordinate
// axes; MWPSR's clamped candidates handle both. This bench runs the
// baseline through the full simulator and reports the misses — the only
// bench where imperfect accuracy is the expected result. The baseline
// and its strategy live next to this bench (corner_baseline.h), outside
// the library.
#include <cstdio>

#include "bench_common.h"
#include "corner_baseline.h"

using namespace salarm;

int main() {
  core::ExperimentConfig cfg = bench::default_config();
  bench::print_banner("Ablation",
                      "MWPSR vs corner-candidate baseline ([10])", cfg);

  core::Experiment experiment(cfg);
  const saferegion::MotionModel model(1.0, 32);

  const auto mwpsr = experiment.simulation().run(experiment.rect(model));
  bench::require_perfect(mwpsr);
  const auto baseline = experiment.simulation().run(
      bench::corner_baseline(model));

  std::printf("%-12s %12s %10s %10s %10s %10s\n", "approach", "messages",
              "expected", "missed", "late", "spurious");
  std::printf("%-12s %12s %10zu %10zu %10zu %10zu\n", "MWPSR",
              bench::with_commas(mwpsr.metrics.uplink_messages).c_str(),
              mwpsr.accuracy.expected, mwpsr.accuracy.missed,
              mwpsr.accuracy.late, mwpsr.accuracy.spurious);
  std::printf("%-12s %12s %10zu %10zu %10zu %10zu\n", "RECT[10]",
              bench::with_commas(baseline.metrics.uplink_messages).c_str(),
              baseline.accuracy.expected, baseline.accuracy.missed,
              baseline.accuracy.late, baseline.accuracy.spurious);

  const double miss_rate =
      100.0 * static_cast<double>(baseline.accuracy.missed +
                                  baseline.accuracy.late) /
      static_cast<double>(baseline.accuracy.expected);
  std::printf(
      "\nbaseline misses or delays %.1f%% of triggers (paper: \"leads to "
      "alarm misses\");\nMWPSR misses none.\n",
      miss_rate);
  return 0;
}
