// Fidelity study: what does trace-tick granularity hide?
//
// The paper determines ground truth from "a very high frequency trace";
// both its approaches and this reproduction evaluate positions at tick
// granularity. Between two ticks a vehicle can clip an alarm region's
// corner without either sampled position being inside. This study replays
// the default trace, tests every inter-tick motion segment against the
// relevant alarm regions, and reports how many continuous entry events are
// invisible to tick sampling — bounding what any tick-based processing
// scheme (PRD included) can observe, and quantifying how "high frequency"
// the trace must be.
#include <cstdio>
#include <unordered_set>

#include "bench_common.h"
#include "mobility/trace_generator.h"
#include "segment.h"

using namespace salarm;

int main() {
  core::ExperimentConfig cfg = bench::default_config();
  bench::print_banner("Fidelity", "continuous vs tick-sampled alarm entries",
                      cfg);

  std::printf("%-10s %16s %16s %10s\n", "tick (s)", "tick entries",
              "segment entries", "hidden");
  for (const double tick_s : {4.0, 2.0, 1.0, 0.5}) {
    core::ExperimentConfig scaled = cfg;
    scaled.tick_seconds = tick_s;
    core::Experiment experiment(scaled);
    auto& store = experiment.store();
    store.reset_triggers();

    mobility::TraceConfig trace_cfg;
    trace_cfg.vehicle_count = scaled.vehicles;
    trace_cfg.tick_seconds = tick_s;
    trace_cfg.seed = scaled.seed * 104729 + 2;
    mobility::TraceGenerator gen(experiment.network(), trace_cfg);

    // Tick-sampled entries: distinct (alarm, subscriber) pairs whose
    // sampled position is inside; segment entries: pairs whose inter-tick
    // segment crosses the interior.
    std::unordered_set<std::uint64_t> tick_pairs;
    std::unordered_set<std::uint64_t> segment_pairs;
    auto key = [](alarms::AlarmId a, alarms::SubscriberId s) {
      return (static_cast<std::uint64_t>(a) << 32) | s;
    };

    std::vector<geo::Point> previous(scaled.vehicles);
    for (std::size_t v = 0; v < scaled.vehicles; ++v) {
      previous[v] = gen.samples()[v].pos;
    }
    const auto ticks = scaled.ticks();
    for (std::size_t t = 0; t < ticks; ++t) {
      if (t > 0) gen.step();
      for (std::size_t v = 0; v < scaled.vehicles; ++v) {
        const geo::Point now = gen.samples()[v].pos;
        const auto s = static_cast<alarms::SubscriberId>(v);
        const geo::Rect sweep = geo::Rect::bounding(previous[v], now);
        for (const alarms::SpatialAlarm* alarm :
             store.relevant_in_window(sweep, s)) {
          if (alarm->region.interior_contains(now)) {
            tick_pairs.insert(key(alarm->id, s));
            segment_pairs.insert(key(alarm->id, s));
          } else if (t > 0 && geo::segment_intersects_interior(
                                  previous[v], now, alarm->region)) {
            segment_pairs.insert(key(alarm->id, s));
          }
        }
        previous[v] = now;
      }
    }
    const std::size_t hidden = segment_pairs.size() - tick_pairs.size();
    std::printf("%-10.1f %16zu %16zu %9.1f%%\n", tick_s, tick_pairs.size(),
                segment_pairs.size(),
                100.0 * static_cast<double>(hidden) /
                    static_cast<double>(segment_pairs.size()));
  }
  std::printf(
      "\nfiner ticks expose more of the continuous truth; at the paper's "
      "~1-2 Hz the\nhidden fraction is the corner-cutting residue every "
      "tick-based scheme shares.\n");
  return 0;
}
