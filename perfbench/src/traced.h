// The traced run: per-layer metrics, timed from outside at the layers'
// public calls (perfbench/NOTES.md lists them and what each should move).
#pragma once

#include "report.h"
#include "workload.h"

namespace salarm::perfbench {

/// Builds the workload, makes an untraced pass (after a warm-up pass) and a
/// traced one, checks thread-count bit-identity on multi-threaded
/// workloads, replays sampled contacts through the layer entry points, and
/// adds every per-layer metric to `report`.
Verdict run_traced(const WorkloadSpec& spec, Report& report);

}  // namespace salarm::perfbench
