// The shared host's speed, measured with a fixed reference kernel.
//
// The hosts the benchmark runs on are shared, and how fast they run salarm
// drifts by a third or more over a few minutes as other tenants load them.
// The end-to-end run therefore times a fixed kernel before and after every
// job and scales the run's times by the host's speed over the whole run,
// so they read as seconds on the reference host: a change to the host moves
// the kernel and the job alike and cancels, a change to salarm moves only
// the job. The kernel calls no salarm code.
//
// The kernel sorts random doubles: branchy compute on data in the core's
// own caches. On the baseline host its time tracked salarm's job time
// (correlation 0.55 over 115 jobs), where a pointer walk over 1 MB or
// 32 MB did not (0.13 each); dividing by it cut the spread of 9-job
// medians from 0.108 to 0.032 of their value (NOTES.md). The speed is
// taken from the median of many short timings, so a stall that hits a few
// of them does not move it.
#pragma once

#include <vector>

namespace salarm::perfbench {

/// The kernel's time on the host the baseline was measured on (4-vCPU Xeon
/// VM, NOTES.md). It fixes the scale of every normalised time and never
/// changes.
inline constexpr double kReferenceKernelMs = 2.20;

/// Runs the kernel `runs` times on the calling thread and appends each
/// run's time (ms) to `kernel_ms`.
void time_kernel(std::vector<double>& kernel_ms, int runs);

/// The host's speed while `kernel_ms` were taken: kReferenceKernelMs over
/// their median, above 1 on a host faster than the reference one.
double host_speed(std::vector<double> kernel_ms);

}  // namespace salarm::perfbench
