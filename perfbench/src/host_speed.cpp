#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "workload.h"

namespace salarm::perfbench {
namespace {

/// 256 KB of doubles per sort.
constexpr std::size_t kValues = 1u << 15;

/// Keeps each sort's result alive so the compiler cannot drop it.
volatile double g_sink = 0.0;

/// Fills the buffer with the same pseudo-random doubles and sorts them.
double sort_ms(std::vector<double>& values) {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (double& v : values) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    v = static_cast<double>(state >> 11) * 0x1.0p-53;
  }
  std::sort(values.begin(), values.end());
  g_sink = values[kValues / 2];
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

void time_kernel(std::vector<double>& kernel_ms, int runs) {
  static std::vector<double> values(kValues);
  for (int i = 0; i < runs; ++i) kernel_ms.push_back(sort_ms(values));
}

double host_speed(std::vector<double> kernel_ms) {
  return kReferenceKernelMs / median(std::move(kernel_ms));
}

}  // namespace salarm::perfbench
