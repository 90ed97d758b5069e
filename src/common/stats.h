// Streaming statistics used by the metrics subsystem and the benches.
#pragma once

#include <cstddef>
#include <limits>

namespace salarm {

/// Single-pass accumulator for count / mean / variance / min / max
/// (Welford's algorithm, numerically stable).
class RunningStat {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance; 0 for fewer than two observations.
  double variance() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  /// Merges another accumulator into this one (parallel Welford merge).
  void merge(const RunningStat& other);

  bool operator==(const RunningStat&) const = default;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace salarm
