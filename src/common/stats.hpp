// Measurement helpers for benchmarks: running summary statistics and a
// latency recorder that keeps every sample. The bench binaries print the
// same rows the paper's figures plot (payload, mean latency, percentiles,
// krps), so these keep raw samples rather than approximating with fixed
// buckets. Named counters live in common/counters.hpp.
#pragma once

#include <cstddef>
#include <vector>

// perfbench reaches the counter forwarders through this header.
#include "common/counters.hpp"

namespace rubin {

/// Streaming mean / min / max / variance (Welford).
class Summary {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Stores every sample; percentile(q) interpolates linearly between the
/// two samples around rank q * (n - 1), so the median of 1..100 is 50.5.
class LatencyRecorder {
 public:
  void reserve(std::size_t n) { samples_.reserve(n); }
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const noexcept { return samples_.size(); }
  double mean() const noexcept;
  /// q in [0,1]; e.g. percentile(0.99). Sorts lazily.
  double percentile(double q) const;
  double min() const;
  double max() const;
  void clear() { samples_.clear(); sorted_ = false; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace rubin
