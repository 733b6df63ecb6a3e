// Measurement helper for benchmarks: a latency recorder that keeps every
// sample. The bench binaries print the same rows the paper's figures plot
// (payload, mean latency, percentiles, krps), so it keeps raw samples
// rather than approximating with fixed buckets. Named counters live in
// common/counters.hpp.
#pragma once

#include <cstddef>
#include <vector>

// perfbench reaches the counter forwarders through this header.
#include "common/counters.hpp"

namespace rubin {

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
