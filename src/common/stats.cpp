#include "common/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace rubin {

double LatencyRecorder::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double LatencyRecorder::percentile(double q) const {
  if (samples_.empty()) throw std::logic_error("percentile of empty recorder");
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double rank = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double LatencyRecorder::min() const { return percentile(0.0); }
double LatencyRecorder::max() const { return percentile(1.0); }

}  // namespace rubin
