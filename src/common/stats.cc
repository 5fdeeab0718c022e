#include "src/common/stats.h"

#include <cstddef>

namespace chronotier {

double ReservoirSampler::Percentile(double p) const {
  if (samples_.empty()) {
    return 0.0;
  }
  // Two order statistics by selection, not a full sort: nth_element places rank `lo` and
  // leaves every larger-or-equal sample after it, so rank `lo + 1` is the minimum of that
  // upper part. Same values as indexing a sorted copy, in O(n).
  std::vector<double> selected = samples_;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(selected.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const auto lo_it = selected.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(selected.begin(), lo_it, selected.end());
  const double lo_value = *lo_it;
  const double hi_value =
      lo + 1 < selected.size() ? *std::min_element(lo_it + 1, selected.end()) : lo_value;
  const double frac = rank - static_cast<double>(lo);
  return lo_value * (1.0 - frac) + hi_value * frac;
}

double ReservoirSampler::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double sum = 0;
  for (double v : samples_) {
    sum += v;
  }
  return sum / static_cast<double>(samples_.size());
}

}  // namespace chronotier
