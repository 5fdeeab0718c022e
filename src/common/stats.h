// Small statistics helpers used across the harness and benches.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace chronotier {

// Welford-style running mean/variance accumulator.
class RunningStats {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  void Clear() { *this = RunningStats(); }

  uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  uint64_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Binary-classification quality metrics; used for the Fig. 2a F1-score experiment.
struct ClassificationStats {
  uint64_t true_positives = 0;
  uint64_t false_positives = 0;
  uint64_t false_negatives = 0;

  double Precision() const {
    const uint64_t denom = true_positives + false_positives;
    return denom == 0 ? 0.0 : static_cast<double>(true_positives) / static_cast<double>(denom);
  }
  double Recall() const {
    const uint64_t denom = true_positives + false_negatives;
    return denom == 0 ? 0.0 : static_cast<double>(true_positives) / static_cast<double>(denom);
  }
  double F1() const {
    const double p = Precision();
    const double r = Recall();
    return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }
};

// Bounded-size uniform sample of a value stream; percentile queries select on a copy.
// Keeps latency reporting O(1) per access regardless of run length.
class ReservoirSampler {
 public:
  explicit ReservoirSampler(size_t capacity = 65536, uint64_t seed = 1)
      : capacity_(capacity), rng_(seed) {
    samples_.reserve(capacity);
  }

  void Add(double value) {
    ++seen_;
    if (samples_.size() < capacity_) {
      samples_.push_back(value);
      return;
    }
    const uint64_t slot = rng_.NextBelow(seen_);
    if (slot < capacity_) {
      samples_[static_cast<size_t>(slot)] = value;
    }
  }

  void Clear() {
    samples_.clear();
    seen_ = 0;
  }

  // Percentile in [0, 100], linearly interpolated between adjacent ranks. Selects on a
  // copy in O(n); intended for end-of-run reporting.
  double Percentile(double p) const;

  double Mean() const;

  uint64_t seen() const { return seen_; }
  size_t size() const { return samples_.size(); }

 private:
  size_t capacity_;
  Rng rng_;
  std::vector<double> samples_;
  uint64_t seen_ = 0;
};

}  // namespace chronotier
