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

// Bounded-size uniform sample of a value stream (Algorithm R); percentile queries select
// on a copy. Keeps latency reporting O(1) per access regardless of run length.
//
// Add buffers values and applies them kBatch at a time, in one loop that keeps the RNG in
// registers. That is exact: which value is kept, and in which slot, depends only on the
// count seen and the sampler's own draws, never on a value. Every read settles the buffer
// first, and so does Clear: values added before a Clear still advanced the draw sequence.
// A const read may therefore write, so one thread at a time reads a sampler.
class ReservoirSampler {
 public:
  static constexpr size_t kBatch = 64;

  explicit ReservoirSampler(size_t capacity = 65536, uint64_t seed = 1)
      : capacity_(capacity), rng_(seed) {
    samples_.reserve(capacity);
  }

  void Add(double value) {
    buffered_[num_buffered_++] = value;
    if (num_buffered_ == kBatch) {
      Settle();
    }
  }

  void Clear() {
    Settle();
    samples_.clear();
    seen_ = 0;
  }

  // Percentile in [0, 100], linearly interpolated between adjacent ranks. Selects on a
  // copy in O(n); intended for end-of-run reporting.
  double Percentile(double p) const;

  double Mean() const;

  uint64_t seen() const {
    Settle();
    return seen_;
  }
  size_t size() const {
    Settle();
    return samples_.size();
  }

 private:
  // Applies the buffered values in the order they were added.
  void Settle() const;

  size_t capacity_;
  // The settled state; a read settles first, so it is mutable.
  mutable Rng rng_;
  mutable std::vector<double> samples_;
  mutable uint64_t seen_ = 0;
  mutable double buffered_[kBatch] = {};
  mutable size_t num_buffered_ = 0;
};

}  // namespace chronotier
