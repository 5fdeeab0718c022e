// Histogram types shared by the CIT statistics subsystem, the PEBS model, and the
// latency-reporting harness.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace chronotier {

// Power-of-two bucketed histogram over non-negative integer values.
//
// Bucket 0 holds value 0; bucket i (i >= 1) holds values in [2^(i-1), 2^i). This is exactly
// the CIT-bucket layout from the paper (Section 4: "the i-th bucket contains the CIT values
// in the range of [2^(i-1), 2^i) millisecond") when fed millisecond-scaled values, and is
// also used for nanosecond-scale latency distributions.
class Log2Histogram {
 public:
  explicit Log2Histogram(int num_buckets = 64);

  // Inline: the machine adds every simulated access's latency to a tenant histogram.
  void Add(uint64_t value, uint64_t count = 1) {
    const int bucket = std::min(BucketFor(value), num_buckets() - 1);
    buckets_[static_cast<size_t>(bucket)] += count;
    total_ += count;
  }
  void Clear();

  // Merges another histogram bucket-wise; sizes must match.
  void Merge(const Log2Histogram& other);

  // Decays every bucket by half (integer division). Used by cooling-style policies.
  void Cool();

  // Moves one sample whose value changed from `old_value` to `new_value` (e.g. a per-page
  // access counter that was just incremented). No-op on the total.
  void TransferValue(uint64_t old_value, uint64_t new_value);

  // Moves `count` samples from `old_value`'s bucket to `new_value`'s in one step —
  // bit-identical to calling TransferValue(old_value, new_value) `count` times (each call
  // moves at most what the source bucket holds), without the per-call loop. Lets callers
  // tracking huge-page units (512 base pages per sample) stay O(1) per event.
  void TransferValues(uint64_t old_value, uint64_t new_value, uint64_t count);

  // Removes one previously added sample with the given value.
  void RemoveValue(uint64_t value, uint64_t count = 1);

  // Shifts every bucket down one level: the bucket layout's rendering of halving every
  // underlying value (PEBS-counter cooling halves counters, which moves each sample exactly
  // one power-of-two bucket down).
  void ShiftDownOne();

  static int BucketFor(uint64_t value) {
    return value == 0 ? 0 : 64 - std::countl_zero(value);
  }

  // Inclusive-exclusive value range covered by a bucket.
  static uint64_t BucketLowerBound(int bucket);
  static uint64_t BucketUpperBound(int bucket);

  uint64_t bucket_count(int bucket) const { return buckets_[static_cast<size_t>(bucket)]; }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  uint64_t total() const { return total_; }

  // Value below which approximately `fraction` (in [0,1]) of the samples fall, estimated by
  // linear interpolation within the containing bucket.
  double Quantile(double fraction) const;

  // Smallest bucket index b such that buckets [0, b] contain at least `target` samples, or
  // num_buckets()-1 if the total is smaller than target. Used for overlap identification.
  int BucketForCumulativeCount(uint64_t target) const;

  // Number of samples in buckets [0, bucket] inclusive.
  uint64_t CumulativeCount(int bucket) const;

  const std::vector<uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t total_ = 0;
};

// Fixed-width linear histogram (used for address-space access density profiles).
class LinearHistogram {
 public:
  LinearHistogram(double lo, double hi, int num_buckets);

  void Add(double value, uint64_t count = 1);
  void Clear();

  uint64_t bucket_count(int bucket) const { return buckets_[static_cast<size_t>(bucket)]; }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  uint64_t total() const { return total_; }
  double bucket_center(int bucket) const;

 private:
  double lo_;
  double hi_;
  std::vector<uint64_t> buckets_;
  uint64_t total_ = 0;
};

}  // namespace chronotier
