#include "src/common/histogram.h"

#include <algorithm>
#include "src/common/check.h"

namespace chronotier {

Log2Histogram::Log2Histogram(int num_buckets) {
  CHECK_GT(num_buckets, 0);
  // The explicit clamp lets the compiler prove the assign() bound fits in an
  // object size; the CHECK above already rejects the clamped case at runtime.
  buckets_.assign(num_buckets > 0 ? static_cast<size_t>(num_buckets) : 1, 0);
}

uint64_t Log2Histogram::BucketLowerBound(int bucket) {
  if (bucket <= 0) {
    return 0;
  }
  return 1ULL << (bucket - 1);
}

uint64_t Log2Histogram::BucketUpperBound(int bucket) {
  if (bucket <= 0) {
    return 1;
  }
  if (bucket >= 64) {
    return ~0ULL;
  }
  return 1ULL << bucket;
}

void Log2Histogram::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  total_ = 0;
}

void Log2Histogram::TransferValues(uint64_t old_value, uint64_t new_value, uint64_t count) {
  const int old_bucket = std::min(BucketFor(old_value), num_buckets() - 1);
  const int new_bucket = std::min(BucketFor(new_value), num_buckets() - 1);
  if (old_bucket == new_bucket || count == 0) {
    return;
  }
  auto& old_count = buckets_[static_cast<size_t>(old_bucket)];
  const uint64_t moved = std::min<uint64_t>(count, old_count);
  old_count -= moved;
  buckets_[static_cast<size_t>(new_bucket)] += moved;
}

void Log2Histogram::RemoveValue(uint64_t value, uint64_t count) {
  const int bucket = std::min(BucketFor(value), num_buckets() - 1);
  auto& slot = buckets_[static_cast<size_t>(bucket)];
  const uint64_t removed = std::min(slot, count);
  slot -= removed;
  total_ -= removed;
}

void Log2Histogram::ShiftDownOne() {
  // Bucket 1 (values {1}) halves into bucket 0 (value 0); everything else moves down one.
  for (int i = 1; i < num_buckets(); ++i) {
    buckets_[static_cast<size_t>(i - 1)] += buckets_[static_cast<size_t>(i)];
    buckets_[static_cast<size_t>(i)] = 0;
  }
  // Re-walk is unnecessary: only adjacency changed; totals are preserved.
}

void Log2Histogram::Cool() {
  uint64_t new_total = 0;
  for (auto& bucket : buckets_) {
    bucket /= 2;
    new_total += bucket;
  }
  total_ = new_total;
}

double Log2Histogram::Quantile(double fraction) const {
  if (total_ == 0) {
    return 0;
  }
  fraction = std::clamp(fraction, 0.0, 1.0);
  const auto target = static_cast<uint64_t>(fraction * static_cast<double>(total_));
  uint64_t seen = 0;
  for (int i = 0; i < num_buckets(); ++i) {
    const uint64_t in_bucket = buckets_[static_cast<size_t>(i)];
    if (seen + in_bucket >= target && in_bucket > 0) {
      const double lo = static_cast<double>(BucketLowerBound(i));
      const double hi = static_cast<double>(BucketUpperBound(i));
      const double within =
          static_cast<double>(target - seen) / static_cast<double>(in_bucket);
      return lo + within * (hi - lo);
    }
    seen += in_bucket;
  }
  return static_cast<double>(BucketUpperBound(num_buckets() - 1));
}

uint64_t Log2Histogram::CumulativeCount(int bucket) const {
  bucket = std::min(bucket, num_buckets() - 1);
  uint64_t seen = 0;
  for (int i = 0; i <= bucket; ++i) {
    seen += buckets_[static_cast<size_t>(i)];
  }
  return seen;
}

}  // namespace chronotier
