#include "src/workloads/kvstore.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace chronotier {

void KvStoreStream::Init(Process& process, Rng& /*rng*/) {
  // One burst holds the bucket probe plus one op per value page; a longer value would
  // silently skip its tail pages.
  CHECK_LE(MaxValuePages(config_.value_bytes), static_cast<uint64_t>(kMaxBurst - 1))
      << "kvstore value_bytes " << config_.value_bytes << " can span more than "
      << kMaxBurst - 1 << " pages";
  num_buckets_ = std::max<uint64_t>(config_.num_items / config_.buckets_per_item, 1);
  const uint64_t bucket_bytes = num_buckets_ * 8;  // Pointer-sized bucket heads.
  const uint64_t heap_bytes = config_.num_items * config_.value_bytes;

  bucket_base_ = process.aspace().MapRegion(bucket_bytes, process.default_page_kind());
  heap_base_ = process.aspace().MapRegion(heap_bytes, process.default_page_kind());
}

uint64_t KvStoreStream::BucketAddr(uint64_t key) const {
  const uint64_t bucket = SplitMix64(key) % num_buckets_;
  return bucket_base_ + bucket * 8;
}

uint64_t KvStoreStream::ItemAddr(uint64_t item) const {
  return heap_base_ + item * config_.value_bytes;
}

uint64_t KvStoreStream::DrawKey(Rng& rng) const {
  const double center = static_cast<double>(config_.num_items) / 2.0;
  const double sigma = static_cast<double>(config_.num_items) * config_.sigma_fraction;
  auto key = static_cast<int64_t>(std::llround(center + sigma * rng.NextGaussian()));
  const auto n = static_cast<int64_t>(config_.num_items);
  key = ((key % n) + n) % n;
  return static_cast<uint64_t>(key);
}

void KvStoreStream::EmitOp(uint64_t item, bool is_set) {
  burst_len_ = 0;
  burst_pos_ = 0;
  // Hash-bucket probe (read; a SET also updates the chain head in place).
  burst_[burst_len_++] = MemOp{BucketAddr(item), is_set, config_.per_op_delay};
  // Value pages: one reference per page the value spans (at least one).
  const uint64_t first = ItemAddr(item);
  const uint64_t last = first + std::max<uint64_t>(config_.value_bytes, 1) - 1;
  for (uint64_t page = first / kBasePageSize;
       page <= last / kBasePageSize && burst_len_ < kMaxBurst; ++page) {
    const uint64_t addr = std::max(first, page * kBasePageSize);
    burst_[burst_len_++] = MemOp{addr, is_set, config_.per_op_delay};
  }
}

bool KvStoreStream::Next(Rng& rng, MemOp* op) {
  if (burst_pos_ < burst_len_) {
    *op = burst_[burst_pos_++];
    return true;
  }
  if (init_cursor_ < config_.num_items) {
    // Sequential initialization: SET every item once, in order.
    EmitOp(init_cursor_++, /*is_set=*/true);
    *op = burst_[burst_pos_++];
    return true;
  }
  if (config_.op_limit != 0 && ops_issued_ >= config_.op_limit) {
    return false;
  }
  ++ops_issued_;
  const uint64_t key = DrawKey(rng);
  EmitOp(key, rng.NextBool(config_.set_fraction));
  *op = burst_[burst_pos_++];
  return true;
}

}  // namespace chronotier
