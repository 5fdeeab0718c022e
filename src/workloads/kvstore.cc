#include "src/workloads/kvstore.h"

#include <algorithm>
#include <cmath>

namespace chronotier {

void KvStoreStream::Init(Process& process, Rng& /*rng*/) {
  ValueBurst::CheckFits("kvstore", config_.value_bytes);
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
  // Hash-bucket probe (read; a SET also updates the chain head in place).
  burst_.Emit(MemOp{BucketAddr(item), is_set, config_.per_op_delay}, ItemAddr(item),
              config_.value_bytes, is_set, config_.per_op_delay);
}

bool KvStoreStream::Next(Rng& rng, MemOp* op) {
  if (burst_.Pop(op)) {
    return true;
  }
  if (init_cursor_ < config_.num_items) {
    // Sequential initialization: SET every item once, in order.
    EmitOp(init_cursor_++, /*is_set=*/true);
    return burst_.Pop(op);
  }
  if (config_.op_limit != 0 && ops_issued_ >= config_.op_limit) {
    return false;
  }
  ++ops_issued_;
  const uint64_t key = DrawKey(rng);
  EmitOp(key, rng.NextBool(config_.set_fraction));
  return burst_.Pop(op);
}

}  // namespace chronotier
