// In-memory key-value store substrate (the Memcached / Redis stand-in) and its
// memtier-benchmark-style driver.
//
// The store is a chained hash table laid out in the simulated address space: a bucket-array
// region and an item-heap region. A GET touches the bucket head plus the item's pages; a SET
// additionally dirties the item. The driver performs a sequential full initialization (the
// paper's "start the database and perform sequential initialization on all the items") and
// then issues SET/GET at a configurable ratio with Gaussian key popularity.

#pragma once

#include <cstdint>

#include "src/workloads/workload.h"

namespace chronotier {

struct KvStoreConfig {
  uint64_t num_items = 200000;
  uint64_t value_bytes = 256;
  double set_fraction = 1.0 / 11.0;  // SET:GET = 1:10 by default.
  // Gaussian key popularity: keys drawn N(center, sigma_fraction * num_items).
  double sigma_fraction = 0.1;
  uint64_t op_limit = 0;  // Post-initialization ops; 0 = infinite.
  uint64_t buckets_per_item = 1;  // Hash-table load factor control.
  // Client-side compute per memory reference (parse/serialize); paces the server.
  SimDuration per_op_delay = 0;
};

class KvStoreStream : public AccessStream {
 public:
  explicit KvStoreStream(KvStoreConfig config) : config_(config) {}

  void Init(Process& process, Rng& rng) override;
  bool Next(Rng& rng, MemOp* op) override;

  uint64_t ops_issued() const { return ops_issued_; }
  uint64_t num_items() const { return config_.num_items; }

  // The item id a Gaussian-popularity draw maps to.
  uint64_t DrawKey(Rng& rng) const;

 private:
  uint64_t BucketAddr(uint64_t key) const;
  uint64_t ItemAddr(uint64_t item) const;

  // Emits the access burst for one operation on `item`: bucket probe + the value's pages.
  void EmitOp(uint64_t item, bool is_set);

  KvStoreConfig config_;
  uint64_t bucket_base_ = 0;
  uint64_t heap_base_ = 0;
  uint64_t num_buckets_ = 0;

  uint64_t init_cursor_ = 0;
  uint64_t ops_issued_ = 0;
  ValueBurst burst_;
};

}  // namespace chronotier
