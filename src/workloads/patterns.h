// Generic synthetic access patterns used by tests and microbenches: uniform, Zipfian,
// fixed hot-set, and phase-shifting hot-set streams.

#pragma once

#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace chronotier {

struct UniformConfig {
  uint64_t working_set_bytes = 16ull * 1024 * 1024;
  double read_ratio = 0.9;
  uint64_t op_limit = 0;
  SimDuration per_op_delay = 0;
  bool sequential_init = false;  // Address-ordered pre-touch before the pattern starts.
};

class UniformStream : public AccessStream {
 public:
  explicit UniformStream(UniformConfig config) : config_(config) {}
  void Init(Process& process, Rng& rng) override;
  bool Next(Rng& rng, MemOp* op) override;

  uint64_t region_start_vpn() const { return region_vpn_; }
  uint64_t num_pages() const { return num_pages_; }

 private:
  UniformConfig config_;
  uint64_t region_vpn_ = 0;
  uint64_t num_pages_ = 0;
  uint64_t ops_issued_ = 0;
  uint64_t init_cursor_ = 0;
};

struct ZipfConfig {
  uint64_t working_set_bytes = 16ull * 1024 * 1024;
  double skew = 0.99;
  double read_ratio = 0.9;
  uint64_t op_limit = 0;
  bool shuffle = true;  // Permute ranks over the address space (hot pages scattered).
  SimDuration per_op_delay = 0;
  bool sequential_init = false;
};

class ZipfStream : public AccessStream {
 public:
  explicit ZipfStream(ZipfConfig config) : config_(config) {}
  void Init(Process& process, Rng& rng) override;
  bool Next(Rng& rng, MemOp* op) override;

  uint64_t region_start_vpn() const { return region_vpn_; }
  uint64_t num_pages() const { return num_pages_; }
  // Page holding the given popularity rank (0 = hottest).
  uint64_t VpnForRank(uint64_t rank) const;

 private:
  ZipfConfig config_;
  uint64_t region_vpn_ = 0;
  uint64_t num_pages_ = 0;
  uint64_t ops_issued_ = 0;
  uint64_t init_cursor_ = 0;
  uint64_t shuffle_multiplier_ = 1;  // Odd multiplier => bijective page permutation.
  std::unique_ptr<ZipfSampler> sampler_;
};

// A fixed hot set: `hot_fraction` of the pages receive `hot_access_fraction` of accesses.
struct HotsetConfig {
  uint64_t working_set_bytes = 16ull * 1024 * 1024;
  double hot_fraction = 0.2;
  double hot_access_fraction = 0.8;
  double read_ratio = 0.9;
  uint64_t op_limit = 0;
  // When > 0, the hot set rotates by `hot_fraction` of the space every `phase_ops` ops
  // (phase-change workloads for adaptivity tests).
  uint64_t phase_ops = 0;
  SimDuration per_op_delay = 0;
  bool sequential_init = false;
};

class HotsetStream : public AccessStream {
 public:
  explicit HotsetStream(HotsetConfig config) : config_(config) {}
  void Init(Process& process, Rng& rng) override;
  bool Next(Rng& rng, MemOp* op) override;

  uint64_t region_start_vpn() const { return region_vpn_; }
  uint64_t num_pages() const { return num_pages_; }
  uint64_t hot_pages() const { return hot_pages_; }
  uint64_t current_hot_base() const { return hot_base_; }

 private:
  HotsetConfig config_;
  uint64_t region_vpn_ = 0;
  uint64_t num_pages_ = 0;
  uint64_t hot_pages_ = 0;
  uint64_t hot_base_ = 0;
  uint64_t ops_issued_ = 0;
  uint64_t init_cursor_ = 0;
};

// Uniform accesses over a working set mapped as many separate VMAs (glibc arenas, mmap'd
// chunks, per-shard slabs). Consecutive accesses hop regions, so the last-hit VMA cache
// misses almost every op and translation pays a real FindVma walk — the address-space
// shape the software TLB exists for. chronobench's fastlane workload uses it to time the
// fast lane; single-region streams (above) resolve via the last-hit VMA and see ~none of
// that cost.
struct SegmentedConfig {
  uint64_t working_set_bytes = 96ull * 1024 * 1024;
  uint64_t segments = 24;  // VMAs; working set split evenly (last may be short).
  double read_ratio = 0.9;
  uint64_t op_limit = 0;
  SimDuration per_op_delay = 0;
  bool sequential_init = false;
};

class SegmentedStream : public AccessStream {
 public:
  explicit SegmentedStream(SegmentedConfig config) : config_(config) {}
  void Init(Process& process, Rng& rng) override;
  bool Next(Rng& rng, MemOp* op) override;

  uint64_t num_pages() const { return num_pages_; }
  uint64_t segments() const { return base_vpns_.size(); }

 private:
  // Virtual page holding the idx-th page of the working set (idx < num_pages_). This is
  // the per-op address map on the bench hot path, so the non-power-of-two segment case
  // uses a precomputed reciprocal instead of a hardware divide: with
  // m = floor(2^64 / d) + 1, (idx * m) >> 64 == idx / d exactly for all idx, d < 2^32
  // (Lemire's round-up multiply-shift; Init verifies every segment boundary and falls
  // back to real division outside the proven range).
  uint64_t IndexToVpn(uint64_t idx) const {
    uint64_t seg;
    if (pages_per_segment_shift_ >= 0) {
      seg = idx >> pages_per_segment_shift_;
    } else if (seg_magic_ != 0) {
      seg = static_cast<uint64_t>((static_cast<__uint128_t>(idx) * seg_magic_) >> 64);
    } else {
      seg = idx / pages_per_segment_;
    }
    return base_vpns_[seg] + (idx - seg * pages_per_segment_);
  }

  SegmentedConfig config_;
  std::vector<uint64_t> base_vpns_;
  uint64_t num_pages_ = 0;
  uint64_t pages_per_segment_ = 1;
  int pages_per_segment_shift_ = -1;  // >= 0 when pages_per_segment_ is a power of two.
  uint64_t seg_magic_ = 0;  // Round-up reciprocal of pages_per_segment_; 0 = divide.
  uint64_t ops_issued_ = 0;
  uint64_t init_cursor_ = 0;
};

}  // namespace chronotier
