// Synthetic page streams: the op envelope they share, the fixed and phase-shifting hot-set
// stream, and the segmented uniform stream (one segment is the plain uniform stream).

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace chronotier {

// Divides by a fixed divisor d on a per-op address map without a hardware divide: a shift
// when d is a power of two, else Lemire's round-up multiply-shift — with
// m = floor(2^64 / d) + 1, (a * m) >> 64 == a / d exactly for all a, d < 2^32. The
// constructor verifies both sides of every quotient step anyway (a bad magic breaks
// there first), and falls back to real division outside the proven range.
class RoundUpDivider {
 public:
  RoundUpDivider() = default;
  // Dividends stay below `divisor * quotients`.
  RoundUpDivider(uint64_t divisor, uint64_t quotients);

  uint64_t operator()(uint64_t a) const {
    if (shift_ >= 0) {
      return a >> shift_;
    }
    if (magic_ != 0) {
      return static_cast<uint64_t>((static_cast<__uint128_t>(a) * magic_) >> 64);
    }
    return a / divisor_;
  }

 private:
  uint64_t divisor_ = 1;
  int shift_ = 0;       // >= 0 when divisor_ is a power of two.
  uint64_t magic_ = 0;  // Round-up reciprocal of divisor_; 0 = divide.
};

// The op envelope every page stream shares. After an optional address-ordered pre-touch
// (every page once, as a store with no think time), each op draws its page, then its
// offset in the page, then whether it is a store, and charges `per_op_delay`; the stream
// ends after `op_limit` ops (0 = never). `Config` carries working_set_bytes, read_ratio,
// op_limit, per_op_delay and sequential_init.
//
// FillBatch is the one generation path (Next is a batch of one), in two passes over at
// most kPassOps ops. Pass 1 makes every draw of every op in the single-step order and
// leaves a page token in each op's page bits (vaddr / kBasePageSize). Pass 2 lets the
// stream resolve the whole pass's tokens to vpns at once, off the serial RNG chain. The
// hooks bind statically. `Derived` maps its working set in `Map(process)` (num_pages() is
// set by then), names the vpn of the i-th page in address order in `VpnAt(i)`, draws one
// op's page token in `DrawPage(rng)`, reading ops_issued() after the op is counted, and
// rewrites the pass's tokens as vpns in `ResolvePages(rng, ops, n)`; it may leave state in
// `rng` for the next pass, as PmbenchStream does with a pending Gaussian.
template <typename Derived, typename Config>
class PageStream : public AccessStream {
 public:
  // Ops per pass; bounds the per-pass state a stream keeps for its tokens.
  static constexpr size_t kPassOps = 64;

  explicit PageStream(Config config) : config_(config) {}

  void Init(Process& process, Rng& /*rng*/) final {
    // MapRegion may round up to the huge-page unit; address the requested set only.
    num_pages_ = std::max<uint64_t>(config_.working_set_bytes / kBasePageSize, 1);
    self().Map(process);
  }

  bool Next(Rng& rng, MemOp* op) final { return FillBatch(rng, op, 1) == 1; }

  size_t FillBatch(Rng& rng, MemOp* ops, size_t max) final {
    size_t produced = 0;
    if (config_.sequential_init) {
      for (; produced < max && init_cursor_ < num_pages_; ++produced) {
        ops[produced] = MemOp{self().VpnAt(init_cursor_++) * kBasePageSize, true, 0};
      }
    }
    uint64_t left = max - produced;
    if (config_.op_limit != 0) {
      left = std::min(left, config_.op_limit - ops_issued_);
    }
    while (left > 0) {
      const size_t n = std::min<uint64_t>(left, kPassOps);
      MemOp* pass = ops + produced;
      for (size_t i = 0; i < n; ++i) {
        ++ops_issued_;
        const uint64_t token = self().DrawPage(rng);
        pass[i].vaddr = token * kBasePageSize + rng.NextBelow(kBasePageSize & ~7ull);
        pass[i].is_store = !rng.NextBool(config_.read_ratio);
        pass[i].think_time = config_.per_op_delay;
      }
      self().ResolvePages(rng, pass, n);
      produced += n;
      left -= n;
    }
    return produced;
  }

  uint64_t num_pages() const { return num_pages_; }

 protected:
  // Maps `bytes` as one region of the process's default page kind; returns its first vpn.
  static uint64_t MapRegion(Process& process, uint64_t bytes) {
    return process.aspace().MapRegion(bytes, process.default_page_kind()) / kBasePageSize;
  }
  uint64_t ops_issued() const { return ops_issued_; }

  // Pass 2's rewrite of one op: the vpn in place of its token, the in-page offset kept.
  static void SetVpn(MemOp& op, uint64_t vpn) {
    op.vaddr = vpn * kBasePageSize + op.vaddr % kBasePageSize;
  }
  static uint64_t Token(const MemOp& op) { return op.vaddr / kBasePageSize; }

  Config config_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  uint64_t num_pages_ = 0;
  uint64_t ops_issued_ = 0;
  uint64_t init_cursor_ = 0;
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
  bool sequential_init = false;  // Address-ordered pre-touch before the pattern starts.
};

class HotsetStream final : public PageStream<HotsetStream, HotsetConfig> {
 public:
  using PageStream::PageStream;

  uint64_t region_start_vpn() const { return region_vpn_; }
  uint64_t hot_pages() const { return hot_pages_; }
  uint64_t current_hot_base() const { return hot_base_; }

 private:
  friend PageStream;
  void Map(Process& process);
  uint64_t VpnAt(uint64_t i) const { return region_vpn_ + i; }
  // The token is the vpn itself, so pass 2 has nothing to do.
  uint64_t DrawPage(Rng& rng) {
    if (config_.phase_ops != 0 && ops_issued() % config_.phase_ops == 0) {
      hot_base_ = (hot_base_ + hot_pages_) % num_pages();
    }
    if (rng.NextBool(config_.hot_access_fraction)) {
      return region_vpn_ + (hot_base_ + rng.NextBelow(hot_pages_)) % num_pages();
    }
    return region_vpn_ + rng.NextBelow(num_pages());
  }
  void ResolvePages(Rng& /*rng*/, MemOp* /*ops*/, size_t /*n*/) {}

  uint64_t region_vpn_ = 0;
  uint64_t hot_pages_ = 0;
  uint64_t hot_base_ = 0;
};

// Uniform accesses over a working set mapped as `segments` separate VMAs (glibc arenas,
// mmap'd chunks, per-shard slabs). With many segments, consecutive accesses hop regions,
// so the last-hit VMA cache misses almost every op and translation pays a real FindVma
// walk — the address-space shape the software TLB exists for; chronobench's fastlane
// workload uses it to time the fast lane. One segment (the default) is the plain uniform
// stream over one region, which resolves via the last-hit VMA.
struct SegmentedConfig {
  uint64_t working_set_bytes = 16ull * 1024 * 1024;
  uint64_t segments = 1;  // VMAs; working set split evenly (last may be short).
  double read_ratio = 0.9;
  uint64_t op_limit = 0;
  SimDuration per_op_delay = 0;
  bool sequential_init = false;
};

class SegmentedStream final : public PageStream<SegmentedStream, SegmentedConfig> {
 public:
  using PageStream::PageStream;

 private:
  friend PageStream;
  void Map(Process& process);
  // Virtual page holding the idx-th page of the working set (idx < num_pages()).
  uint64_t VpnAt(uint64_t idx) const {
    const uint64_t seg = segment_of_(idx);
    return base_vpns_[seg] + (idx - seg * pages_per_segment_);
  }
  // The token is the page's index; pass 2 maps it to its segment.
  uint64_t DrawPage(Rng& rng) { return rng.NextBelow(num_pages()); }
  void ResolvePages(Rng& /*rng*/, MemOp* ops, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      SetVpn(ops[i], VpnAt(Token(ops[i])));
    }
  }

  std::vector<uint64_t> base_vpns_;
  uint64_t pages_per_segment_ = 1;
  RoundUpDivider segment_of_;  // idx / pages_per_segment_.
};

}  // namespace chronotier
