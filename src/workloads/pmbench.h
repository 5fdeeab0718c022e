// Pmbench-style paging micro-benchmark (Yang & Seymour).
//
// Reimplements the generator the paper uses: a working set touched with Gaussian-with-
// stride page indexes ("normal_ih" + stride 2), a read/write ratio, an optional per-access
// delay (the Fig. 9 hotness-level knob), and an optional op limit for finite runs.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/workloads/patterns.h"

namespace chronotier {

enum class PmbenchPattern {
  kGaussian,  // normal_ih: indexes drawn N(center, sigma), spread by the stride step.
};

struct PmbenchConfig {
  uint64_t working_set_bytes = 64ull * 1024 * 1024;
  double read_ratio = 0.95;
  PmbenchPattern pattern = PmbenchPattern::kGaussian;
  // Std-dev of the Gaussian index as a fraction of the page count. 0.0625 puts the center
  // quarter of the (pre-stride) index space at +-2 sigma, i.e. ~95% of accesses fall in the
  // paper's "hot region defined by the normal distribution" = center 25%.
  double sigma_fraction = 0.0625;
  uint64_t stride = 2;  // normal_ih stride step; 1 = dense.
  SimDuration per_op_delay = 0;
  uint64_t op_limit = 0;  // 0 = run forever.
  // Address-ordered pre-touch of the whole working set before the pattern starts (models
  // the paper's initialized-database starting placement: first-touched pages fill DRAM in
  // address order, leaving the Gaussian hot region mostly in the slow tier).
  bool sequential_init = false;
};

class PmbenchStream final : public PageStream<PmbenchStream, PmbenchConfig> {
 public:
  using PageStream::PageStream;

  // Maps a pre-stride page index to the virtual page it touches: region start +
  // (index * stride) mod num_pages. Exposed so benches can construct ground-truth hot sets
  // (the center fraction of the index space) even when the stride scatters them across
  // the address space. This is the per-op address map, and the fold's quotient is
  // unpredictable for stride >= 2, so it divides through a RoundUpDivider.
  uint64_t MapIndexToVpn(uint64_t index) const;

  // Virtual pages whose pre-stride index lies in the centered `fraction` of the index
  // space — the benchmark's definition of the true hot set.
  std::vector<uint64_t> HotVpns(double fraction) const;

  uint64_t region_start_vpn() const { return region_vpn_; }

 private:
  friend PageStream;
  void Map(Process& process);
  uint64_t VpnAt(uint64_t i) const { return region_vpn_ + i; }

  // Pass 1: the op's token names its Gaussian value, the pending second value of the last
  // pair if there is one, else the first value of a new pair drawn here.
  uint64_t DrawPage(Rng& rng) {
    if (pending_ != kNoPending) {
      return std::exchange(pending_, kNoPending);
    }
    if (rng.TakePendingGaussian(&gaussians_[0])) {
      return 0;
    }
    const Rng::PolarPoint point = rng.NextPolarPoint();
    const uint64_t token = 2 * pairs_ + 1;
    gaussians_[token] = point.u;
    gaussians_[token + 1] = point.v;
    polar_s_[pairs_++] = point.s;
    pending_ = token + 1;
    return token;
  }
  // Pass 2: scales every pair by its polar factor, folds each op's value to its page, and
  // leaves an unused second value pending in `rng` for the next pass.
  void ResolvePages(Rng& rng, MemOp* ops, size_t n);

  uint64_t region_vpn_ = 0;
  uint64_t stride_ = 1;  // config_.stride, at least 1.
  RoundUpDivider fold_;  // strided index / num_pages().
  double center_ = 0;    // Of the Gaussian index, in pages.
  double sigma_ = 0;

  // One pass's Gaussian values by token: token 0 is a value an earlier pass left pending
  // in the Rng; tokens 2j+1 and 2j+2 are pair j's u and v, which pass 2 multiplies by
  // Rng::PolarFactor(polar_s_[j]). Empty between passes.
  static constexpr uint64_t kNoPending = ~uint64_t{0};
  double gaussians_[2 * kPassOps + 1] = {};
  double polar_s_[kPassOps] = {};
  size_t pairs_ = 0;
  uint64_t pending_ = kNoPending;  // Token of the last pair's unused second value.
};

}  // namespace chronotier
