#include "src/workloads/pmbench.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace chronotier {

void PmbenchStream::Init(Process& process, Rng& /*rng*/) {
  const uint64_t vaddr =
      process.aspace().MapRegion(config_.working_set_bytes, process.default_page_kind());
  region_vpn_ = vaddr / kBasePageSize;
  // MapRegion may round up to the huge-page unit; address the requested set only.
  num_pages_ = std::max<uint64_t>(config_.working_set_bytes / kBasePageSize, 1);
  stride_ = std::max<uint64_t>(config_.stride, 1);
  // Round-up reciprocal for the stride fold (see MapIndexToVpn). Strided indexes stay
  // below num_pages_ * stride_, which must fit in 32 bits for the proof; the quotient
  // steps at multiples of num_pages_, so verify both sides of every one anyway.
  constexpr uint64_t kProven = uint64_t{1} << 32;
  if (num_pages_ > 1 && stride_ < (uint64_t{1} << 16) && num_pages_ <= kProven / stride_) {
    fold_magic_ = std::numeric_limits<uint64_t>::max() / num_pages_ + 1;
    for (uint64_t q = 1; q < stride_; ++q) {
      for (const uint64_t a : {q * num_pages_ - 1, q * num_pages_}) {
        const auto fast =
            static_cast<uint64_t>((static_cast<__uint128_t>(a) * fold_magic_) >> 64);
        CHECK_EQ(fast, a / num_pages_) << "bad stride-fold reciprocal";
      }
    }
  }
}

uint64_t PmbenchStream::MapIndexToVpn(uint64_t index) const {
  // Every pattern draws in range; only external callers may pass a wider index.
  if (index >= num_pages_) {
    index %= num_pages_;
  }
  const uint64_t strided = index * stride_;
  if (fold_magic_ != 0) {
    const auto quotient =
        static_cast<uint64_t>((static_cast<__uint128_t>(strided) * fold_magic_) >> 64);
    return region_vpn_ + (strided - quotient * num_pages_);
  }
  return region_vpn_ + strided % num_pages_;
}

std::vector<uint64_t> PmbenchStream::HotVpns(double fraction) const {
  std::vector<uint64_t> vpns;
  const auto span = static_cast<uint64_t>(static_cast<double>(num_pages_) * fraction);
  const uint64_t first = (num_pages_ - span) / 2;
  vpns.reserve(span);
  for (uint64_t i = 0; i < span; ++i) {
    vpns.push_back(MapIndexToVpn(first + i));
  }
  std::sort(vpns.begin(), vpns.end());
  vpns.erase(std::unique(vpns.begin(), vpns.end()), vpns.end());
  return vpns;
}

uint64_t PmbenchStream::DrawIndex(Rng& rng) {
  switch (config_.pattern) {
    case PmbenchPattern::kUniform:
      return rng.NextBelow(num_pages_);
    case PmbenchPattern::kLinear:
      return linear_cursor_++ % num_pages_;
    case PmbenchPattern::kGaussian: {
      const double center = static_cast<double>(num_pages_) / 2.0;
      const double sigma = static_cast<double>(num_pages_) * config_.sigma_fraction;
      const double draw = center + sigma * rng.NextGaussian();
      // Out-of-range draws wrap (keeps the distribution's mass without clamping pileup at
      // the edges); with sigma <= 0.25 the wrap is rare, so divisions stay off the hot path.
      auto index = static_cast<int64_t>(draw);
      const auto n = static_cast<int64_t>(num_pages_);
      if (index < 0 || index >= n) {
        index = ((index % n) + n) % n;
      }
      return static_cast<uint64_t>(index);
    }
  }
  return 0;
}

bool PmbenchStream::Next(Rng& rng, MemOp* op) {
  if (config_.sequential_init && init_cursor_ < num_pages_) {
    op->vaddr = (region_vpn_ + init_cursor_++) * kBasePageSize;
    op->is_store = true;
    op->think_time = 0;
    return true;
  }
  if (config_.op_limit != 0 && ops_issued_ >= config_.op_limit) {
    return false;
  }
  ++ops_issued_;
  const uint64_t vpn = MapIndexToVpn(DrawIndex(rng));
  op->vaddr = vpn * kBasePageSize + rng.NextBelow(kBasePageSize & ~7ull);
  op->is_store = !rng.NextBool(config_.read_ratio);
  op->think_time = config_.per_op_delay;
  return true;
}

}  // namespace chronotier
