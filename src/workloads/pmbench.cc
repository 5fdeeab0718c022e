#include "src/workloads/pmbench.h"

#include <algorithm>

namespace chronotier {

void PmbenchStream::Map(Process& process) {
  region_vpn_ = MapRegion(process, config_.working_set_bytes);
  stride_ = std::max<uint64_t>(config_.stride, 1);
  // Strided indexes stay below num_pages() * stride_.
  fold_ = RoundUpDivider(num_pages(), stride_);
  center_ = static_cast<double>(num_pages()) / 2.0;
  sigma_ = static_cast<double>(num_pages()) * config_.sigma_fraction;
}

uint64_t PmbenchStream::MapIndexToVpn(uint64_t index) const {
  // Every draw is in range; only external callers may pass a wider index.
  if (index >= num_pages()) {
    index %= num_pages();
  }
  const uint64_t strided = index * stride_;
  return region_vpn_ + (strided - fold_(strided) * num_pages());
}

std::vector<uint64_t> PmbenchStream::HotVpns(double fraction) const {
  std::vector<uint64_t> vpns;
  const auto span = static_cast<uint64_t>(static_cast<double>(num_pages()) * fraction);
  const uint64_t first = (num_pages() - span) / 2;
  vpns.reserve(span);
  for (uint64_t i = 0; i < span; ++i) {
    vpns.push_back(MapIndexToVpn(first + i));
  }
  std::sort(vpns.begin(), vpns.end());
  vpns.erase(std::unique(vpns.begin(), vpns.end()), vpns.end());
  return vpns;
}

void PmbenchStream::ResolvePages(Rng& rng, MemOp* ops, size_t n) {
  // The logs of a whole pass are independent, so they overlap instead of queueing behind
  // each op's draws.
  for (size_t j = 0; j < pairs_; ++j) {
    const double factor = Rng::PolarFactor(polar_s_[j]);
    gaussians_[2 * j + 1] *= factor;
    gaussians_[2 * j + 2] *= factor;
  }
  const auto pages = static_cast<int64_t>(num_pages());
  for (size_t i = 0; i < n; ++i) {
    // Out-of-range draws wrap (keeps the distribution's mass without clamping pileup at
    // the edges); with sigma <= 0.25 the wrap is rare, so divisions stay off the hot path.
    auto index = static_cast<int64_t>(center_ + sigma_ * gaussians_[Token(ops[i])]);
    if (index < 0 || index >= pages) {
      index = ((index % pages) + pages) % pages;
    }
    SetVpn(ops[i], MapIndexToVpn(static_cast<uint64_t>(index)));
  }
  if (pending_ != kNoPending) {
    rng.SetPendingGaussian(gaussians_[pending_]);
    pending_ = kNoPending;
  }
  pairs_ = 0;
}

}  // namespace chronotier
