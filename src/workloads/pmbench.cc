#include "src/workloads/pmbench.h"

#include <algorithm>

namespace chronotier {

void PmbenchStream::Map(Process& process) {
  region_vpn_ = MapRegion(process, config_.working_set_bytes);
  stride_ = std::max<uint64_t>(config_.stride, 1);
  // Strided indexes stay below num_pages() * stride_.
  fold_ = RoundUpDivider(num_pages(), stride_);
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

uint64_t PmbenchStream::DrawIndex(Rng& rng) const {
  const double center = static_cast<double>(num_pages()) / 2.0;
  const double sigma = static_cast<double>(num_pages()) * config_.sigma_fraction;
  const double draw = center + sigma * rng.NextGaussian();
  // Out-of-range draws wrap (keeps the distribution's mass without clamping pileup at the
  // edges); with sigma <= 0.25 the wrap is rare, so divisions stay off the hot path.
  auto index = static_cast<int64_t>(draw);
  const auto n = static_cast<int64_t>(num_pages());
  if (index < 0 || index >= n) {
    index = ((index % n) + n) % n;
  }
  return static_cast<uint64_t>(index);
}

}  // namespace chronotier
