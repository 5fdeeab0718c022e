#include "src/workloads/patterns.h"

#include <limits>

#include "src/common/check.h"

namespace chronotier {

RoundUpDivider::RoundUpDivider(uint64_t divisor, uint64_t quotients) : divisor_(divisor) {
  if ((divisor & (divisor - 1)) == 0) {
    while ((uint64_t{1} << shift_) < divisor) {
      ++shift_;
    }
    return;
  }
  shift_ = -1;
  constexpr uint64_t kProven = uint64_t{1} << 32;
  if (divisor >= kProven || quotients > kProven / divisor) {
    return;
  }
  magic_ = std::numeric_limits<uint64_t>::max() / divisor + 1;
  for (uint64_t q = 1; q < quotients; ++q) {
    for (const uint64_t a : {q * divisor - 1, q * divisor}) {
      CHECK_EQ((*this)(a), a / divisor) << "bad round-up reciprocal";
    }
  }
}

void HotsetStream::Map(Process& process) {
  region_vpn_ = MapRegion(process, config_.working_set_bytes);
  hot_pages_ = std::max<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(num_pages()) * config_.hot_fraction), 1);
}

void SegmentedStream::Map(Process& process) {
  const uint64_t segments = std::max<uint64_t>(std::min(config_.segments, num_pages()), 1);
  pages_per_segment_ = (num_pages() + segments - 1) / segments;
  for (uint64_t remaining = num_pages(); remaining > 0;) {
    const uint64_t pages = std::min(pages_per_segment_, remaining);
    base_vpns_.push_back(MapRegion(process, pages * kBasePageSize));
    remaining -= pages;
  }
  segment_of_ = RoundUpDivider(pages_per_segment_, base_vpns_.size());
}

}  // namespace chronotier
