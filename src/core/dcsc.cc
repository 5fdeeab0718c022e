#include "src/core/dcsc.h"

#include <algorithm>
#include <bit>

#include "src/core/cit.h"

namespace chronotier {

void DcscCollector::AddVictim(PageInfo& page, NodeId node, SimTime now, uint64_t weight) {
  VictimState state;
  state.node = node;
  state.probe_time = now;
  state.weight = weight;
  victims_[&page] = state;
}

bool DcscCollector::OnProbedFault(PageInfo& page, SimTime now) {
  auto it = victims_.find(&page);
  if (it == victims_.end()) {
    // Stale flag without state (e.g. the round was expired); treat as complete.
    return false;
  }
  VictimState& state = it->second;
  const auto cit_ms = static_cast<uint32_t>(
      std::max<SimTime>((now - state.probe_time) / kMillisecond, 0));
  state.max_cit_ms = std::max(state.max_cit_ms, cit_ms);
  state.rounds += 1;
  if (state.rounds < 2) {
    // Second round: caller re-poisons; restart the idle-time clock.
    state.probe_time = now;
    return true;
  }
  Commit(state, state.max_cit_ms);
  victims_.erase(it);
  return false;
}

void DcscCollector::Commit(const VictimState& state, uint32_t cit_ms) {
  Log2Histogram& map = state.node == kFastNode ? fast_map_ : slow_map_;
  if (state.weight <= 1) {
    map.Add(cit_ms, 1);
  } else {
    // Huge-page redistribution: the unit's accesses spread over `weight` base pages, so
    // each base page is ~weight-times colder; bucket shift of log2(weight) (9 for 2MB).
    // `weight` is Vma::UnitPages, 1 or kBasePagesPerHugePage, a power of two, so the
    // integer log2 is exact: no libm call, and the same shift as round(log2(weight)).
    static_assert(std::has_single_bit(kBasePagesPerHugePage));
    const int shift = static_cast<int>(std::bit_width(state.weight)) - 1;
    const int bucket = std::min(Log2Histogram::BucketFor(cit_ms) + shift, map.num_buckets() - 1);
    map.Add(Log2Histogram::BucketLowerBound(bucket), state.weight);
  }
}

DcscOutputs DcscCollector::Aggregate(uint64_t fast_used_pages, uint64_t slow_used_pages) {
  DcscOutputs out;
  const uint64_t fast_samples = fast_map_.total();
  const uint64_t slow_samples = slow_map_.total();
  if (fast_samples < 8 || slow_samples < 8) {
    return out;  // Not enough signal yet.
  }
  const double fast_scale =
      static_cast<double>(fast_used_pages) / static_cast<double>(fast_samples);
  const double slow_scale =
      static_cast<double>(slow_used_pages) / static_cast<double>(slow_samples);

  // Overlap identification: walk the CIT scale from hot to cold. slow_hot(b) = slow pages
  // at least as hot as bucket b; fast_cold(b) = fast pages strictly colder. The overlap
  // point is the *largest* CIT level at which every hotter slow page could still displace a
  // colder fast page (slow_hot <= fast_cold): swaps above that level are beneficial, swaps
  // below it would only shuffle equally-cold pages (churn). The threshold is that level's
  // CIT value; the misplacement is the beneficial-swap mass.
  const int buckets = fast_map_.num_buckets();
  uint64_t slow_cum = 0;
  int overlap_bucket = 0;
  double misplaced = 0;
  for (int b = 0; b < buckets; ++b) {
    slow_cum += slow_map_.bucket_count(b);
    const double slow_hot = static_cast<double>(slow_cum) * slow_scale;
    const double fast_cold =
        static_cast<double>(fast_samples - fast_map_.CumulativeCount(b)) * fast_scale;
    if (slow_hot <= fast_cold) {
      overlap_bucket = b;
      misplaced = slow_hot;
    } else {
      if (b == 0) {
        // Even the hottest slow bucket exceeds the evictable fast mass; the beneficial swap
        // count is bounded by the cold side.
        misplaced = std::min(slow_hot, fast_cold);
      }
      break;
    }
  }

  out.valid = true;
  out.cit_threshold_ms = static_cast<uint32_t>(std::min<uint64_t>(
      Log2Histogram::BucketUpperBound(overlap_bucket), 1ull << 27));
  out.misplaced_pages = misplaced;

  // Rate limit: misplaced bytes must move within one Ticking-scan period.
  const double bytes = misplaced * static_cast<double>(kBasePageSize);
  const double seconds = std::max(ToSeconds(scan_period_), 1e-3);
  out.rate_limit_mbps = bytes / seconds / (1024.0 * 1024.0);

  // Decay so the maps follow workload drift.
  fast_map_.Cool();
  slow_map_.Cool();
  return out;
}

}  // namespace chronotier
