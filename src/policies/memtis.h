// Memtis (Lee et al., SOSP '23): PEBS-driven tiering with huge-page hotness tracking.
//
// Memory-access samples from the PMU increment per-unit counters; a global log2 histogram of
// counter values yields the hot threshold: the largest counter value such that all hotter
// units fit in the fast tier (the fast:slow ratio configuration). Units whose counters cross
// the threshold are promoted from a rate-bounded queue. Counters cool (halve) periodically,
// which in bucket terms shifts the histogram down one level. Memtis is designed for 2 MB
// huge pages — its recommended setting — and carries a conservative splitting pass that
// breaks up hot-but-sparse huge pages. Under base pages the sampling-rate cap starves the
// counters (Fig. 2b) and classification becomes unstable.

#pragma once

#include <unordered_map>
#include <vector>

#include "src/common/histogram.h"
#include "src/harness/machine.h"
#include "src/harness/policy.h"
#include "src/pebs/pebs.h"

namespace chronotier {

class MemtisPolicy : public TieringPolicy {
 public:
  // Recommended "always" THP setting.
  static constexpr PageSizeKind kPageSize = PageSizeKind::kHuge;
  // Threshold recompute + promotion drain.
  static constexpr SimDuration kAdjustPeriod = 1 * kSecond;
  // Counter halving.
  static constexpr SimDuration kCoolingPeriod = 10 * kSecond;
  // Max units promoted per adjust tick.
  static constexpr uint64_t kPromoteBatchUnits = 2048;
  // Splitting: a huge unit sampled at least kSplitMinSamples times whose samples land in at
  // most kSplitMaxDistinctSubpages distinct sub-page slots is split.
  static constexpr uint64_t kSplitMinSamples = 64;
  static constexpr int kSplitMaxDistinctSubpages = 4;

  // `enable_splitting` = false isolates PEBS counter starvation (bench/fig02b_pebs_bins).
  explicit MemtisPolicy(bool enable_splitting = true)
      : enable_splitting_(enable_splitting) {}

  std::string_view name() const override { return "Memtis"; }
  PageSizeKind PreferredPageSize() const override { return kPageSize; }

  void Attach(Machine& machine) override;
  SimDuration OnHintFault(Process& process, Vma& vma, PageInfo& unit, bool is_store,
                          SimTime now) override;
  void OnDemandAllocation(Process& process, Vma& vma, PageInfo& unit, SimTime now) override;

 private:
  void OnSample(const PebsSample& sample);
  void AdjustTick(SimTime now);
  void CoolingTick(SimTime now);
  void RecomputeHotThreshold();
  void MaybeTrackSplit(Vma& vma, PageInfo& unit, uint64_t vpn);

  bool enable_splitting_;
  Machine* machine_ = nullptr;

  // Histogram over unit counter values, weighted by base pages per unit.
  Log2Histogram histogram_{28};
  uint64_t hot_threshold_ = 8;

  std::vector<PageInfo*> promote_queue_;

  struct SplitStats {
    uint64_t samples = 0;
    uint64_t subpage_bitmap = 0;  // Hash-folded distinct sub-page tracker.
  };
  std::unordered_map<PageInfo*, SplitStats> split_candidates_;
};

}  // namespace chronotier
