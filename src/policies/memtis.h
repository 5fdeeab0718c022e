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

struct MemtisConfig {
  PageSizeKind page_size = PageSizeKind::kHuge;  // Recommended "always" THP setting.
  PebsConfig pebs;
  SimDuration adjust_period = 1 * kSecond;    // Threshold recompute + promotion drain.
  SimDuration cooling_period = 10 * kSecond;  // Counter halving.
  uint64_t promote_batch_units = 2048;        // Max units promoted per adjust tick.
  // Splitting: a huge unit sampled at least `split_min_samples` times whose samples land in
  // at most `split_max_distinct_subpages` distinct sub-page slots is split.
  bool enable_splitting = true;
  uint64_t split_min_samples = 64;
  int split_max_distinct_subpages = 4;
};

class MemtisPolicy : public TieringPolicy {
 public:
  explicit MemtisPolicy(MemtisConfig config = {});

  std::string_view name() const override { return "Memtis"; }
  PageSizeKind PreferredPageSize() const override { return config_.page_size; }

  void Attach(Machine& machine) override;
  SimDuration OnHintFault(Process& process, Vma& vma, PageInfo& unit, bool is_store,
                          SimTime now) override;
  void OnDemandAllocation(Process& process, Vma& vma, PageInfo& unit, SimTime now) override;

  // Exposed for tests and the Fig. 2b bench.

 private:
  void OnSample(const PebsSample& sample);
  void AdjustTick(SimTime now);
  void CoolingTick(SimTime now);
  void RecomputeHotThreshold();
  void MaybeTrackSplit(Vma& vma, PageInfo& unit, uint64_t vpn);

  MemtisConfig config_;
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
