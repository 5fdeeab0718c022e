// Dynamic CIT Statistic Collection (Section 3.2.2, Fig. 5).
//
// DCSC periodically probes a small random fraction (P-victim) of each process's address
// space: victims are marked PG_probed + PROT_NONE and their CITs are measured with the same
// two-round max scheme as the candidate filter, producing per-tier heat maps of the CIT
// distribution (B buckets of doubling CIT ranges). Comparing the maps locates the *overlap
// point* — the hotness level where slow-tier pages are hotter than resident fast-tier
// pages — which recalibrates the CIT threshold, and the overlap mass (the misplacement
// ratio) sets the promotion rate limit.
//
// The class is machine-agnostic: the policy selects and poisons victims, routes probed
// faults here, and applies the outputs.

#pragma once

#include <cstdint>
#include <unordered_map>

#include "src/common/histogram.h"
#include "src/common/time.h"
#include "src/mem/tier.h"
#include "src/vm/page.h"

namespace chronotier {

struct DcscOutputs {
  bool valid = false;
  uint32_t cit_threshold_ms = 0;
  double rate_limit_mbps = 0;
  double misplaced_pages = 0;  // Estimated slow-tier pages hotter than the overlap point.
};

class DcscCollector {
 public:
  DcscCollector(int num_buckets, SimDuration scan_period)
      : fast_map_(num_buckets), slow_map_(num_buckets), scan_period_(scan_period) {}

  // Registers a victim the policy just probed (marked PG_probed + PROT_NONE). `node` is the
  // page's tier at probe time. `weight` is the base-page count of the unit; huge units are
  // redistributed into the base-page heat map with a +9 bucket shift (Section 3.4: a 2MB
  // page in bucket i counts as 512 base pages in bucket i+9).
  void AddVictim(PageInfo& page, NodeId node, SimTime now, uint64_t weight = 1);

  // A probed page faulted. Returns true when the victim needs a second round (the caller
  // must re-poison and leave PG_probed set); on false, the measurement completed and the
  // caller clears PG_probed.
  bool OnProbedFault(PageInfo& page, SimTime now);

  // Expires victims that never faulted: a censored measurement of at least the elapsed time
  // lands in the heat map (they are cold). Call at the start of each probe round. The caller
  // clears PG_probed via the provided callback.
  template <typename ClearFn>
  void ExpireStale(SimTime now, SimDuration max_age, ClearFn&& clear) {
    // Expiry commits commute: each entry adds an independent censored sample to
    // the heat map and clears its own PG_probed bit; no cross-entry state is
    // read, so visit order cannot leak.
    // detlint:allow(unordered-iter) per-entry commits commute
    for (auto it = victims_.begin(); it != victims_.end();) {
      VictimState& state = it->second;
      if (now - state.probe_time < max_age) {
        ++it;
        continue;
      }
      const auto elapsed_ms =
          static_cast<uint32_t>(std::max<SimTime>((now - state.probe_time) / kMillisecond, 1));
      Commit(state, std::max(state.max_cit_ms, elapsed_ms));
      clear(*it->first);
      it = victims_.erase(it);
    }
  }

  // Recomputes threshold + rate limit from the heat maps. `fast_used`/`slow_used` scale the
  // sampled distributions to page counts. Cools the maps afterwards so they track drift.
  DcscOutputs Aggregate(uint64_t fast_used_pages, uint64_t slow_used_pages);

  // The heat maps feed only Aggregate(), which reads them from 8 samples per tier on and
  // reports one overlap point, so no output shows the bucket one measurement landed in.
  // detlint:allow(dead-symbol) DcscTest.FastTierVictimsGoToFastMap needs it
  const Log2Histogram& fast_map() const { return fast_map_; }
  // detlint:allow(dead-symbol) DcscTest.HugeVictimRedistributesWithBucketShift needs it
  const Log2Histogram& slow_map() const { return slow_map_; }

 private:
  struct VictimState {
    NodeId node = kInvalidNode;
    SimTime probe_time = 0;
    int rounds = 0;
    uint32_t max_cit_ms = 0;
    uint64_t weight = 1;
  };

  void Commit(const VictimState& state, uint32_t cit_ms);

  std::unordered_map<PageInfo*, VictimState> victims_;
  Log2Histogram fast_map_;
  Log2Histogram slow_map_;
  SimDuration scan_period_;
};

}  // namespace chronotier
