// TPP: Transparent Page Placement (Maruf et al., ASPLOS '23).
//
// TPP combines the NUMA-balancing fault channel with LRU access recency: a slow-tier page is
// promoted only when it faults *again* within one scan period (the model's rendering of
// "promote only pages on the active list"), filtering out one-off touches. It also keeps
// allocation headroom in the fast tier by demoting proactively to a raised watermark.
// Effective resolution remains fault-per-scan-lap bound (~2 accesses/min, Table 1).

#pragma once

#include "src/policies/scan_policy_base.h"

namespace chronotier {

class TppPolicy : public ScanPolicyBase {
 public:
  explicit TppPolicy(ScanGeometry geometry = {}) : ScanPolicyBase(geometry) {}

  std::string_view name() const override { return "TPP"; }

  // policy_word holds the last hint-fault time in milliseconds (saturating 32-bit).
  SimDuration OnHintFault(Process& process, Vma& vma, PageInfo& unit, bool is_store,
                          SimTime now) override;

  uint64_t DemotionRefillTarget(const MemoryTier& fast_tier) const override;

 protected:
  void ScanVisit(Process& process, Vma& vma, PageInfo& unit, SimTime now) override;
};

}  // namespace chronotier
