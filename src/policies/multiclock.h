// Multi-Clock (Maruf et al., HPCA '22).
//
// Hotness comes purely from hardware accessed bits: a periodic clock hand reads and clears
// PTE accessed bits and moves each page up or down a small ladder of LRU levels. Pages
// that climb to the top level in the slow tier are promoted. Fast-tier pages stuck at
// level 0 are demoted by the policy's own scan tick while the fast tier's free pages sit
// below its high watermark; the machine's shared watermark reclaim runs under this policy
// as well. No PTEs are poisoned, so the scheme takes no hint faults (lowest context-switch
// rate in Fig. 8) but can only distinguish "accessed at least once per lap" from "not
// accessed" (~1 access/min resolution, Table 1).

#pragma once

#include <vector>

#include "src/policies/scan_policy_base.h"

namespace chronotier {

class MultiClockPolicy : public ScanPolicyBase {
 public:
  explicit MultiClockPolicy(ScanGeometry geometry = {}) : ScanPolicyBase(geometry) {}

  std::string_view name() const override { return "Multi-Clock"; }

  SimDuration OnHintFault(Process& process, Vma& vma, PageInfo& unit, bool is_store,
                          SimTime now) override;

 protected:
  void ScanVisit(Process& process, Vma& vma, PageInfo& unit, SimTime now) override;
  void AfterScanTick(Process& process, SimTime now, bool lap_wrapped) override;

 private:
  std::vector<PageInfo*> promote_batch_;
  std::vector<PageInfo*> demote_batch_;
};

}  // namespace chronotier
