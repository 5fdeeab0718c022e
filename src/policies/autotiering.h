// AutoTiering (Kim et al., USENIX ATC '21), OPM-BD mode.
//
// Page hotness is an 8-bit LAP (least/last accessed page) vector shifted once per scan lap:
// bit i set means the page took a hint fault during the i-th most recent lap. Opportunistic
// promotion (OPM) migrates a faulting slow page whose LAP population count clears a
// threshold; background demotion (BD) relies on reclaim keeping headroom. The effective
// frequency resolution is bounded by the lap period (~1 access/min, Table 1), and the LAP
// list maintenance adds per-page kernel overhead (the 14% kernel time in Fig. 8).

#pragma once

#include "src/policies/scan_policy_base.h"

namespace chronotier {

class AutoTieringPolicy : public ScanPolicyBase {
 public:
  explicit AutoTieringPolicy(ScanGeometry geometry = {});

  std::string_view name() const override { return "AutoTiering"; }

  SimDuration OnHintFault(Process& process, Vma& vma, PageInfo& unit, bool is_store,
                          SimTime now) override;

 protected:
  void ScanVisit(Process& process, Vma& vma, PageInfo& unit, SimTime now) override;

 private:
  // policy_word layout: bits 0-7 LAP vector, bit 8 pending-fault marker.
  static constexpr uint32_t kLapMask = 0xffu;
  static constexpr uint32_t kPendingBit = 1u << 8;
};

}  // namespace chronotier
