// endpoint_aware_hotness: a topology-aware tiering policy for N-endpoint CXL machines.
//
// The six paper policies treat slow memory as one undifferentiated pool: promotion decides
// *whether* a page deserves fast memory, and demotion always pushes to "the next slower
// node". On an N-endpoint topology endpoints differ — in hop distance from the CPU, in
// link bandwidth, and (dynamically) in how congested their links are — so placement among
// the slow endpoints matters almost as much as the promote/demote decision itself.
//
// This policy keeps the scan half simple (a decayed accessed-bit hotness score, the same
// family of signal Multi-Clock uses) and spends its novelty on *where* pages go:
//  - Promotion: the hottest scanned slow-endpoint units are batch-promoted to the fast
//    node each scan tick, hottest-first with a deterministic tiebreak.
//  - Demotion: DemotionTarget() scores every slow endpoint by access latency (which
//    already folds in the topology hop penalty) plus a congestion term from the endpoint's
//    live link backlog, and demotes to the cheapest endpoint with free-page headroom —
//    pages pushed out of DRAM land on near, quiet endpoints instead of piling onto the
//    next node in index order.
//
// On a two-tier machine there is exactly one slow endpoint and no congestion model, so the
// policy degenerates to Multi-Clock-flavoured promotion plus default demotion.

#pragma once

#include <cstdint>
#include <vector>

#include "src/policies/scan_policy_base.h"

namespace chronotier {

class EndpointAwarePolicy : public ScanPolicyBase {
 public:
  explicit EndpointAwarePolicy(ScanGeometry geometry = {}) : ScanPolicyBase(geometry) {}

  std::string_view name() const override { return "endpoint_aware_hotness"; }

  SimDuration OnHintFault(Process& process, Vma& vma, PageInfo& unit, bool is_store,
                          SimTime now) override;

  NodeId DemotionTarget(const TieredMemory& memory, const PageInfo& unit,
                        SimTime now) const override;

 protected:
  void ScanVisit(Process& process, Vma& vma, PageInfo& unit, SimTime now) override;
  void AfterScanTick(Process& process, SimTime now, bool lap_wrapped) override;

 private:
  struct Candidate {
    PageInfo* unit;
    uint32_t score;
  };

  std::vector<Candidate> candidates_;  // Collected per scan tick, drained in AfterScanTick.
};

}  // namespace chronotier
