#include "src/policies/autotiering.h"

#include <bit>

namespace chronotier {

namespace {
// Promote when at least this many of the last 8 laps saw a fault.
constexpr int kPromoteLapPopcount = 2;
// LAP-vector/list maintenance cost per scanned page.
constexpr SimDuration kLapMaintenanceCost = 220 * kNanosecond;
}  // namespace

AutoTieringPolicy::AutoTieringPolicy(ScanGeometry geometry) : ScanPolicyBase(geometry) {
  set_extra_visit_cost(kLapMaintenanceCost);
}

void AutoTieringPolicy::ScanVisit(Process& /*process*/, Vma& /*vma*/, PageInfo& unit,
                                  SimTime /*now*/) {
  // Shift the LAP vector, folding in whether the page faulted since the previous visit.
  const uint32_t lap = unit.policy_word & kLapMask;
  const uint32_t faulted = (unit.policy_word & kPendingBit) != 0 ? 1u : 0u;
  unit.policy_word = ((lap << 1) | faulted) & kLapMask;
  machine()->PoisonUnit(unit);
}

SimDuration AutoTieringPolicy::OnHintFault(Process& /*process*/, Vma& vma, PageInfo& unit,
                                           bool /*is_store*/, SimTime now) {
  unit.policy_word |= kPendingBit;
  SimDuration extra = 0;
  if (unit.node != kFastNode) {
    const int popcount =
        std::popcount((unit.policy_word & kLapMask) | 1u);  // Count this fault too.
    if (popcount >= kPromoteLapPopcount) {
      // Opportunistic promotion: inline, stalls the faulting access.
      EmitTrace(machine()->tracer(), TraceCategory::kPolicy, TraceEventType::kPolicyPromote,
                now, unit.owner, unit.vpn, unit.node, kFastNode,
                static_cast<uint64_t>(popcount));
      extra = machine()
                  ->migration()
                  .Submit(vma, unit, kFastNode, MigrationClass::kSync,
                          MigrationSource::kFaultPath, now)
                  .sync_latency;
    }
  }
  return extra;
}

}  // namespace chronotier
