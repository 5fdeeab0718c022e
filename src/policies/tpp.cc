#include "src/policies/tpp.h"

#include <algorithm>

namespace chronotier {

namespace {
// Extra free-page headroom (fraction of fast-tier capacity) maintained by demotion.
constexpr double kDemotionHeadroomFraction = 0.02;

uint32_t ToMillis(SimTime t) {
  const int64_t ms = t / kMillisecond;
  return static_cast<uint32_t>(std::min<int64_t>(ms, 0xFFFFFFFEll));
}
}  // namespace

void TppPolicy::ScanVisit(Process& /*process*/, Vma& /*vma*/, PageInfo& unit,
                          SimTime /*now*/) {
  machine()->PoisonUnit(unit);
}

SimDuration TppPolicy::OnHintFault(Process& /*process*/, Vma& vma, PageInfo& unit,
                                   bool /*is_store*/, SimTime now) {
  SimDuration extra = 0;
  if (unit.node != kFastNode) {
    const uint32_t last_fault_ms = unit.policy_word;
    const uint32_t now_ms = ToMillis(now);
    // A second fault within one scan period marks the page hot (active) and promotes it.
    const auto window_ms = static_cast<uint32_t>(geometry().scan_period / kMillisecond);
    const bool recently_faulted =
        last_fault_ms != 0 && now_ms >= last_fault_ms && now_ms - last_fault_ms <= window_ms;
    if (recently_faulted) {
      // Second fault within the window: the page is on the (conceptual) active list.
      EmitTrace(machine()->tracer(), TraceCategory::kPolicy, TraceEventType::kPolicyPromote,
                now, unit.owner, unit.vpn, unit.node, kFastNode,
                static_cast<uint64_t>(now_ms - last_fault_ms));
      extra = machine()
                  ->migration()
                  .Submit(vma, unit, kFastNode, MigrationClass::kSync,
                          MigrationSource::kFaultPath, now)
                  .sync_latency;
      unit.policy_word = 0;
    } else {
      unit.policy_word = std::max(now_ms, 1u);
    }
  }
  return extra;
}

uint64_t TppPolicy::DemotionRefillTarget(const MemoryTier& fast_tier) const {
  const auto headroom = static_cast<uint64_t>(
      static_cast<double>(fast_tier.capacity_pages()) * kDemotionHeadroomFraction);
  return fast_tier.watermarks().high + headroom;
}

}  // namespace chronotier
