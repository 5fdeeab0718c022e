#include "src/policies/multiclock.h"

#include <algorithm>

namespace chronotier {

namespace {
constexpr uint32_t kNumLevels = 8;
constexpr uint32_t kPromoteLevel = 6;     // Slow pages at or above this level are promoted.
constexpr uint32_t kDemoteLevel = 0;      // Fast pages at this level are demotion targets.
constexpr uint64_t kPromoteBatch = 4096;  // Max units promoted per scan tick.
}  // namespace

void MultiClockPolicy::ScanVisit(Process& /*process*/, Vma& /*vma*/, PageInfo& unit,
                                 SimTime now) {
  if (!unit.present()) {
    return;
  }
  // Clock hand: consume the accessed bit, adjust the page's level.
  uint32_t level = unit.policy_word;
  if (unit.accessed()) {
    unit.ClearFlag(kPageAccessed);
    level = std::min(level + 1, kNumLevels - 1);
  } else if (level > 0) {
    --level;
  }
  unit.policy_word = level;

  if (unit.node != kFastNode && level >= kPromoteLevel &&
      !unit.Has(kPageQueued)) {
    unit.Set(kPageQueued);
    promote_batch_.push_back(&unit);
    EmitTrace(machine()->tracer(), TraceCategory::kPolicy, TraceEventType::kPolicyEnqueue,
              now, unit.owner, unit.vpn, unit.node, kFastNode, level);
  } else if (unit.node == kFastNode && level <= kDemoteLevel &&
             !unit.Has(kPageQueued)) {
    unit.Set(kPageQueued);
    demote_batch_.push_back(&unit);
    EmitTrace(machine()->tracer(), TraceCategory::kPolicy, TraceEventType::kPolicyEnqueue,
              now, unit.owner, unit.vpn, kFastNode, kSlowNode, level);
  }
}

void MultiClockPolicy::AfterScanTick(Process& /*process*/, SimTime now,
                                     bool /*lap_wrapped*/) {
  // Promote the collected top-level slow pages, bounded per tick.
  uint64_t promoted = 0;
  for (PageInfo* unit : promote_batch_) {
    unit->ClearFlag(kPageQueued);
    if (promoted >= kPromoteBatch) {
      continue;
    }
    Vma* vma = machine()->ResolveVma(*unit);
    if (vma == nullptr || unit->node == kFastNode) {
      continue;
    }
    EmitTrace(machine()->tracer(), TraceCategory::kPolicy, TraceEventType::kPolicyPromote,
              now, unit->owner, unit->vpn, unit->node, kFastNode, unit->policy_word);
    if (machine()
            ->migration()
            .Submit(*vma, *unit, kFastNode, MigrationClass::kAsync,
                    MigrationSource::kPolicyDaemon)
            .admitted) {
      ++promoted;
    }
  }
  promote_batch_.clear();

  // Demote level-0 fast pages only when the fast tier is tight; otherwise leave them.
  MemoryTier& fast = machine()->memory().node(kFastNode);
  for (PageInfo* unit : demote_batch_) {
    unit->ClearFlag(kPageQueued);
    if (fast.free_pages() >= fast.watermarks().high) {
      continue;
    }
    Vma* vma = machine()->ResolveVma(*unit);
    if (vma != nullptr && unit->node == kFastNode && unit->policy_word <= kDemoteLevel) {
      EmitTrace(machine()->tracer(), TraceCategory::kPolicy, TraceEventType::kPolicyDemote,
                now, unit->owner, unit->vpn, kFastNode, kSlowNode, unit->policy_word);
      machine()->DemoteUnit(*vma, *unit);
    }
  }
  demote_batch_.clear();
}

SimDuration MultiClockPolicy::OnHintFault(Process& /*process*/, Vma& /*vma*/,
                                          PageInfo& /*unit*/, bool /*is_store*/,
                                          SimTime /*now*/) {
  // Multi-Clock never poisons PTEs; hint faults cannot occur under this policy.
  return 0;
}

}  // namespace chronotier
