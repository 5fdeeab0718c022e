#include "src/policies/endpoint_aware.h"

#include <algorithm>

namespace chronotier {

namespace {
// Hotness scoring (stored in PageInfo::policy_word): +kScoreGain when the accessed bit is
// set at scan time (capped), -1 decay when it is not.
constexpr uint32_t kScoreGain = 2;
constexpr uint32_t kScoreCap = 16;
// Units with at least this score are promotion candidates.
constexpr uint32_t kPromoteThreshold = 4;
// Max units submitted for async promotion per scan tick (per process).
constexpr uint64_t kPromoteBatch = 64;
// Weight on the congestion term of the demotion-target score: each nanosecond of link
// backlog counts as `kCongestionWeight` nanoseconds of latency.
constexpr double kCongestionWeight = 1.0;
// Backlog beyond this no longer worsens an endpoint's score (a deeply backed-up link is
// simply "bad", and an unbounded term would make one migration burst repel all demotion
// traffic for seconds).
constexpr SimDuration kCongestionBacklogCap = 10 * kMicrosecond;
// An endpoint is eligible as a demotion target while its free pages exceed its low
// watermark by this many unit-pages (headroom so reclaim does not chase watermarks).
constexpr uint64_t kDemotionHeadroomPages = 512;
}  // namespace

SimDuration EndpointAwarePolicy::OnHintFault(Process& /*process*/, Vma& /*vma*/,
                                             PageInfo& /*unit*/, bool /*is_store*/,
                                             SimTime /*now*/) {
  // The policy never poisons pages, so hint faults only occur on pages poisoned before a
  // policy switch; nothing to do.
  return 0;
}

void EndpointAwarePolicy::ScanVisit(Process& /*process*/, Vma& /*vma*/, PageInfo& unit,
                                    SimTime /*now*/) {
  // Decayed accessed-bit hotness, tracked for slow-endpoint units only (fast-node pages
  // are already where they belong; reclaim handles their eviction).
  if (unit.node == kFastNode) {
    return;
  }
  uint32_t score = unit.policy_word;
  if (unit.accessed()) {
    unit.ClearFlag(kPageAccessed);
    score = std::min(score + kScoreGain, kScoreCap);
  } else if (score > 0) {
    --score;
  }
  unit.policy_word = score;
  if (score >= kPromoteThreshold && !unit.Has(kPageMigrating)) {
    candidates_.push_back({&unit, score});
  }
}

void EndpointAwarePolicy::AfterScanTick(Process& /*process*/, SimTime now,
                                        bool /*lap_wrapped*/) {
  if (candidates_.empty()) {
    return;
  }
  // Hottest first; (owner, vpn) tiebreak keeps the submission order — and therefore the
  // whole run — independent of collection order.
  std::sort(candidates_.begin(), candidates_.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.score != y.score) return x.score > y.score;
              if (x.unit->owner != y.unit->owner) return x.unit->owner < y.unit->owner;
              return x.unit->vpn < y.unit->vpn;
            });
  uint64_t submitted = 0;
  for (const Candidate& candidate : candidates_) {
    if (submitted >= kPromoteBatch) {
      break;
    }
    PageInfo& unit = *candidate.unit;
    Vma* vma = machine()->ResolveVma(unit);
    if (vma == nullptr || !unit.present() || unit.node == kFastNode) {
      continue;
    }
    EmitTrace(machine()->tracer(), TraceCategory::kPolicy, TraceEventType::kPolicyPromote,
              now, unit.owner, unit.vpn, unit.node, kFastNode, candidate.score);
    const MigrationTicket ticket = machine()->migration().Submit(
        *vma, unit, kFastNode, MigrationClass::kAsync, MigrationSource::kPolicyDaemon);
    if (ticket.admitted) {
      unit.policy_word = 0;  // Restart scoring after the move (or its abort).
      ++submitted;
    }
  }
  candidates_.clear();
}

NodeId EndpointAwarePolicy::DemotionTarget(const TieredMemory& memory, const PageInfo& unit,
                                           SimTime now) const {
  const NodeId fallback =
      static_cast<NodeId>(std::min(unit.node + 1, memory.num_nodes() - 1));
  if (unit.node != kFastNode || memory.num_nodes() <= 2) {
    return fallback;
  }
  // Score every slow endpoint with headroom: device latency (the hop penalty is folded
  // into AccessLatency) plus the endpoint link's live backlog, capped so one deep
  // migration burst cannot repel demotion traffic indefinitely.
  NodeId best = kInvalidNode;
  double best_score = 0.0;
  for (NodeId id = 1; id < memory.num_nodes(); ++id) {
    const MemoryTier& tier = memory.node(id);
    // Failing/offline endpoints are never demotion targets (fabric fault domains): the
    // engine would refuse the submission anyway, and scoring them would steer reclaim
    // into a wall of kEndpointFailing refusals.
    if (!memory.health().endpoint_available(id) || tier.degraded() ||
        tier.free_pages() < tier.watermarks().low + kDemotionHeadroomPages) {
      continue;
    }
    double score = static_cast<double>(memory.AccessLatency(id, /*is_store=*/false));
    if (memory.congestion_enabled()) {
      const SimDuration backlog =
          std::min(memory.congestion(id).Backlog(now), kCongestionBacklogCap);
      score += kCongestionWeight * static_cast<double>(backlog);
    }
    if (best == kInvalidNode || score < best_score) {
      best = id;
      best_score = score;
    }
  }
  return best == kInvalidNode ? fallback : best;
}

}  // namespace chronotier
