#include "src/fault/fault_injector.h"

#include <algorithm>

#include "src/common/check.h"

namespace chronotier {

FaultInjector::FaultInjector(FaultPlan plan, FaultStats* stats)
    : plan_(plan), stats_(stats), rng_(SplitMix64(plan.seed ^ 0xFA17FA17FA17FA17ULL)) {
  CHECK(stats_ != nullptr);
  if (plan_.enabled && plan_.fabric.Any()) {
    fabric_ = std::make_unique<FabricFaultDriver>(plan_.fabric, plan_.seed,
                                                  plan_.start_after, stats_);
  }
}

void FaultInjector::Arm(EventQueue& queue, TieredMemory& memory, MigrationEngine& engine,
                        std::function<uint64_t(uint64_t)> emergency_reclaim,
                        std::function<uint64_t(NodeId)> evacuate) {
  queue_ = &queue;
  memory_ = &memory;
  engine_ = &engine;
  emergency_reclaim_ = std::move(emergency_reclaim);
  if (!plan_.enabled) {
    return;
  }
  if (fabric_ != nullptr) {
    fabric_->Arm(queue, memory, engine, std::move(evacuate));
  }
  if (plan_.stall_period > 0) {
    queue.SchedulePeriodic(plan_.stall_period, [this](SimTime now) { StallTick(now); });
  }
  if (plan_.pressure_period > 0) {
    queue.SchedulePeriodic(plan_.pressure_period, [this](SimTime now) { PressureTick(now); });
  }
  if (plan_.alloc_fail_period > 0) {
    queue.SchedulePeriodic(plan_.alloc_fail_period,
                           [this](SimTime now) { AllocFailTick(now); });
  }
}

CopyFault FaultInjector::OnCopyPassDone(NodeId /*from*/, NodeId /*to*/, uint64_t /*pages*/,
                                        int /*attempt*/, SimTime now) {
  if (!Active(now)) {
    return CopyFault::kNone;
  }
  // Persistent is drawn first (it subsumes transient: a bad frame fails every retry).
  if (plan_.copy_fail_persistent_p > 0 && rng_.NextBool(plan_.copy_fail_persistent_p)) {
    return CopyFault::kPersistent;
  }
  if (plan_.copy_fail_transient_p > 0 && rng_.NextBool(plan_.copy_fail_transient_p)) {
    return CopyFault::kTransient;
  }
  return CopyFault::kNone;
}

void FaultInjector::StallTick(SimTime now) {
  if (!Active(now) || !rng_.NextBool(plan_.stall_fire_p)) {
    return;
  }
  // Pick one tier pair uniformly and hit its channel with dead time plus a
  // bandwidth-collapse window; queued and new copies book at the degraded rate until the
  // window closes, so admission backlog checks push back (kBacklog refusals) naturally.
  const int num_nodes = memory_->num_nodes();
  if (num_nodes < 2) {
    return;
  }
  NodeId lo = static_cast<NodeId>(rng_.NextBelow(static_cast<uint64_t>(num_nodes - 1)));
  NodeId hi = static_cast<NodeId>(
      lo + 1 + rng_.NextBelow(static_cast<uint64_t>(num_nodes - 1 - lo)));
  // The drawn pair may not share a link; stall the first link on its route instead. The two
  // RNG draws above stay unconditional, so every machine consumes the same random
  // bitstream whichever pair it draws.
  const Topology& topo = memory_->topology();
  if (topo.EdgeIndex(lo, hi) < 0) {
    const std::vector<NodeId> route = topo.Route(lo, hi);
    lo = route[0];
    hi = route[1];
  }
  CopyChannel& channel = engine_->mutable_channel(lo, hi);
  channel.InjectStall(now, plan_.stall_duration);
  channel.DegradeBandwidth(now + plan_.stall_window, plan_.stall_bandwidth_slowdown);
  ++stats_->stall_windows;
  EmitTrace(tracer_, TraceCategory::kFault, TraceEventType::kFaultStall, now, kTraceNoPid,
            kTraceNoVpn, lo, hi, static_cast<uint64_t>(plan_.stall_duration),
            static_cast<uint64_t>(plan_.stall_bandwidth_slowdown * 1000.0));
}

void FaultInjector::PressureTick(SimTime now) {
  if (!Active(now) || pressure_active_ || !rng_.NextBool(plan_.pressure_fire_p)) {
    return;
  }
  pressure_active_ = true;
  MemoryTier& fast = memory_->node(kFastNode);
  const auto want = static_cast<uint64_t>(static_cast<double>(fast.capacity_pages()) *
                                          std::clamp(plan_.pressure_fraction, 0.0, 0.9));

  // Degrade first so the emergency reclaim below cannot race new promotions into the
  // shrinking tier; demotions keep draining it.
  fast.set_degraded(true);
  ++stats_->degraded_mode_entries;

  // Emergency reclaim makes room for the spike (the "sudden co-tenant" it models), then
  // the free frames are stolen outright for the window.
  if (emergency_reclaim_ && fast.free_pages() < want + fast.watermarks().high) {
    emergency_reclaim_(want + fast.watermarks().high);
  }
  const uint64_t stolen = fast.StealFreePages(want);
  ++stats_->pressure_spikes;
  stats_->pressure_pages_stolen += stolen;
  EmitTrace(tracer_, TraceCategory::kFault, TraceEventType::kFaultPressureBegin, now,
            kTraceNoPid, kTraceNoVpn, kFastNode, kInvalidNode, stolen,
            static_cast<uint64_t>(plan_.pressure_duration));

  queue_->ScheduleAfter(plan_.pressure_duration, [this, stolen](SimTime when) {
    MemoryTier& tier = memory_->node(kFastNode);
    tier.ReturnStolenPages(stolen);
    tier.set_degraded(false);
    pressure_active_ = false;
    EmitTrace(tracer_, TraceCategory::kFault, TraceEventType::kFaultPressureEnd, when,
              kTraceNoPid, kTraceNoVpn, kFastNode, kInvalidNode, stolen);
  });
}

void FaultInjector::AllocFailTick(SimTime now) {
  if (!Active(now) || alloc_fail_active_ || !rng_.NextBool(plan_.alloc_fail_fire_p)) {
    return;
  }
  alloc_fail_active_ = true;
  for (NodeId node = 0; node < memory_->num_nodes(); ++node) {
    memory_->node(node).set_strict_min_floor(true);
  }
  ++stats_->alloc_fail_windows;
  EmitTrace(tracer_, TraceCategory::kFault, TraceEventType::kFaultAllocBegin, now,
            kTraceNoPid, kTraceNoVpn, kInvalidNode, kInvalidNode,
            static_cast<uint64_t>(plan_.alloc_fail_duration));
  queue_->ScheduleAfter(plan_.alloc_fail_duration, [this](SimTime when) {
    for (NodeId node = 0; node < memory_->num_nodes(); ++node) {
      memory_->node(node).set_strict_min_floor(false);
    }
    alloc_fail_active_ = false;
    EmitTrace(tracer_, TraceCategory::kFault, TraceEventType::kFaultAllocEnd, when,
              kTraceNoPid, kTraceNoVpn);
  });
}

}  // namespace chronotier
