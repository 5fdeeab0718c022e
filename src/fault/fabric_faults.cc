#include "src/fault/fabric_faults.h"

#include "src/common/check.h"
#include "src/fault/fault_types.h"
#include "src/mem/tiered_memory.h"
#include "src/migration/migration_engine.h"
#include "src/sim/event_queue.h"
#include "src/trace/tracer.h"

namespace chronotier {

namespace {
// Drain-pump cadence while an endpoint is failing.
constexpr SimDuration kEvacDrainPeriod = 5 * kMillisecond;
}  // namespace

FabricFaultDriver::FabricFaultDriver(const FabricFaultPlan& plan, uint64_t seed,
                                     SimDuration start_after, FaultStats* stats)
    : plan_(plan),
      start_after_(start_after),
      stats_(stats),
      rng_(SplitMix64(seed ^ 0xFAB51CD0FAB51CD0ULL)) {
  CHECK(stats_ != nullptr);
}

void FabricFaultDriver::Arm(EventQueue& queue, TieredMemory& memory, MigrationEngine& engine,
                            std::function<uint64_t(NodeId)> evacuate) {
  queue_ = &queue;
  memory_ = &memory;
  engine_ = &engine;
  evacuate_ = std::move(evacuate);

  if (plan_.link_fault_period > 0) {
    queue.SchedulePeriodic(plan_.link_fault_period, [this](SimTime now) { LinkTick(now); });
  }
  if (plan_.endpoint_fail_period > 0) {
    queue.SchedulePeriodic(plan_.endpoint_fail_period,
                           [this](SimTime now) { EndpointTick(now); });
  }

  const Topology& topo = memory.topology();
  for (const FabricFaultPlan::LinkEvent& ev : plan_.link_events) {
    const int edge = topo.EdgeIndex(ev.lo, ev.hi);
    CHECK(edge >= 0) << "scripted link event names a non-adjacent pair " << int{ev.lo}
                     << "," << int{ev.hi};
    CHECK(ev.duration > 0);
    const bool down = ev.down;
    const SimDuration duration = ev.duration;
    const double factor = ev.degrade_factor;
    queue.ScheduleAt(ev.at, [this, edge, down, duration, factor](SimTime now) {
      ApplyLinkFault(edge, down, duration, factor, now);
    });
  }
  for (const FabricFaultPlan::EndpointEvent& ev : plan_.endpoint_events) {
    CHECK(ev.node > kFastNode && ev.node < memory.num_nodes())
        << "scripted endpoint event must name a non-root node, got " << int{ev.node};
    const NodeId node = ev.node;
    const SimDuration recover_after = ev.recover_after;
    queue.ScheduleAt(ev.at, [this, node, recover_after](SimTime now) {
      ApplyEndpointFailure(node, recover_after, now);
    });
  }
}

void FabricFaultDriver::LinkTick(SimTime now) {
  if (!Active(now) || !rng_.NextBool(plan_.link_fault_fire_p)) {
    return;
  }
  const uint64_t num_edges = memory_->topology().edges().size();
  if (num_edges == 0) {
    return;
  }
  // Both draws are unconditional once the fire gate passes, so current fabric state never
  // perturbs the random bitstream (the overlap guard sits inside ApplyLinkFault).
  const int edge = static_cast<int>(rng_.NextBelow(num_edges));
  const bool down = rng_.NextBool(plan_.link_down_p);
  ApplyLinkFault(edge, down,
                 down ? plan_.link_down_duration : plan_.link_degrade_duration,
                 plan_.link_degrade_factor, now);
}

void FabricFaultDriver::EndpointTick(SimTime now) {
  if (!Active(now) || !rng_.NextBool(plan_.endpoint_fail_fire_p)) {
    return;
  }
  const int num_nodes = memory_->num_nodes();
  if (num_nodes < 2) {
    return;
  }
  // Unconditional draw; never the root (the fast tier cannot hot-remove).
  const NodeId node =
      static_cast<NodeId>(1 + rng_.NextBelow(static_cast<uint64_t>(num_nodes - 1)));
  ApplyEndpointFailure(node, plan_.endpoint_recovery_after, now);
}

void FabricFaultDriver::ApplyLinkFault(int edge, bool down, SimDuration duration,
                                       double degrade_factor, SimTime now) {
  TopologyHealth& health = memory_->mutable_health();
  if (health.link(edge) != LinkHealth::kUp) {
    return;  // Already degraded or down; windows never stack on one link.
  }
  const auto [lo, hi] = memory_->topology().edges()[static_cast<size_t>(edge)];
  if (down) {
    health.SetLink(edge, LinkHealth::kDown);
    // The channel refuses service for the window (bookings while down are audited) and its
    // cursor jumps past it; passes already in flight over this edge dirty-abort + re-route.
    engine_->channel_at(edge).MarkDown(now + duration);
    engine_->OnLinkDown(lo, hi, now);
    ++stats_->links_down;
    EmitTrace(tracer_, TraceCategory::kFault, TraceEventType::kFaultLinkDown, now,
              kTraceNoPid, kTraceNoVpn, lo, hi, static_cast<uint64_t>(duration));
  } else {
    health.SetLink(edge, LinkHealth::kDegraded);
    engine_->channel_at(edge).DegradeBandwidth(now + duration, degrade_factor);
    ++stats_->links_degraded;
    EmitTrace(tracer_, TraceCategory::kFault, TraceEventType::kFaultLinkDegraded, now,
              kTraceNoPid, kTraceNoVpn, lo, hi, static_cast<uint64_t>(duration),
              static_cast<uint64_t>(degrade_factor * 1000.0));
  }
  queue_->ScheduleAfter(duration, [this, edge](SimTime when) { RestoreLink(edge, when); });
}

void FabricFaultDriver::RestoreLink(int edge, SimTime now) {
  TopologyHealth& health = memory_->mutable_health();
  CHECK(health.link(edge) != LinkHealth::kUp) << "restore for a link that is already up";
  health.SetLink(edge, LinkHealth::kUp);
  const auto [lo, hi] = memory_->topology().edges()[static_cast<size_t>(edge)];
  EmitTrace(tracer_, TraceCategory::kFault, TraceEventType::kFaultLinkRestored, now,
            kTraceNoPid, kTraceNoVpn, lo, hi);
}

void FabricFaultDriver::ApplyEndpointFailure(NodeId node, SimDuration recover_after,
                                             SimTime now) {
  TopologyHealth& health = memory_->mutable_health();
  if (endpoint_fault_active_ || health.endpoint(node) != EndpointHealth::kHealthy) {
    return;  // One endpoint fault domain at a time.
  }
  endpoint_fault_active_ = true;
  health.SetEndpoint(node, EndpointHealth::kFailing);
  ++stats_->endpoint_failures;
  EmitTrace(tracer_, TraceCategory::kFault, TraceEventType::kFaultEndpointFailing, now,
            kTraceNoPid, kTraceNoVpn, node, kInvalidNode,
            memory_->node(node).allocated_pages());
  // The drain pump starts immediately; the deadline is the OOM-safe give-up horizon.
  DrainTick(node, now + plan_.endpoint_drain_deadline, now);
  if (recover_after > 0) {
    queue_->ScheduleAfter(recover_after,
                          [this, node](SimTime when) { RecoverEndpoint(node, when); });
  }
}

void FabricFaultDriver::DrainTick(NodeId node, SimTime deadline, SimTime now) {
  if (memory_->health().endpoint(node) != EndpointHealth::kFailing) {
    return;  // Recovered (or already offline) since the last pump.
  }
  const uint64_t moved = evacuate_ ? evacuate_(node) : 0;
  stats_->evacuated_pages += moved;
  const bool drained = memory_->node(node).allocated_pages() == 0 &&
                       engine_->inflight_reserved_pages_on(node) == 0;
  if (drained) {
    memory_->mutable_health().SetEndpoint(node, EndpointHealth::kOffline);
    ++stats_->evacuations_completed;
    EmitTrace(tracer_, TraceCategory::kFault, TraceEventType::kFaultEndpointOffline, now,
              kTraceNoPid, kTraceNoVpn, node, kInvalidNode, stats_->evacuated_pages);
    return;
  }
  if (now >= deadline) {
    // Survivors lack capacity (or the fabric cannot carry the bytes): refuse rather than
    // force allocations below min floors. The endpoint stays kFailing with its pages
    // resident; the auditor only requires *offline* endpoints to be empty.
    ++stats_->evacuation_refused;
    EmitTrace(tracer_, TraceCategory::kFault, TraceEventType::kFaultEvacuationStalled, now,
              kTraceNoPid, kTraceNoVpn, node, kInvalidNode,
              memory_->node(node).allocated_pages());
    return;
  }
  queue_->ScheduleAfter(kEvacDrainPeriod, [this, node, deadline](SimTime when) {
    DrainTick(node, deadline, when);
  });
}

void FabricFaultDriver::RecoverEndpoint(NodeId node, SimTime now) {
  TopologyHealth& health = memory_->mutable_health();
  if (health.endpoint(node) == EndpointHealth::kHealthy) {
    return;
  }
  health.SetEndpoint(node, EndpointHealth::kHealthy);
  ++stats_->endpoint_recoveries;
  endpoint_fault_active_ = false;
  EmitTrace(tracer_, TraceCategory::kFault, TraceEventType::kFaultEndpointRecovered, now,
            kTraceNoPid, kTraceNoVpn, node);
}

}  // namespace chronotier
