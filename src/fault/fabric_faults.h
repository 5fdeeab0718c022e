// Fabric fault domains: link-degrade/link-down windows and endpoint failure/hot-remove
// events for N-tier topologies.
//
// The FabricFaultPlan extends a FaultPlan (which embeds one) with two kinds of fabric
// faults, each available both as seeded *randomized* periodic windows (chaos-soak style,
// drawn from the driver's own SplitMix64-derived Rng stream so adding fabric chaos never
// perturbs the base plan's stall/pressure/copy-fault draws) and as *scripted* events at
// exact simulated times (deterministic scenarios and unit tests):
//
//   link faults      pick a topology edge; either collapse its bandwidth (the channel's
//                    degrade window) or take it down entirely — the TopologyHealth edge
//                    goes kDown, the CopyChannel refuses service (bookings while down are
//                    counted and audited), and the migration engine re-books in-flight
//                    passes that crossed it on their tree path (the only path), parking
//                    them while the link stays down.
//   endpoint faults  mark a non-root endpoint kFailing: the engine refuses new work
//                    targeting it while the driver pumps the host's evacuation callback
//                    (reclaim-class drain of resident pages to surviving endpoints) until
//                    the endpoint is empty and transitions to kOffline — or the drain
//                    deadline passes with survivors full, in which case the pump stops and
//                    the endpoint stays kFailing with its pages resident (the OOM-safe
//                    refusal path). Optional recovery returns the endpoint to service.
//
// The driver only exists when the plan schedules fabric faults, so fault-free machines —
// and machines running only the base (non-fabric) chaos plan — stay bitwise identical to
// pre-fabric builds.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/mem/tier.h"

namespace chronotier {

class EventQueue;
class MigrationEngine;
class TieredMemory;
class Tracer;
struct FaultStats;

struct FabricFaultPlan {
  // --- randomized link fault windows ---
  SimDuration link_fault_period = 0;  // 0 disables. Each tick fires with link_fault_fire_p.
  double link_fault_fire_p = 1.0;
  double link_down_p = 0.5;  // Fired tick takes the link down; otherwise degrades it.
  SimDuration link_down_duration = 30 * kMillisecond;
  SimDuration link_degrade_duration = 60 * kMillisecond;
  double link_degrade_factor = 8.0;  // Copy-time multiplier inside a degrade window.

  // --- randomized endpoint failures (never the root; one fault domain at a time) ---
  SimDuration endpoint_fail_period = 0;  // 0 disables.
  double endpoint_fail_fire_p = 1.0;
  // 0 = permanent hot-remove; otherwise the endpoint recovers this long after failing.
  SimDuration endpoint_recovery_after = 0;

  // --- evacuation deadline (shared by randomized and scripted endpoint failures) ---
  // Give-up horizon: if the endpoint is not drained this long after failing (survivors
  // full, or the fabric cannot carry the bytes), the pump stops and the endpoint stays
  // kFailing with its pages resident. The auditor requires kOffline endpoints be empty.
  SimDuration endpoint_drain_deadline = 2 * kSecond;

  // --- scripted events (exact times; no Rng draws) ---
  struct LinkEvent {
    SimTime at = 0;
    NodeId lo = kInvalidNode;  // Edge endpoints (must be adjacent in the topology).
    NodeId hi = kInvalidNode;
    bool down = true;          // false = degrade instead.
    SimDuration duration = 30 * kMillisecond;
    double degrade_factor = 8.0;  // Used when !down.
  };
  struct EndpointEvent {
    SimTime at = 0;
    NodeId node = kInvalidNode;  // Never the root (node 0).
    SimDuration recover_after = 0;  // 0 = permanent.
  };
  std::vector<LinkEvent> link_events;
  std::vector<EndpointEvent> endpoint_events;

  bool Any() const {
    return link_fault_period > 0 || endpoint_fail_period > 0 || !link_events.empty() ||
           !endpoint_events.empty();
  }
};

// Owned by the FaultInjector (constructed only when plan.fabric.Any()); drives every
// fabric state transition through TopologyHealth, the engine, and the host's evacuation
// callback, emitting trace events and FaultStats counters for each.
class FabricFaultDriver {
 public:
  // `stats` outlives the driver (harness Metrics). `seed`/`start_after` come from the
  // embedding FaultPlan; the Rng stream is derived from the seed but distinct from the
  // base injector's.
  FabricFaultDriver(const FabricFaultPlan& plan, uint64_t seed, SimDuration start_after,
                    FaultStats* stats);

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Schedules the plan's periodic ticks and scripted events. `evacuate(node)` drains one
  // batch of resident pages off `node` (reclaim-class submissions to surviving endpoints)
  // and returns the pages it moved; the host (Machine) provides it.
  void Arm(EventQueue& queue, TieredMemory& memory, MigrationEngine& engine,
           std::function<uint64_t(NodeId)> evacuate);

 private:
  bool Active(SimTime now) const { return now >= start_after_; }

  // Randomized periodic ticks. Draws happen unconditionally once the fire gate passes, so
  // fabric state never perturbs the Rng stream.
  void LinkTick(SimTime now);
  void EndpointTick(SimTime now);

  // Shared fault application (randomized ticks and scripted events).
  void ApplyLinkFault(int edge, bool down, SimDuration duration, double degrade_factor,
                      SimTime now);
  void RestoreLink(int edge, SimTime now);
  void ApplyEndpointFailure(NodeId node, SimDuration recover_after, SimTime now);
  void DrainTick(NodeId node, SimTime deadline, SimTime now);
  void RecoverEndpoint(NodeId node, SimTime now);

  FabricFaultPlan plan_;
  SimDuration start_after_;
  FaultStats* stats_;
  Rng rng_;
  Tracer* tracer_ = nullptr;

  EventQueue* queue_ = nullptr;
  TieredMemory* memory_ = nullptr;
  MigrationEngine* engine_ = nullptr;
  std::function<uint64_t(NodeId)> evacuate_;

  bool endpoint_fault_active_ = false;  // One endpoint fault domain at a time.
};

}  // namespace chronotier
