// Fault-injection plan and counters.
//
// A FaultPlan is a *schedule*, not a random process: every injected event is drawn from one
// seeded Rng consulted at deterministic simulation points (copy-pass completions and
// periodic window events), so the same plan + seed reproduces the identical fault sequence
// on every run. Reproduce any chaos run by copying its plan literal plus `seed` (see
// DESIGN.md, "Fault model & degradation").

#pragma once

#include <cstdint>

#include "src/common/time.h"
#include "src/fault/fabric_faults.h"

namespace chronotier {

// What the injector is allowed to break, and how often. All probabilities are per
// opportunity (per copy pass, per window tick) in [0, 1]; durations are simulated time.
struct FaultPlan {
  bool enabled = false;
  uint64_t seed = 1;
  // Grace period: nothing is injected before this much simulated time has elapsed
  // (lets workloads demand-fault their footprints in before the chaos starts).
  SimDuration start_after = 0;

  // --- migration copy faults (per copy pass, via CopyFaultOracle) ---
  double copy_fail_transient_p = 0.0;   // ECC-style; the pass retries with backoff.
  double copy_fail_persistent_p = 0.0;  // Bad frame; target frames are quarantined.

  // --- copy-channel stalls / bandwidth-collapse windows ---
  SimDuration stall_period = 0;  // 0 disables. Each tick fires with stall_fire_p.
  double stall_fire_p = 1.0;
  SimDuration stall_duration = 2 * kMillisecond;    // Dead time pushed onto the cursor.
  SimDuration stall_window = 20 * kMillisecond;     // Degraded-bandwidth window length.
  double stall_bandwidth_slowdown = 4.0;            // Copy-time multiplier inside it.

  // --- tier capacity pressure spikes (fast tier) ---
  SimDuration pressure_period = 0;  // 0 disables.
  double pressure_fire_p = 1.0;
  SimDuration pressure_duration = 50 * kMillisecond;
  // Fraction of fast-tier capacity stolen for the spike; the tier enters degraded mode
  // (promotions pause, demotions drain) and emergency reclaim makes room.
  double pressure_fraction = 0.05;

  // --- allocation-failure windows ---
  SimDuration alloc_fail_period = 0;  // 0 disables.
  double alloc_fail_fire_p = 1.0;
  SimDuration alloc_fail_duration = 20 * kMillisecond;  // Strict-min floor held this long.

  // --- fabric fault domains (link down/degrade windows, endpoint failure + evacuation;
  //     see fabric_faults.h). Driven by its own Rng stream derived from `seed`, so adding
  //     fabric chaos leaves the base plan's draw sequence untouched. ---
  FabricFaultPlan fabric;
};

// Degradation and audit counters, reset with the rest of the metrics at warmup boundaries.
struct FaultStats {
  // Window events actually fired (post fire_p draw).
  uint64_t stall_windows = 0;
  uint64_t pressure_spikes = 0;
  uint64_t pressure_pages_stolen = 0;
  uint64_t alloc_fail_windows = 0;
  uint64_t degraded_mode_entries = 0;

  // Graceful-degradation responses on the demand-fault path.
  uint64_t alloc_refusals = 0;       // Demand faults refused (page stays absent, retried).
  uint64_t emergency_reclaims = 0;   // Direct-reclaim passes run for refused allocations.
  SimDuration alloc_stall_time = 0;  // Latency charged to refused faulting accesses.

  // Fabric fault domains (src/fault/fabric_faults).
  uint64_t links_down = 0;              // Link-down windows opened.
  uint64_t links_degraded = 0;          // Link bandwidth-collapse windows opened.
  uint64_t endpoint_failures = 0;       // Endpoints that entered kFailing.
  uint64_t endpoint_recoveries = 0;     // Endpoints returned to service.
  uint64_t evacuations_completed = 0;   // Drains that reached kOffline (endpoint empty).
  uint64_t evacuated_pages = 0;         // Pages moved off failing endpoints.
  uint64_t evacuation_refused = 0;      // Drains abandoned at the deadline (OOM-safe path).

  // Invariant auditing.
  uint64_t audits_run = 0;

  void Reset() { *this = FaultStats{}; }
};

}  // namespace chronotier
