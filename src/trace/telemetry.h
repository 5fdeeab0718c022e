// Periodic time-series telemetry: machine-state snapshots for figure plotting.
//
// The sampler is deliberately passive — it never schedules events on the simulation
// queue. Scheduling a sampler event would change `Machine::Run`'s horizon boundaries and
// therefore the inter-process operation interleaving, breaking the subsystem's bitwise
// on/off determinism guarantee. Instead the Tracer polls `MaybeSample(now)` from every
// Emit call and the machine polls it from existing periodic work (audit, reclaim ticks),
// so samples land on or shortly after each period boundary without perturbing anything.

#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace chronotier {

// One snapshot of machine state. Filled by the snapshot callback the Machine installs;
// the trace library itself knows nothing about tiers or the migration engine.
struct TelemetrySample {
  SimTime ts = 0;

  struct Tier {
    uint64_t free = 0;
    uint64_t allocated = 0;
    uint64_t quarantined = 0;
    uint64_t stolen = 0;  // Frames held by an injected pressure spike.
    uint64_t wm_min = 0;
    uint64_t wm_low = 0;
    uint64_t wm_high = 0;
    uint64_t wm_pro = 0;
    uint64_t lru_active = 0;
    uint64_t lru_inactive = 0;
    // Per-endpoint occupancy and congestion (all 0 on machines without a congestion
    // model, so two-tier time series only gain constant columns).
    uint64_t inflight_reserved = 0;    // Engine target frames reserved on this node.
    int64_t link_backlog_ns = 0;       // Endpoint link queue depth at sample time.
    uint64_t congestion_queued_ns = 0; // Cumulative access queueing charged on the link.
    uint64_t congested_accesses = 0;   // Accesses that saw a nonzero queueing delay.
    uint64_t migration_link_bytes = 0; // Migration bytes booked through the link.
  };
  std::vector<Tier> tiers;

  // Migration-engine gauges. Backlogs are submitted minus retired per admission class
  // (sync / async / reclaim) and are signed: in-flight work spans sample boundaries.
  uint64_t inflight_transactions = 0;
  int64_t backlog_sync = 0;
  int64_t backlog_async = 0;
  int64_t backlog_reclaim = 0;

  // Hit ratios and cumulative ops since the last metrics reset.
  uint64_t accesses = 0;
  double fmar = 0;          // Fast-memory access ratio.
  double tlb_hit_rate = 0;  // Translation-cache hit ratio (0 when the lane is off).

  // Per-tenant rows (src/tenant): a machine's samples carry one row per registry tenant,
  // in registry order ("default" alone when none were declared): occupancy, QoS verdict
  // counters, latency quantiles.
  struct Tenant {
    uint64_t resident_fast = 0;   // Frames held on the fast tier.
    uint64_t resident_total = 0;  // Frames held across all nodes.
    uint64_t accesses = 0;
    uint64_t qos_checks = 0;
    uint64_t qos_refusals = 0;
    uint64_t borrows = 0;
    double p50_latency_ns = 0;
    double p99_latency_ns = 0;
  };
  std::vector<Tenant> tenants;
};

class TelemetrySampler {
 public:
  using SnapshotFn = std::function<void(SimTime, TelemetrySample*)>;

  explicit TelemetrySampler(SimDuration period) : period_(period) {}

  void set_snapshot_fn(SnapshotFn fn) { snapshot_ = std::move(fn); }

  // Takes a sample iff a full period elapsed since the last one. Cheap when not due
  // (two compares), so it is safe to call from the Emit hot path.
  void MaybeSample(SimTime now) {
    if (period_ <= 0 || !snapshot_ || now < next_) return;
    TakeSample(now);
  }

  // Unconditional sample (end of run), unless one already exists at this timestamp.
  void ForceSample(SimTime now);

  const std::vector<TelemetrySample>& samples() const { return samples_; }

  // CSV: one row per sample, wide per-tier columns. JSON: array of sample objects.
  void WriteCsv(std::ostream& out) const;
  void WriteJson(std::ostream& out) const;
  // Dispatches on extension: ".json" gets JSON, anything else CSV. False on I/O error.
  bool WriteFile(const std::string& path) const;

 private:
  void TakeSample(SimTime now);

  SimDuration period_;
  SimTime next_ = 0;
  SnapshotFn snapshot_;
  std::vector<TelemetrySample> samples_;
};

}  // namespace chronotier
