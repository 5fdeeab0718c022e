// Run-time metric accumulation: everything the paper's evaluation section reports.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/fault/fault_types.h"
#include "src/migration/migration_types.h"
#include "src/tenant/tenant.h"

namespace chronotier {

// Categories of kernel-mode work, for the Fig. 8 kernel-time attribution.
enum class KernelWork : int {
  kScan = 0,          // PTE walks / poisoning by scan daemons.
  kFaultHandling = 1, // Demand + hint fault entry/exit.
  kMigration = 2,     // Page copy + remap.
  kReclaim = 3,       // Demotion daemon bookkeeping.
  kPolicy = 4,        // Policy-private daemons (DCSC, Memtis ksampled, ...).
};
inline constexpr int kNumKernelWorkKinds = 5;

class Metrics {
 public:
  Metrics() : read_latency_(65536, 11), write_latency_(65536, 13) {}

  // --- access accounting ---
  void CountAccess(bool is_store, bool fast_tier, SimDuration latency) {
    ++total_ops_;
    if (is_store) {
      ++writes_;
      write_latency_.Add(static_cast<double>(latency));
    } else {
      ++reads_;
      read_latency_.Add(static_cast<double>(latency));
    }
    if (fast_tier) {
      ++fast_accesses_;
    } else {
      ++slow_accesses_;
    }
    app_time_ += latency;
  }

  void CountThinkTime(SimDuration d) { app_time_ += d; }

  // --- kernel-side accounting ---
  void ChargeKernel(KernelWork work, SimDuration d) {
    kernel_time_[static_cast<size_t>(work)] += d;
  }
  void CountContextSwitch() { ++context_switches_; }
  void CountDemandFault() { ++demand_faults_; }
  void CountHintFault() { ++hint_faults_; }
  void CountPromotion(uint64_t pages) {
    promoted_pages_ += pages;
    ++promotion_events_;
  }
  void CountDemotion(uint64_t pages) { demoted_pages_ += pages; }
  void CountThrashEvent() { ++thrash_events_; }

  // --- derived quantities ---
  // Fast-tier memory access ratio (Fig. 8's FMAR).
  double Fmar() const {
    const uint64_t total = fast_accesses_ + slow_accesses_;
    return total == 0 ? 0.0 : static_cast<double>(fast_accesses_) / static_cast<double>(total);
  }

  SimDuration TotalKernelTime() const {
    SimDuration total = 0;
    for (SimDuration t : kernel_time_) {
      total += t;
    }
    return total;
  }

  // Fraction of machine execution time spent in kernel mode.
  double KernelTimeFraction() const {
    const SimDuration kernel = TotalKernelTime();
    const SimDuration denom = kernel + app_time_;
    return denom == 0 ? 0.0 : static_cast<double>(kernel) / static_cast<double>(denom);
  }

  // Context switches per simulated second.
  double ContextSwitchRate(SimDuration elapsed) const {
    return elapsed <= 0 ? 0.0
                        : static_cast<double>(context_switches_) / ToSeconds(elapsed);
  }

  // Throughput in operations per simulated second.
  double Throughput(SimDuration elapsed) const {
    return elapsed <= 0 ? 0.0 : static_cast<double>(total_ops_) / ToSeconds(elapsed);
  }

  uint64_t total_ops() const { return total_ops_; }
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  // Fmar() reports only the ratio of these two, so no output shows that every op was
  // counted on exactly one side.
  // detlint:allow(dead-symbol) MachineInvariantTest.MetricsAreInternallyConsistent needs it
  uint64_t fast_accesses() const { return fast_accesses_; }
  // detlint:allow(dead-symbol) MachineInvariantTest.MetricsAreInternallyConsistent needs it
  uint64_t slow_accesses() const { return slow_accesses_; }
  uint64_t demand_faults() const { return demand_faults_; }
  uint64_t hint_faults() const { return hint_faults_; }
  uint64_t promoted_pages() const { return promoted_pages_; }
  uint64_t demoted_pages() const { return demoted_pages_; }
  uint64_t promotion_events() const { return promotion_events_; }
  uint64_t thrash_events() const { return thrash_events_; }
  // TotalKernelTime() and kernel_time_fraction sum the five kinds; no output splits them.
  // detlint:allow(dead-symbol) ScanDaemonTest.ScanCostIsCharged needs it
  SimDuration kernel_time(KernelWork work) const {
    return kernel_time_[static_cast<size_t>(work)];
  }

  const ReservoirSampler& read_latency() const { return read_latency_; }
  const ReservoirSampler& write_latency() const { return write_latency_; }

  // Migration-engine counters (submitted/committed/aborted/refused, retry histogram,
  // channel busy time). The counters live here — updated in place by the MigrationEngine —
  // so a warmup Reset() discards them together with every other run counter; the engine
  // keeps only live gauges (in-flight work) itself.
  const MigrationStats& migration() const { return migration_; }
  MigrationStats* mutable_migration() { return &migration_; }

  // Fault-injection and degradation counters (same in-place update arrangement: the
  // FaultInjector and the machine's graceful-degradation paths write here).
  const FaultStats& fault() const { return fault_; }
  FaultStats* mutable_fault() { return &fault_; }

  // Per-tenant counters (same in-place update arrangement: the TenantRegistry writes
  // here). Sized once at machine construction to the tenant count; Reset() clears the
  // counters but keeps the size, so per-tenant results cover the measured window only.
  const std::vector<TenantStats>& tenant_stats() const { return tenant_stats_; }
  std::vector<TenantStats>* mutable_tenant_stats() { return &tenant_stats_; }
  void InitTenantStats(size_t num_tenants) {
    tenant_stats_.assign(num_tenants, TenantStats());
  }

  // Tracer ring-buffer overwrites (oldest events evicted by a full ring). Copied from the
  // Tracer at end of run so a truncated trace is detectable in ExperimentResult rather
  // than silent; stays 0 when tracing is off or the ring never filled.
  void set_trace_events_dropped(uint64_t n) { trace_events_dropped_ = n; }
  uint64_t trace_events_dropped() const { return trace_events_dropped_; }

  // Combined-latency percentile over both reservoirs, weighted by op counts.
  double LatencyPercentile(double p) const;
  double MeanLatency() const;

  // Clears the counters but keeps the run configuration (used to discard warmup).
  void Reset();

 private:
  uint64_t total_ops_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t fast_accesses_ = 0;
  uint64_t slow_accesses_ = 0;
  uint64_t context_switches_ = 0;
  uint64_t demand_faults_ = 0;
  uint64_t hint_faults_ = 0;
  uint64_t promoted_pages_ = 0;
  uint64_t demoted_pages_ = 0;
  uint64_t promotion_events_ = 0;
  uint64_t thrash_events_ = 0;
  SimDuration app_time_ = 0;
  uint64_t trace_events_dropped_ = 0;
  std::array<SimDuration, kNumKernelWorkKinds> kernel_time_ = {};
  ReservoirSampler read_latency_;
  ReservoirSampler write_latency_;
  MigrationStats migration_;
  FaultStats fault_;
  std::vector<TenantStats> tenant_stats_;
};

}  // namespace chronotier
