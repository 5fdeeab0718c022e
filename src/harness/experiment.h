// Experiment runner: builds a machine + policy + processes, runs warmup and a measured
// window (or to completion), and collects the metrics the paper's figures report.

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/harness/machine.h"

namespace chronotier {

using PolicyFactory = std::function<std::unique_ptr<TieringPolicy>()>;
using StreamFactory = std::function<std::unique_ptr<AccessStream>()>;

struct ProcessSpec {
  std::string name = "proc";
  StreamFactory make_stream;
  // Owning tenant (index into ExperimentConfig::tenants; 0 = first/default tenant).
  int tenant = 0;
};

struct ExperimentConfig {
  uint64_t total_pages = 1u << 16;  // Physical pages across both tiers.
  double fast_fraction = 0.25;      // The paper's 25%-DRAM split.
  // N-tier CXL topology (src/topology), forwarded to MachineConfig. When enabled() it
  // replaces the StandardTwoTier tier vector entirely — total_pages/fast_fraction are
  // ignored and capacities come from the spec's per-node capacity_pages.
  TopologySpec topology;
  // Miniature-machine scaling: (testbed capacity) / (simulated capacity). Scales the
  // migration copy engines so migration pressure relative to capacity matches the testbed.
  double bandwidth_scale = 1.0;
  SimDuration warmup = 20 * kSecond;
  SimDuration measure = 120 * kSecond;
  bool run_to_completion = false;   // Fig. 11 execution-time mode (measure = deadline).
  std::optional<PageSizeKind> page_kind;  // Pin page size; else the policy's preference.
  uint64_t seed = 42;
  // When > 0, samples every process's fast-tier residency at this cadence (Fig. 9).
  SimDuration residency_sample_interval = 0;
  // Fault-injection plan (chaos experiments) and invariant-audit period, forwarded to the
  // MachineConfig. Every experiment ends with a final audit that CHECK-fails on violation.
  FaultPlan fault;
  SimDuration audit_period = kSecond;
  // Access-path fast lane (MachineConfig::enable_translation_cache). On by default; the
  // equivalence tests run both settings and compare.
  bool enable_translation_cache = true;
  // Batched access replay (MachineConfig::replay_batch_ops). Any value replays
  // bit-identically; 1 is the single-step reference the equivalence tests compare against.
  uint32_t replay_batch_ops = 64;
  // Observability (src/trace), forwarded to MachineConfig. When enabled, any configured
  // export paths (Chrome trace JSON, telemetry time series, provenance dump) are written
  // after the measured window, before `finish` runs.
  TraceConfig trace;

  // Multi-tenant subsystem (src/tenant), forwarded to MachineConfig. Empty = legacy
  // single-tenant mode (ExperimentResult::tenants stays empty). Processes pick their
  // tenant via ProcessSpec::tenant.
  std::vector<TenantSpec> tenants;
};

// Per-tenant results over the measured window (one row per configured tenant).
struct TenantResult {
  std::string name;
  uint64_t accesses = 0;
  double p50_latency_ns = 0;   // From the tenant's Log2Histogram (bucket-interpolated).
  double p99_latency_ns = 0;
  uint64_t resident_fast_pages = 0;  // End-of-run gauge (not window-differenced).
  uint64_t resident_total_pages = 0;
  uint64_t qos_checks = 0;
  uint64_t qos_refusals = 0;
  uint64_t qos_admits = 0;
  uint64_t borrows = 0;
  uint64_t migration_pages_admitted = 0;
  uint64_t migration_bytes_admitted = 0;
};

struct ExperimentResult {
  std::string policy_name;
  SimDuration elapsed = 0;  // Measured window (or completion time).

  double throughput_ops = 0;        // Ops per simulated second.
  double avg_latency_ns = 0;
  double median_latency_ns = 0;
  double p99_latency_ns = 0;
  double read_avg_ns = 0;
  double write_avg_ns = 0;

  double fmar = 0;                  // Fast-tier memory access ratio.
  double kernel_time_fraction = 0;
  double context_switches_per_sec = 0;

  uint64_t promoted_pages = 0;
  uint64_t demoted_pages = 0;
  uint64_t promotion_events = 0;
  uint64_t thrash_events = 0;
  uint64_t hint_faults = 0;

  // Migration-engine counters over the measured window.
  uint64_t migrations_submitted = 0;
  uint64_t migrations_committed = 0;
  uint64_t migrations_aborted = 0;   // Final aborts: dirtied on every copy attempt.
  uint64_t migrations_refused = 0;   // Admission refusals across all reasons.
  double migration_mean_attempts = 0;          // Copy passes per committed transaction.
  double copy_bandwidth_utilization = 0;       // Channel busy fraction over the window.

  // Fault-injection / degradation counters over the measured window.
  // Topology / congestion counters over the measured window (all 0 on machines without a
  // parsed topology).
  uint64_t congested_accesses = 0;      // Accesses charged a nonzero link-queueing delay.
  uint64_t congestion_queued_ns = 0;    // Total queueing delay charged to accesses.
  uint64_t multi_hop_copies = 0;        // Routed copy passes (no direct link).
  uint64_t multi_hop_legs = 0;          // Per-link legs those passes booked.

  uint64_t migrations_parked = 0;            // Fault terminals: page stayed at source.
  uint64_t faults_injected_transient = 0;
  uint64_t faults_injected_persistent = 0;
  uint64_t frames_quarantined = 0;
  uint64_t alloc_refusals = 0;
  uint64_t emergency_reclaims = 0;
  uint64_t pressure_spikes = 0;
  uint64_t stall_windows = 0;

  // Fabric fault domains over the measured window (all 0 without a fabric fault plan).
  uint64_t links_down = 0;           // Link-down windows opened.
  uint64_t endpoint_failures = 0;    // Endpoints that entered kFailing.
  uint64_t evacuated_pages = 0;      // Pages drained off failing endpoints.
  uint64_t evacuation_refused = 0;   // Drains abandoned at the deadline (OOM-safe path).
  uint64_t reroutes = 0;             // Copy passes re-routed around a down link.
  uint64_t reroute_parks = 0;        // Transactions parked with no surviving route.

  // Transactions in flight when the warmup boundary reset the counters: these retire
  // inside the measured window without a matching submission, so ledger checks must
  // allow `retired <= submitted + inflight_at_measure_start + inflight at end`.
  uint64_t inflight_at_measure_start = 0;

  uint64_t audits_run = 0;

  // FNV-1a over (owner, vpn, target, commit time) in commit order. Deterministic-replay
  // fingerprint: TLB-on/off and parallel/serial runs of the same config must agree on it.
  uint64_t migration_commit_hash = 0;

  // Tracer ring-buffer overwrites (0 when tracing is off or the ring never filled). The
  // only trace-derived result field: a nonzero value flags a truncated trace without
  // breaking on/off comparability for runs whose ring was sized to their event volume.
  uint64_t trace_events_dropped = 0;

  // Residency time series (per process, per sample) and the sample times.
  std::vector<SimTime> sample_times;
  std::vector<std::vector<double>> residency_percent;

  // Per-tenant rows (empty unless the experiment declared tenants).
  std::vector<TenantResult> tenants;
};

class Experiment {
 public:
  // Runs one configuration. `inspect` (optional) is invoked after Start() but before any
  // simulated time passes, with the machine and policy — benches use it to install
  // observers or extra samplers.
  using InspectFn = std::function<void(Machine&, TieringPolicy&)>;
  // `finish` runs after the measured window, before teardown — for end-state inspection
  // (final placement, candidate-set sizes, ...). It may amend the result.
  using FinishFn = std::function<void(Machine&, ExperimentResult&)>;

  static ExperimentResult Run(const ExperimentConfig& config, const PolicyFactory& make_policy,
                              const std::vector<ProcessSpec>& process_specs,
                              const InspectFn& inspect = nullptr,
                              const FinishFn& finish = nullptr);
};

// Normalizes a metric vector to its first element (the paper normalizes to Linux-NB).
std::vector<double> NormalizeToFirst(const std::vector<double>& values);

}  // namespace chronotier
