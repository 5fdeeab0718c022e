// Experiment runner: builds a machine + policy + processes, runs warmup and a measured
// window (or to completion), and collects the metrics the paper's figures report.

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
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
  // replaces the StandardTwoTier star "(1,2)" entirely — total_pages/fast_fraction are
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
  // Observability (src/trace), forwarded to MachineConfig. When enabled, any configured
  // export paths (Chrome trace JSON, telemetry time series, provenance dump) are written
  // after the measured window, before `finish` runs.
  TraceConfig trace;

  // Multi-tenant subsystem (src/tenant), forwarded to MachineConfig. Empty = one
  // tenant named "default" (ExperimentResult::tenants holds its one row). Processes
  // pick their tenant via ProcessSpec::tenant.
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

  // Topology / congestion counters over the measured window (all 0 on machines without a
  // parsed topology).
  uint64_t congested_accesses = 0;      // Accesses charged a nonzero link-queueing delay.
  uint64_t congestion_queued_ns = 0;    // Total queueing delay charged to accesses.
  uint64_t multi_hop_copies = 0;        // Routed copy passes (no direct link).
  uint64_t multi_hop_legs = 0;          // Per-link legs those passes booked.

  // Fault-injection / degradation counters over the measured window.
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

  // Per-tenant rows, one per registry tenant (at least the "default" one).
  std::vector<TenantResult> tenants;
};

// The field lists: every field of TenantResult and ExperimentResult, in declaration
// order. FirstResultDifference, the seed-golden fingerprint and the benches' run-twice
// checks all walk these, so a listed field is compared everywhere; the static_asserts
// below fail the build when a struct gains a field its list lacks.
template <typename S, typename T>
struct ResultField {
  const char* name;
  T S::*member;
};

inline constexpr auto kTenantResultFields = [] {
  using R = TenantResult;
  return std::make_tuple(
      ResultField{"name", &R::name}, ResultField{"accesses", &R::accesses},
      ResultField{"p50_latency_ns", &R::p50_latency_ns},
      ResultField{"p99_latency_ns", &R::p99_latency_ns},
      ResultField{"resident_fast_pages", &R::resident_fast_pages},
      ResultField{"resident_total_pages", &R::resident_total_pages},
      ResultField{"qos_checks", &R::qos_checks}, ResultField{"qos_refusals", &R::qos_refusals},
      ResultField{"qos_admits", &R::qos_admits}, ResultField{"borrows", &R::borrows},
      ResultField{"migration_pages_admitted", &R::migration_pages_admitted},
      ResultField{"migration_bytes_admitted", &R::migration_bytes_admitted});
}();

inline constexpr auto kExperimentResultFields = [] {
  using R = ExperimentResult;
  return std::make_tuple(
      ResultField{"policy_name", &R::policy_name}, ResultField{"elapsed", &R::elapsed},
      ResultField{"throughput_ops", &R::throughput_ops},
      ResultField{"avg_latency_ns", &R::avg_latency_ns},
      ResultField{"median_latency_ns", &R::median_latency_ns},
      ResultField{"p99_latency_ns", &R::p99_latency_ns},
      ResultField{"read_avg_ns", &R::read_avg_ns}, ResultField{"write_avg_ns", &R::write_avg_ns},
      ResultField{"fmar", &R::fmar}, ResultField{"kernel_time_fraction", &R::kernel_time_fraction},
      ResultField{"context_switches_per_sec", &R::context_switches_per_sec},
      ResultField{"promoted_pages", &R::promoted_pages},
      ResultField{"demoted_pages", &R::demoted_pages},
      ResultField{"promotion_events", &R::promotion_events},
      ResultField{"thrash_events", &R::thrash_events}, ResultField{"hint_faults", &R::hint_faults},
      ResultField{"migrations_submitted", &R::migrations_submitted},
      ResultField{"migrations_committed", &R::migrations_committed},
      ResultField{"migrations_aborted", &R::migrations_aborted},
      ResultField{"migrations_refused", &R::migrations_refused},
      ResultField{"migration_mean_attempts", &R::migration_mean_attempts},
      ResultField{"copy_bandwidth_utilization", &R::copy_bandwidth_utilization},
      ResultField{"congested_accesses", &R::congested_accesses},
      ResultField{"congestion_queued_ns", &R::congestion_queued_ns},
      ResultField{"multi_hop_copies", &R::multi_hop_copies},
      ResultField{"multi_hop_legs", &R::multi_hop_legs},
      ResultField{"migrations_parked", &R::migrations_parked},
      ResultField{"faults_injected_transient", &R::faults_injected_transient},
      ResultField{"faults_injected_persistent", &R::faults_injected_persistent},
      ResultField{"frames_quarantined", &R::frames_quarantined},
      ResultField{"alloc_refusals", &R::alloc_refusals},
      ResultField{"emergency_reclaims", &R::emergency_reclaims},
      ResultField{"pressure_spikes", &R::pressure_spikes},
      ResultField{"stall_windows", &R::stall_windows}, ResultField{"links_down", &R::links_down},
      ResultField{"endpoint_failures", &R::endpoint_failures},
      ResultField{"evacuated_pages", &R::evacuated_pages},
      ResultField{"evacuation_refused", &R::evacuation_refused},
      ResultField{"reroutes", &R::reroutes}, ResultField{"reroute_parks", &R::reroute_parks},
      ResultField{"inflight_at_measure_start", &R::inflight_at_measure_start},
      ResultField{"audits_run", &R::audits_run},
      ResultField{"migration_commit_hash", &R::migration_commit_hash},
      ResultField{"trace_events_dropped", &R::trace_events_dropped},
      ResultField{"sample_times", &R::sample_times},
      ResultField{"residency_percent", &R::residency_percent},
      ResultField{"tenants", &R::tenants});
}();

namespace result_fields_internal {

// Converts to any field type; named only inside the unevaluated brace-init checks below.
struct AnyField {
  template <typename T>
  operator T() const;
};

// The number of fields of aggregate T: the longest AnyField list that brace-initialises it.
template <typename T, typename... Fields>
constexpr size_t FieldCount() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return FieldCount<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

}  // namespace result_fields_internal

static_assert(result_fields_internal::FieldCount<TenantResult>() ==
                  std::tuple_size_v<decltype(kTenantResultFields)>,
              "TenantResult has a field kTenantResultFields does not list");
static_assert(result_fields_internal::FieldCount<ExperimentResult>() ==
                  std::tuple_size_v<decltype(kExperimentResultFields)>,
              "ExperimentResult has a field kExperimentResultFields does not list");

// Calls fn(field) for every entry of a field list, in order.
template <typename Fields, typename Fn>
void ForEachField(const Fields& fields, Fn&& fn) {
  std::apply([&fn](const auto&... field) { (fn(field), ...); }, fields);
}

// Empty when a and b are identical in every listed field (tenant rows included, doubles
// by bit pattern). Otherwise the first differing field and both values, e.g.
// "fmar: 0.8041 vs 0.8043" or "tenants[1].qos_refusals: 12 vs 13".
std::string FirstResultDifference(const ExperimentResult& a, const ExperimentResult& b);

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
