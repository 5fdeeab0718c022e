#include "src/harness/experiment.h"

#include <bit>
#include <charconv>
#include <type_traits>
#include <utility>

#include "src/common/check.h"
#include "src/trace/exporter.h"

namespace chronotier {

ExperimentResult Experiment::Run(const ExperimentConfig& config,
                                 const PolicyFactory& make_policy,
                                 const std::vector<ProcessSpec>& process_specs,
                                 const InspectFn& inspect, const FinishFn& finish) {
  std::unique_ptr<TieringPolicy> policy = make_policy();
  CHECK(policy != nullptr);
  const PageSizeKind page_kind = config.page_kind.value_or(policy->PreferredPageSize());

  ExperimentResult result;
  result.policy_name = std::string(policy->name());

  MachineConfig machine_config;
  if (config.topology.enabled()) {
    machine_config.topology = config.topology;
  } else {
    machine_config = MachineConfig::StandardTwoTier(config.total_pages, config.fast_fraction);
  }
  machine_config.bandwidth_scale = config.bandwidth_scale;
  machine_config.fault = config.fault;
  machine_config.audit_period = config.audit_period;
  machine_config.enable_translation_cache = config.enable_translation_cache;
  machine_config.trace = config.trace;
  machine_config.tenants = config.tenants;
  Machine machine(machine_config, std::move(policy));

  for (size_t i = 0; i < process_specs.size(); ++i) {
    const ProcessSpec& spec = process_specs[i];
    Process& process = machine.CreateProcess(spec.name.empty() ? "proc" : spec.name);
    process.set_default_page_kind(page_kind);
    const int num_tenants = machine.tenants().num_tenants();
    CHECK(spec.tenant >= 0 && spec.tenant < num_tenants)
        << "process " << spec.name << " names tenant " << spec.tenant << " but only "
        << num_tenants << " are declared";
    machine.AssignTenant(process, spec.tenant);
    machine.AttachWorkload(process, spec.make_stream(),
                           SplitMix64(config.seed + 0x1000 + i));
  }

  machine.Start();
  if (inspect) {
    inspect(machine, machine.policy());
  }

  // Residency sampling covers warmup + measurement (Fig. 9 plots from t=0).
  if (config.residency_sample_interval > 0) {
    result.residency_percent.resize(machine.processes().size());
    machine.queue().SchedulePeriodic(
        config.residency_sample_interval, [&machine, &result](SimTime now) {
          result.sample_times.push_back(now);
          for (size_t p = 0; p < machine.processes().size(); ++p) {
            result.residency_percent[p].push_back(
                machine.processes()[p]->FastTierResidencyPercent());
          }
        });
  }

  // Endpoint-congestion counters live on TieredMemory (not Metrics), so the warmup share
  // is subtracted explicitly to keep "over the measured window" semantics.
  const auto congestion_totals = [&machine]() {
    std::pair<uint64_t, uint64_t> totals{0, 0};  // (congested accesses, queued ns).
    const TieredMemory& memory = machine.memory();
    if (!memory.congestion_enabled()) {
      return totals;
    }
    for (NodeId id = 0; id < memory.num_nodes(); ++id) {
      totals.first += memory.congestion(id).congested_accesses();
      totals.second += static_cast<uint64_t>(memory.congestion(id).access_queued_time());
    }
    return totals;
  };
  std::pair<uint64_t, uint64_t> congestion_baseline{0, 0};

  if (config.run_to_completion) {
    result.elapsed = machine.RunToCompletion(config.measure);
  } else {
    if (config.warmup > 0) {
      machine.Run(config.warmup);
      machine.metrics().Reset();
      congestion_baseline = congestion_totals();
      result.inflight_at_measure_start = machine.migration().inflight_transactions();
    }
    machine.Run(config.measure);
    result.elapsed = config.measure;
  }

  const Metrics& metrics = machine.metrics();
  result.throughput_ops = metrics.Throughput(result.elapsed);
  result.avg_latency_ns = metrics.MeanLatency();
  result.median_latency_ns = metrics.LatencyPercentile(50.0);
  result.p99_latency_ns = metrics.LatencyPercentile(99.0);
  result.read_avg_ns = metrics.read_latency().Mean();
  result.write_avg_ns = metrics.write_latency().Mean();
  result.fmar = metrics.Fmar();
  result.kernel_time_fraction = metrics.KernelTimeFraction();
  result.context_switches_per_sec = metrics.ContextSwitchRate(result.elapsed);
  result.promoted_pages = metrics.promoted_pages();
  result.demoted_pages = metrics.demoted_pages();
  result.promotion_events = metrics.promotion_events();
  result.thrash_events = metrics.thrash_events();
  result.hint_faults = metrics.hint_faults();
  const MigrationStats& migration = metrics.migration();
  result.migrations_submitted = migration.TotalSubmitted();
  result.migrations_committed = migration.TotalCommitted();
  result.migrations_aborted = migration.TotalAborted();
  result.migrations_refused = migration.TotalRefused();
  result.migration_mean_attempts = migration.MeanAttemptsPerCommit();
  result.copy_bandwidth_utilization = migration.CopyBandwidthUtilization(
      result.elapsed, machine.migration().num_channels());
  result.multi_hop_copies = migration.multi_hop_copies;
  result.multi_hop_legs = migration.multi_hop_legs;
  const std::pair<uint64_t, uint64_t> congestion_final = congestion_totals();
  result.congested_accesses = congestion_final.first - congestion_baseline.first;
  result.congestion_queued_ns = congestion_final.second - congestion_baseline.second;
  result.migrations_parked = migration.TotalParked();
  result.migration_commit_hash = migration.commit_sequence_hash;
  result.faults_injected_transient = migration.injected_transient_faults;
  result.faults_injected_persistent = migration.injected_persistent_faults;
  result.frames_quarantined = migration.quarantined_pages;
  if (Tracer* tracer = machine.tracer()) {
    // Final telemetry sample so the time series covers the full window, then the exports.
    // Export failures are CHECKs: a bench asked for a trace and silently losing it would
    // defeat the subsystem's purpose.
    tracer->telemetry().ForceSample(machine.now());
    machine.metrics().set_trace_events_dropped(tracer->overwritten());
    const TraceConfig& trace = tracer->config();
    if (!trace.export_path.empty()) {
      CHECK(WriteChromeTraceFile(*tracer, trace.export_path))
          << "cannot write trace to " << trace.export_path;
    }
    if (!trace.timeseries_path.empty()) {
      CHECK(tracer->telemetry().WriteFile(trace.timeseries_path))
          << "cannot write telemetry to " << trace.timeseries_path;
    }
    if (!trace.provenance_path.empty()) {
      CHECK(tracer->WriteProvenanceFile(trace.provenance_path))
          << "cannot write provenance to " << trace.provenance_path;
    }
  }
  result.trace_events_dropped = metrics.trace_events_dropped();
  const FaultStats& fault = metrics.fault();
  result.alloc_refusals = fault.alloc_refusals;
  result.emergency_reclaims = fault.emergency_reclaims;
  result.pressure_spikes = fault.pressure_spikes;
  result.stall_windows = fault.stall_windows;
  result.links_down = fault.links_down;
  result.endpoint_failures = fault.endpoint_failures;
  result.evacuated_pages = fault.evacuated_pages;
  result.evacuation_refused = fault.evacuation_refused;
  result.reroutes = migration.reroutes;
  result.reroute_parks = migration.reroute_parks;

  const TenantRegistry& tenants = machine.tenants();
  result.tenants.resize(static_cast<size_t>(tenants.num_tenants()));
  for (int t = 0; t < tenants.num_tenants(); ++t) {
    TenantResult& row = result.tenants[static_cast<size_t>(t)];
    const TenantStats& stats = metrics.tenant_stats()[static_cast<size_t>(t)];
    const TenantAccount& account = tenants.account(t);
    row.name = account.spec.name;
    row.accesses = stats.accesses;
    row.p50_latency_ns = stats.access_latency.Quantile(0.50);
    row.p99_latency_ns = stats.access_latency.Quantile(0.99);
    row.resident_fast_pages = account.ResidentOn(0);
    for (uint64_t resident : account.resident_pages) {
      row.resident_total_pages += resident;
    }
    row.qos_checks = stats.qos_checks;
    row.qos_refusals = stats.qos_refusals;
    row.qos_admits = stats.qos_admits;
    row.borrows = stats.borrows;
    row.migration_pages_admitted = stats.migration_pages_admitted;
    row.migration_bytes_admitted = stats.migration_bytes_admitted;
  }

  // End-of-run audit: every experiment, faulted or not, must finish with consistent
  // bookkeeping. CHECK here so a silent corruption can never make it into a figure.
  const AuditReport final_audit = machine.AuditNow();
  CHECK(final_audit.clean()) << "end-of-run " << final_audit.Summary() << "\n"
                             << machine.FatalDump();
  result.audits_run = metrics.fault().audits_run;

  if (finish) {
    finish(machine, result);
  }
  return result;
}

namespace {

template <typename T>
std::string Render(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);  // Round-trips.
  } else {
    return std::to_string(v);
  }
}

// "" when a and b are identical, else the path below the field to the first difference
// and both values: ": 1 vs 2", "[3]: 1 vs 2", ".size(): 0 vs 1", "[0].borrows: 1 vs 2".
template <typename T>
std::string Difference(const T& a, const T& b);

template <typename S, typename Fields>
std::string FieldDifference(const Fields& fields, const S& a, const S& b) {
  std::string diff;
  ForEachField(fields, [&](const auto& field) {
    if (diff.empty()) {
      const std::string below = Difference(a.*field.member, b.*field.member);
      if (!below.empty()) {
        diff = field.name + below;
      }
    }
  });
  return diff;
}

template <typename T>
std::string Difference(const T& a, const T& b) {
  if constexpr (std::is_same_v<T, TenantResult>) {
    const std::string diff = FieldDifference(kTenantResultFields, a, b);
    return diff.empty() ? diff : "." + diff;
  } else if constexpr (std::is_same_v<T, std::string> || std::is_arithmetic_v<T>) {
    bool equal = a == b;
    if constexpr (std::is_same_v<T, double>) {
      // By bit pattern: identical is the contract, so a NaN matches itself.
      equal = std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
    }
    return equal ? "" : ": " + Render(a) + " vs " + Render(b);
  } else {
    if (a.size() != b.size()) {
      return ".size(): " + Render(a.size()) + " vs " + Render(b.size());
    }
    for (size_t i = 0; i < a.size(); ++i) {
      const std::string below = Difference(a[i], b[i]);
      if (!below.empty()) {
        return "[" + Render(i) + "]" + below;
      }
    }
    return "";
  }
}

}  // namespace

std::string FirstResultDifference(const ExperimentResult& a, const ExperimentResult& b) {
  return FieldDifference(kExperimentResultFields, a, b);
}

std::vector<double> NormalizeToFirst(const std::vector<double>& values) {
  std::vector<double> out(values.size(), 0.0);
  if (values.empty() || values.front() == 0.0) {
    return out;
  }
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = values[i] / values.front();
  }
  return out;
}

}  // namespace chronotier
