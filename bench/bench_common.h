// Shared scaffolding for the figure/table reproduction benches.
//
// Scaling story (documented in EXPERIMENTS.md): the paper's testbed is 256 GB (64 GB DRAM +
// 192 GB Optane PM) with a 60 s scan period. The benches run a 1/1024-scale miniature —
// 256 MB of physical memory with copy-engine bandwidth scaled by the same factor so that
// migration pressure relative to capacity matches — and compress time 12x (5 s scan period)
// so placement dynamics converge within affordable simulated windows. All capacity *ratios*
// (25% DRAM, working set : DRAM) and the relative parameter geometry are preserved; absolute
// throughputs are not comparable to the paper's, orderings and trends are.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/table.h"
#include "src/core/standard_policies.h"
#include "src/harness/experiment.h"
#include "src/harness/runner.h"
#include "src/policies/scan_policy_base.h"
#include "src/topology/topology.h"
#include "src/trace/trace_event.h"
#include "src/workloads/kvstore.h"
#include "src/workloads/pmbench.h"

namespace chronotier {

// A bench-specific command-line option, registered with ParseBenchFlags alongside the
// shared flags so it shows up in --help and unknown-flag checking covers it.
struct BenchOption {
  std::string name;  // Including the leading dashes, e.g. "--out".
  std::string value_name;  // Empty for boolean options.
  std::string help;
  std::function<void(const std::string& value)> apply;  // Booleans get "".
};

// Flags every bench binary shares. `--jobs N` sets the parallel runner's concurrency
// (defaults to hardware concurrency; `--jobs 1` reproduces the serial sweep exactly —
// the runner's determinism contract makes every other value print identical tables).
// The --trace* family configures the observability subsystem for every experiment the
// bench runs; per-cell export paths get the cell's "<row>-<policy>" suffix.
struct BenchFlags {
  int jobs = DefaultJobs();
  TraceConfig trace;  // trace.enabled is set by --trace.
};

inline void PrintBenchUsage(const char* prog, const std::string& description,
                            const std::vector<BenchOption>& extra) {
  std::printf("usage: %s [options]\n\n%s\n\noptions:\n", prog, description.c_str());
  std::printf("  --help                     show this help and exit\n");
  std::printf("  --jobs N                   concurrent experiments (default: host cores)\n");
  std::printf("  --trace FILE.json          record a trace; write Chrome-trace JSON for\n");
  std::printf("                             ui.perfetto.dev (per cell: FILE.<cell>.json)\n");
  std::printf("  --trace-categories LIST    comma list of access,fault,scan,migration,\n");
  std::printf("                             reclaim,policy,tuning (or all/none). Default:\n");
  std::printf("                             everything except access — the access firehose\n");
  std::printf("                             overwrites the ring in seconds; opt in with\n");
  std::printf("                             --trace-categories all\n");
  std::printf("  --trace-sample-period MS   telemetry sample period in sim ms (0 = off)\n");
  std::printf("  --trace-timeseries FILE    write the telemetry time series (.csv or .json)\n");
  std::printf("  --trace-provenance FILE    write sampled pages' provenance histories\n");
  for (const BenchOption& option : extra) {
    std::string left = option.name;
    if (!option.value_name.empty()) {
      left += " " + option.value_name;
    }
    std::printf("  %-26s %s\n", left.c_str(), option.help.c_str());
  }
}

// Strict argv parser shared by every bench binary: supports `--flag value` and
// `--flag=value`, prints --help, and exits with an error on any unknown argument (nothing
// is silently ignored).
inline BenchFlags ParseBenchFlags(int argc, char** argv, const std::string& description,
                                  const std::vector<BenchOption>& extra = {}) {
  BenchFlags flags;
  bool categories_set = false;
  const auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "%s: %s\n\n", argv[0], message.c_str());
    PrintBenchUsage(argv[0], description, extra);
    std::exit(2);
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto take_value = [&](const std::string& flag) {
      if (has_value) {
        return value;
      }
      if (i + 1 >= argc) {
        fail(flag + " requires a value");
      }
      return std::string(argv[++i]);
    };

    if (arg == "--help" || arg == "-h") {
      PrintBenchUsage(argv[0], description, extra);
      std::exit(0);
    } else if (arg == "--jobs") {
      flags.jobs = std::atoi(take_value(arg).c_str());
      if (flags.jobs < 1) {
        flags.jobs = 1;
      }
    } else if (arg == "--trace") {
      flags.trace.enabled = true;
      flags.trace.export_path = take_value(arg);
    } else if (arg == "--trace-categories") {
      flags.trace.enabled = true;
      uint32_t mask = 0;
      const std::string list = take_value(arg);
      if (!ParseTraceCategoryList(list, &mask)) {
        fail("unknown trace category in '" + list + "'");
      }
      flags.trace.categories = mask;
      categories_set = true;
    } else if (arg == "--trace-sample-period") {
      flags.trace.enabled = true;
      flags.trace.telemetry_period = std::atoll(take_value(arg).c_str()) * kMillisecond;
    } else if (arg == "--trace-timeseries") {
      flags.trace.enabled = true;
      flags.trace.timeseries_path = take_value(arg);
    } else if (arg == "--trace-provenance") {
      flags.trace.enabled = true;
      flags.trace.provenance_path = take_value(arg);
    } else {
      bool matched = false;
      for (const BenchOption& option : extra) {
        if (arg == option.name) {
          option.apply(option.value_name.empty() ? "" : take_value(arg));
          matched = true;
          break;
        }
      }
      if (!matched) {
        fail("unknown argument '" + std::string(argv[i]) + "'");
      }
    }
  }
  if (flags.trace.enabled && !categories_set) {
    // Access events outnumber everything else ~100:1 and overwrite the ring within
    // seconds of simulated time, evicting the migration/fault/reclaim history the trace
    // exists to show. Keep them out unless explicitly requested.
    flags.trace.categories = kTraceAllCategories & ~TraceCategoryBit(TraceCategory::kAccess);
  }
  return flags;
}

// Filesystem-safe cell suffix for per-experiment export paths.
inline std::string SanitizeTraceLabel(std::string label) {
  for (char& c : label) {
    if (c == '/' || c == ' ' || c == ':' || c == '\\') {
      c = '-';
    }
  }
  return label;
}

// "out.json" + cell "seed-7-Chrono" -> "out.seed-7-Chrono.json".
inline std::string TracePathForCell(const std::string& path, const std::string& cell) {
  if (path.empty()) {
    return path;
  }
  const size_t slash = path.find_last_of('/');
  const size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + cell;
  }
  return path.substr(0, dot) + "." + cell + path.substr(dot);
}

// Applies the shared --trace* flags to one experiment's config, suffixing every export
// path with the (sanitized) cell label so concurrent cells never clobber each other.
inline void ApplyTraceFlags(ExperimentConfig& config, const BenchFlags& flags,
                            const std::string& cell_label) {
  if (!flags.trace.enabled) {
    return;
  }
  config.trace = flags.trace;
  const std::string cell = SanitizeTraceLabel(cell_label);
  config.trace.export_path = TracePathForCell(flags.trace.export_path, cell);
  config.trace.timeseries_path = TracePathForCell(flags.trace.timeseries_path, cell);
  config.trace.provenance_path = TracePathForCell(flags.trace.provenance_path, cell);
}

// One row of a sweep: a machine/experiment configuration plus the processes to run on it.
// RunMatrix crosses rows with a policy lineup.
struct MatrixRow {
  std::string label;
  ExperimentConfig config;
  std::vector<ProcessSpec> processes;
};

// Runs |rows| x |policies| independent experiments through the parallel runner and returns
// results indexed [row][policy], in input order (bit-identical to the serial nested loop
// the figure benches used to run). Jobs come from --jobs; when --trace is active every
// cell records its own trace with "<row>-<policy>"-suffixed export paths.
// `inspect`/`finish` apply to every cell and must only touch the machine/result they are
// handed — cells run concurrently.
inline std::vector<std::vector<ExperimentResult>> RunMatrix(
    const std::vector<MatrixRow>& rows, const std::vector<NamedPolicyFactory>& policies,
    const BenchFlags& flags, const Experiment::InspectFn& inspect = nullptr,
    const Experiment::FinishFn& finish = nullptr) {
  std::vector<ExperimentJob> batch;
  batch.reserve(rows.size() * policies.size());
  for (const MatrixRow& row : rows) {
    for (const NamedPolicyFactory& policy : policies) {
      batch.push_back(ExperimentJob{row.label + "/" + policy.name, row.config, policy.make,
                                    row.processes, inspect, finish});
      ApplyTraceFlags(batch.back().config, flags, row.label + "-" + policy.name);
    }
  }
  std::vector<ExperimentResult> flat = RunExperiments(batch, flags.jobs);
  std::vector<std::vector<ExperimentResult>> shaped(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    shaped[r].assign(std::make_move_iterator(flat.begin() + r * policies.size()),
                     std::make_move_iterator(flat.begin() + (r + 1) * policies.size()));
  }
  return shaped;
}

// One cell of a run-twice sweep.
struct MatrixCell {
  std::string row;
  std::string policy;
  ExperimentResult result;
};

// The soak benches' determinism check: runs the matrix twice through RunMatrix and
// CHECK-fails unless every cell replays identically in every result field, naming the
// row, the policy and the first differing field. Appends the first run's cells to
// |cells| in row-major order.
inline void RunMatrixTwice(const std::vector<MatrixRow>& rows,
                           const std::vector<NamedPolicyFactory>& policies,
                           const BenchFlags& flags, const Experiment::FinishFn& finish,
                           std::vector<MatrixCell>& cells) {
  auto first = RunMatrix(rows, policies, flags, nullptr, finish);
  const auto second = RunMatrix(rows, policies, flags, nullptr, finish);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t i = 0; i < policies.size(); ++i) {
      const std::string diff = FirstResultDifference(first[r][i], second[r][i]);
      CHECK(diff.empty()) << "diverged across identical runs (row=" << rows[r].label
                          << ", policy=" << policies[i].name << "): " << diff;
      cells.push_back({rows[r].label, policies[i].name, std::move(first[r][i])});
    }
  }
}

// The per-run check the soak benches share. The migration ledger must balance: nothing a
// fault or a refusal touched may simply vanish, so migrations retired in the measured
// window are at most those submitted in it plus those in flight at either end of it.
// And at least one invariant audit must have run, or the run proves nothing. Stateless,
// so concurrently running cells may share it.
inline void CheckMigrationLedger(Machine& machine, ExperimentResult& result) {
  const uint64_t retired = result.migrations_committed + result.migrations_aborted +
                           result.migrations_parked;
  CHECK_LE(retired, result.migrations_submitted + result.inflight_at_measure_start +
                        machine.migration().inflight_transactions())
      << "policy " << result.policy_name << " lost track of migrations";
  CHECK_GT(result.audits_run, 0u)
      << "policy " << result.policy_name << " ran without a single invariant audit";
}

// The soak benches' base (non-fabric) chaos schedule: transient/persistent copy faults,
// channel stalls with bandwidth collapse, fast-tier pressure spikes and allocation-failure
// windows, starting once warmup placement has settled.
inline FaultPlan BaseChaosPlan(uint64_t seed) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  plan.start_after = 2 * kSecond;
  plan.copy_fail_transient_p = 0.03;
  plan.copy_fail_persistent_p = 0.001;
  plan.stall_period = 900 * kMillisecond;
  plan.stall_fire_p = 0.6;
  plan.stall_duration = 3 * kMillisecond;
  plan.stall_window = 40 * kMillisecond;
  plan.stall_bandwidth_slowdown = 4.0;
  plan.pressure_period = 1700 * kMillisecond;
  plan.pressure_fire_p = 0.7;
  plan.pressure_duration = 120 * kMillisecond;
  plan.pressure_fraction = 0.08;
  plan.alloc_fail_period = 2300 * kMillisecond;
  plan.alloc_fail_fire_p = 0.7;
  plan.alloc_fail_duration = 60 * kMillisecond;
  return plan;
}

// Miniature-machine factor: 256 GB testbed / 256 MB simulated.
inline constexpr double kBenchBandwidthScale = 1024.0;
// Time compression: 60 s paper scan period -> 5 s bench scan period.
inline constexpr SimDuration kBenchScanPeriod = 5 * kSecond;
// Scan step scaled so one step covers ~4% of a standard working set (paper: 256 MB of
// 250 GB per step).
inline constexpr uint64_t kBenchScanStepPages = 1024;

inline ScanGeometry BenchGeometry() {
  ScanGeometry geometry;
  geometry.scan_period = kBenchScanPeriod;
  geometry.scan_step_pages = kBenchScanStepPages;
  return geometry;
}

// The standard bench machine: 256 MB physical, 25% DRAM.
inline ExperimentConfig BenchMachine(uint64_t total_mb = 256, double fast_fraction = 0.25) {
  ExperimentConfig config;
  config.total_pages = (total_mb << 20) / kBasePageSize;
  config.fast_fraction = fast_fraction;
  config.bandwidth_scale = kBenchBandwidthScale;
  config.warmup = 35 * kSecond;
  config.measure = 30 * kSecond;
  return config;
}

// A pmbench process spec with the paper's normal_ih stride-2 pattern.
inline ProcessSpec BenchPmbenchProc(uint64_t working_set_mb, double read_ratio,
                                    SimDuration per_op_delay = 2 * kMicrosecond) {
  PmbenchConfig w;
  w.working_set_bytes = working_set_mb << 20;
  w.read_ratio = read_ratio;
  w.stride = 2;
  w.per_op_delay = per_op_delay;
  w.sequential_init = true;
  return ProcessSpec{"pmbench", [w] { return std::make_unique<PmbenchStream>(w); }};
}

// KV-store process spec (the Memcached/Redis stand-ins differ in value size).
inline ProcessSpec BenchKvProc(const std::string& name, uint64_t num_items,
                               uint64_t value_bytes, double set_fraction) {
  KvStoreConfig w;
  w.num_items = num_items;
  w.value_bytes = value_bytes;
  w.set_fraction = set_fraction;
  w.per_op_delay = 2 * kMicrosecond;
  return ProcessSpec{name, [w] { return std::make_unique<KvStoreStream>(w); }};
}

// The N-endpoint two-chain CXL fabric the topology benches sweep: 25% of the budget as
// DRAM at the root, the rest split evenly across `endpoints` endpoints wired as two
// chains under the root so larger fabrics contain genuinely multi-hop endpoints:
//
//   1 endpoint:  (1,2)                      8 endpoints: (1,(2,(4,(6,8))),(3,(5,(7,9))))
//   4 endpoints: (1,(2,4),(3,5))
//
// Fills the per-node spec arrays in the parser's pre-order (root, chain of endpoint 1,
// chain of endpoint 2), so array slot k describes the node with topo_id k. Endpoint k
// (1-based) has node id k + 1; endpoints 1 and 2 hang off the root, endpoint k >= 3
// under endpoint k - 2. Deeper endpoints are also slower devices (farther switch hops
// usually mean cheaper, denser memory in CXL pooling designs).
inline TopologySpec BenchChainTopology(int endpoints, uint64_t total_pages,
                                       double fast_fraction) {
  const auto fast_pages =
      static_cast<uint64_t>(static_cast<double>(total_pages) * fast_fraction);
  const uint64_t slow_pages = total_pages - fast_pages;
  const uint64_t per_endpoint = slow_pages / static_cast<uint64_t>(endpoints);

  TopologySpec spec;
  spec.capacity_pages = {fast_pages};
  spec.load_latency = {80 * kNanosecond};
  spec.store_latency = {80 * kNanosecond};
  spec.bandwidth = {12e9};

  const std::function<std::string(int)> render = [&](int k) {
    const int64_t device_load = (150 + 20 * (k - 1)) * kNanosecond;
    spec.capacity_pages.push_back(per_endpoint);
    spec.load_latency.push_back(device_load);
    spec.store_latency.push_back(device_load + 60 * kNanosecond);
    spec.bandwidth.push_back(8e9);
    const std::string id = std::to_string(k + 1);
    if (k + 2 > endpoints) {
      return id;
    }
    return "(" + id + "," + render(k + 2) + ")";
  };
  std::string tree = "(1," + render(1);
  if (endpoints >= 2) {
    tree += "," + render(2);
  }
  spec.tree = tree + ")";
  return spec;
}

// Row label helpers for the R/W ratio sweeps.
inline const std::vector<std::pair<std::string, double>>& RwRatios() {
  static const std::vector<std::pair<std::string, double>> kRatios = {
      {"95:5", 0.95}, {"70:30", 0.70}, {"30:70", 0.30}, {"5:95", 0.05}};
  return kRatios;
}

// Migration-engine table shared by the figure benches: one row per (label, result) pair,
// reusing results from runs the caller already made.
inline void PrintMigrationEngineTable(
    const std::vector<std::pair<std::string, ExperimentResult>>& rows) {
  TextTable table({"policy", "submitted", "committed", "aborted", "refused",
                   "attempts/commit", "copy-BW util"});
  for (const auto& [label, result] : rows) {
    table.AddRow({label, TextTable::Int(static_cast<long long>(result.migrations_submitted)),
                  TextTable::Int(static_cast<long long>(result.migrations_committed)),
                  TextTable::Int(static_cast<long long>(result.migrations_aborted)),
                  TextTable::Int(static_cast<long long>(result.migrations_refused)),
                  TextTable::Num(result.migration_mean_attempts),
                  TextTable::Percent(result.copy_bandwidth_utilization)});
  }
  table.Print();
}

}  // namespace chronotier
