// chronobench: the host-performance benchmark of the simulator.
//
// Every other bench reports *simulated* metrics. This one reports what running the
// simulator costs the host, end to end and split by layer, on four workloads chosen so
// that each stresses a different part of the machine (bench/perf/README.md):
//
//   fastlane        translation and the access fast lane (2x segmented uniform, 95% reads)
//   hotset-shift    the same layers with writes and a moving hot set: scan, hint faults,
//                   policy hooks and migration
//   tenants-fabric  Zipf generation, per-access tenant and congestion accounting, QoS
//   fig06-sweep     the Fig. 6 policy x R/W matrix through the parallel runner
//
// Everything is timed from outside, through the public API only:
//   - phase spans: Experiment::Run entry (the policy factory) -> `inspect` (setup),
//     `inspect` -> `finish` (simulate), `finish` -> return (teardown);
//   - workload spans: TimedStream wraps each AccessStream and times Init and FillBatch;
//   - policy spans: TimedPolicy wraps the TieringPolicy and times every hook, keeping a
//     span stack so nested hooks (hint fault -> sync promotion -> reclaim -> OnDemotion)
//     are charged as self time once;
//   - counters: public getters plus a per-type count over the Tracer ring.
//
// Protocol per workload: R plain passes (no decorators, no tracer) give the end-to-end
// metrics; then one traced pass (decorators on, every trace category except access, ring
// sized to drop nothing) gives the per-layer metrics. Each cell's result fingerprint must
// agree across all passes, or the cell counts as failed. A fixed reference kernel timed
// before every plain pass measures the host's speed during the run; the gated host-time
// metrics are scaled by it (ReferenceSeconds).
//
// usage: chronobench --workload W [--seed S] [--reps R] [--seconds T] [--no-trace-pass]
//                    [--out FILE] [--smoke]

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench/perf/host_clock.h"
#include "src/common/json.h"
#include "src/core/standard_policies.h"
#include "src/harness/experiment.h"
#include "src/harness/machine.h"
#include "src/harness/runner.h"
#include "src/tenant/tenant.h"
#include "src/workloads/patterns.h"
#include "src/workloads/pmbench.h"
#include "src/workloads/tenant_kv.h"

namespace chronobench {
namespace {

namespace ct = chronotier;

// ---------------------------------------------------------------------------------------
// Workload definitions. Deliberately independent of bench/bench_common.h, so later edits
// to the figure benches cannot change what this benchmark measures. No A/B knob is set:
// enable_translation_cache, replay_batch_ops and track_oracle keep their defaults.
// ---------------------------------------------------------------------------------------

constexpr uint64_t kMachineMb = 256;
constexpr double kFastFraction = 0.25;
constexpr double kBandwidthScale = 1024.0;  // 256 GB testbed / 256 MB machine.

// Simulated windows, short on purpose: a pass over a workload costs 1-2 host seconds, so a
// 25 s run holds about a dozen passes and each cell's best-of-R has many samples to pick
// from. On a shared host the noise comes in bursts; more, shorter samples beat fewer long
// ones. The warmup still covers first touch and the first scan steps.
struct Windows {
  ct::SimDuration warmup = 2 * ct::kSecond;
  ct::SimDuration measure = 4 * ct::kSecond;
};

struct CellSpec {
  std::string row;
  ct::NamedPolicyFactory policy;
  ct::ExperimentConfig config;
  std::vector<ct::ProcessSpec> processes;
};

struct Workload {
  std::string name;
  std::vector<CellSpec> cells;
  int jobs = 1;  // Plain passes run through RunExperiments at this concurrency.
};

ct::ScanGeometry Geometry() {
  ct::ScanGeometry geometry;
  geometry.scan_period = 5 * ct::kSecond;
  geometry.scan_step_pages = 1024;
  return geometry;
}

ct::ExperimentConfig TwoTierMachine(uint64_t seed, const Windows& windows) {
  ct::ExperimentConfig config;
  config.total_pages = (kMachineMb << 20) / ct::kBasePageSize;
  config.fast_fraction = kFastFraction;
  config.bandwidth_scale = kBandwidthScale;
  config.warmup = windows.warmup;
  config.measure = windows.measure;
  config.seed = seed;
  return config;
}

std::vector<ct::NamedPolicyFactory> Lineup(const std::vector<std::string>& names) {
  std::vector<ct::NamedPolicyFactory> out;
  for (const ct::NamedPolicyFactory& policy : ct::TopologyPolicySet(Geometry())) {
    if (std::find(names.begin(), names.end(), policy.name) != names.end()) {
      out.push_back(policy);
    }
  }
  CHECK_EQ(out.size(), names.size()) << "policy lineup lost an entry";
  return out;
}

const std::vector<std::string>& SixPolicies() {
  static const std::vector<std::string> kNames = {"Linux-NB", "AutoTiering", "Multi-Clock",
                                                  "TPP",      "Memtis",      "Chrono"};
  return kNames;
}

void AddRow(Workload* workload, const std::string& row, const ct::ExperimentConfig& config,
            const std::vector<ct::ProcessSpec>& processes,
            const std::vector<std::string>& policies) {
  for (const ct::NamedPolicyFactory& policy : Lineup(policies)) {
    workload->cells.push_back(CellSpec{row, policy, config, processes});
  }
}

ct::ProcessSpec SegmentedProc() {
  ct::SegmentedConfig w;
  w.working_set_bytes = 96ull << 20;
  w.segments = 32;
  w.read_ratio = 0.95;
  w.per_op_delay = 2 * ct::kMicrosecond;
  w.sequential_init = true;
  return ct::ProcessSpec{"segmented", [w] { return std::make_unique<ct::SegmentedStream>(w); }};
}

ct::ProcessSpec HotsetProc() {
  ct::HotsetConfig w;
  w.working_set_bytes = 120ull << 20;
  w.hot_fraction = 0.2;
  w.hot_access_fraction = 0.9;
  w.read_ratio = 0.3;
  w.phase_ops = 500000;
  w.per_op_delay = 2 * ct::kMicrosecond;
  w.sequential_init = true;
  return ct::ProcessSpec{"hotset", [w] { return std::make_unique<ct::HotsetStream>(w); }};
}

ct::ProcessSpec PmbenchProc(double read_ratio) {
  ct::PmbenchConfig w;
  w.working_set_bytes = 96ull << 20;
  w.read_ratio = read_ratio;
  w.pattern = ct::PmbenchPattern::kGaussian;
  w.stride = 2;
  w.per_op_delay = 2 * ct::kMicrosecond;
  w.sequential_init = true;
  return ct::ProcessSpec{"pmbench", [w] { return std::make_unique<ct::PmbenchStream>(w); }};
}

ct::ProcessSpec TenantKvProc(int tenant) {
  ct::TenantKvConfig w;
  w.virtual_tenants = 16;
  w.items_per_tenant = 192;
  w.value_bytes = ct::kBasePageSize;  // One value page per item.
  w.churn_period_ops = 10000;
  w.churn_stride = 5;  // Coprime to 16: the popularity rotation cycles fully.
  w.mean_interarrival = 4 * ct::kMicrosecond;
  w.poisson_arrivals = true;
  ct::ProcessSpec spec{"kv-" + std::to_string(tenant),
                       [w] { return std::make_unique<ct::TenantKvStream>(w); }};
  spec.tenant = tenant;
  return spec;
}

// The 4-endpoint CXL tree: 25% DRAM at the root, the rest split over two 2-deep chains.
// Latencies and link bandwidths keep the topology layer's defaults.
ct::TopologySpec FabricTopology() {
  const uint64_t total_pages = (kMachineMb << 20) / ct::kBasePageSize;
  const auto fast_pages =
      static_cast<uint64_t>(static_cast<double>(total_pages) * kFastFraction);
  ct::TopologySpec spec;
  spec.tree = "(1,(2,4),(3,5))";
  spec.capacity_pages = {fast_pages};
  for (int endpoint = 0; endpoint < 4; ++endpoint) {
    spec.capacity_pages.push_back((total_pages - fast_pages) / 4);
  }
  return spec;
}

Workload MakeWorkload(const std::string& name, uint64_t seed, bool smoke) {
  Windows windows;
  if (smoke) {
    windows.warmup = ct::kSecond;
    windows.measure = ct::kSecond;
  }
  Workload workload;
  workload.name = name;
  if (name == "fastlane") {
    AddRow(&workload, name, TwoTierMachine(seed, windows), {SegmentedProc(), SegmentedProc()},
           SixPolicies());
  } else if (name == "hotset-shift") {
    AddRow(&workload, name, TwoTierMachine(seed, windows), {HotsetProc(), HotsetProc()},
           SixPolicies());
  } else if (name == "tenants-fabric") {
    ct::ExperimentConfig config = TwoTierMachine(seed, windows);
    config.topology = FabricTopology();
    std::vector<ct::ProcessSpec> processes;
    for (int i = 0; i < 8; ++i) {
      ct::TenantSpec tenant;
      tenant.name = "t" + std::to_string(i);
      tenant.residency_budget_pages = {1024};  // Fast node capped; endpoints unlimited.
      tenant.qos_program = "strict-budget";
      config.tenants.push_back(tenant);
      processes.push_back(TenantKvProc(i));
    }
    AddRow(&workload, name, config, processes, {"Linux-NB", "Chrono", "endpoint_aware_hotness"});
  } else if (name == "fig06-sweep") {
    for (const auto& [row, read_ratio] :
         std::vector<std::pair<std::string, double>>{{"95:5", 0.95}, {"5:95", 0.05}}) {
      AddRow(&workload, row, TwoTierMachine(seed, windows),
             {PmbenchProc(read_ratio), PmbenchProc(read_ratio)}, SixPolicies());
    }
    workload.jobs = std::min(4, ct::DefaultJobs());
  } else {
    std::fprintf(stderr, "chronobench: unknown workload '%s'\n", name.c_str());
    std::exit(2);
  }
  return workload;
}

// ---------------------------------------------------------------------------------------
// Decorators: pass-through wrappers that time calls into the stream and policy APIs.
// ---------------------------------------------------------------------------------------

struct StreamSpans {
  int64_t init_ns = 0;
  int64_t fill_ns = 0;
  uint64_t fill_calls = 0;
  uint64_t ops = 0;
};

class TimedStream final : public ct::AccessStream {
 public:
  TimedStream(std::unique_ptr<ct::AccessStream> inner, StreamSpans* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void Init(ct::Process& process, ct::Rng& rng) override {
    const int64_t start = HostNowNs();
    inner_->Init(process, rng);
    spans_->init_ns += HostNowNs() - start;
  }
  // The machine replays through FillBatch; Next only has to forward.
  bool Next(ct::Rng& rng, ct::MemOp* op) override { return inner_->Next(rng, op); }
  size_t FillBatch(ct::Rng& rng, ct::MemOp* ops, size_t max) override {
    const int64_t start = HostNowNs();
    const size_t produced = inner_->FillBatch(rng, ops, max);
    spans_->fill_ns += HostNowNs() - start;
    ++spans_->fill_calls;
    spans_->ops += produced;
    return produced;
  }

 private:
  std::unique_ptr<ct::AccessStream> inner_;
  StreamSpans* spans_;
};

enum Hook : int {
  kAttach,
  kOnProcessCreated,
  kOnHintFault,
  kOnDemandAllocation,
  kOnDemotion,
  kDemotionTarget,
  kDemotionRefillTarget,
  kWantsSharedReclaim,
  kPreferredPageSize,
  kNumHooks,
};

constexpr std::array<const char*, kNumHooks> kHookNames = {
    "Attach",         "OnProcessCreated",     "OnHintFault",
    "OnDemandAllocation", "OnDemotion",       "DemotionTarget",
    "DemotionRefillTarget", "WantsSharedReclaim", "PreferredPageSize",
};

struct HookStat {
  uint64_t calls = 0;
  int64_t self_ns = 0;  // Time inside the hook minus time inside hooks it re-entered.
};

using HookStats = std::array<HookStat, kNumHooks>;

// Adds into `stats`, which must outlive the policy; the machine destroys the policy
// before Experiment::Run returns.
class TimedPolicy final : public ct::TieringPolicy {
 public:
  TimedPolicy(std::unique_ptr<ct::TieringPolicy> inner, HookStats* stats)
      : inner_(std::move(inner)), stats_(stats) {
    frames_.reserve(8);
  }

  std::string_view name() const override { return inner_->name(); }
  void Attach(ct::Machine& machine) override {
    const Span span(this, kAttach);
    inner_->Attach(machine);
  }
  void OnProcessCreated(ct::Process& process) override {
    const Span span(this, kOnProcessCreated);
    inner_->OnProcessCreated(process);
  }
  ct::SimDuration OnHintFault(ct::Process& process, ct::Vma& vma, ct::PageInfo& unit,
                              bool is_store, ct::SimTime now) override {
    const Span span(this, kOnHintFault);
    return inner_->OnHintFault(process, vma, unit, is_store, now);
  }
  void OnDemandAllocation(ct::Process& process, ct::Vma& vma, ct::PageInfo& unit,
                          ct::SimTime now) override {
    const Span span(this, kOnDemandAllocation);
    inner_->OnDemandAllocation(process, vma, unit, now);
  }
  void OnDemotion(ct::Vma& vma, ct::PageInfo& unit, ct::SimTime now) override {
    const Span span(this, kOnDemotion);
    inner_->OnDemotion(vma, unit, now);
  }
  ct::NodeId DemotionTarget(const ct::TieredMemory& memory, const ct::PageInfo& unit,
                            ct::SimTime now) const override {
    const Span span(this, kDemotionTarget);
    return inner_->DemotionTarget(memory, unit, now);
  }
  uint64_t DemotionRefillTarget(const ct::MemoryTier& fast_tier) const override {
    const Span span(this, kDemotionRefillTarget);
    return inner_->DemotionRefillTarget(fast_tier);
  }
  bool WantsSharedReclaim() const override {
    const Span span(this, kWantsSharedReclaim);
    return inner_->WantsSharedReclaim();
  }
  ct::PageSizeKind PreferredPageSize() const override {
    const Span span(this, kPreferredPageSize);
    return inner_->PreferredPageSize();
  }

 private:
  struct Frame {
    int64_t start_ns;
    int64_t child_ns;
  };

  // One timed hook invocation. Nested spans add their full duration to the enclosing
  // frame's child time, so every nanosecond is charged to exactly one hook.
  class Span {
   public:
    Span(const TimedPolicy* owner, Hook hook) : owner_(owner), hook_(hook) {
      owner_->frames_.push_back(Frame{HostNowNs(), 0});
    }
    ~Span() {
      const Frame frame = owner_->frames_.back();
      owner_->frames_.pop_back();
      const int64_t total = HostNowNs() - frame.start_ns;
      HookStat& stat = (*owner_->stats_)[hook_];
      ++stat.calls;
      stat.self_ns += total - frame.child_ns;
      if (!owner_->frames_.empty()) {
        owner_->frames_.back().child_ns += total;
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    const TimedPolicy* owner_;
    Hook hook_;
  };

  std::unique_ptr<ct::TieringPolicy> inner_;
  HookStats* stats_;
  mutable std::vector<Frame> frames_;
};

// ---------------------------------------------------------------------------------------
// Passes: one RunExperiments call over every cell of the workload.
// ---------------------------------------------------------------------------------------

// Per-layer totals of the traced pass, summed over its cells (the traced pass is serial,
// so every cell adds into one instance). Trace-derived counts cover the whole run, warmup
// included; result-derived ones the measured window.
struct LayerTotals {
  StreamSpans streams;
  HookStats hooks = {};
  uint64_t demand_faults = 0;
  uint64_t hint_faults = 0;
  uint64_t reclaim_wakes = 0;
  uint64_t reclaim_scanned = 0;
  uint64_t reclaim_demoted = 0;
  uint64_t scan_laps = 0;
  uint64_t scan_units = 0;
  uint64_t scan_poisons = 0;
  uint64_t promote_decisions = 0;
  uint64_t enqueues = 0;
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t refused = 0;
  uint64_t copy_legs = 0;
  uint64_t dirty_aborts = 0;
  uint64_t qos_verdicts = 0;
  uint64_t qos_refusals = 0;
  uint64_t events = 0;
  uint64_t dropped = 0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  uint64_t tlb_invalidations = 0;
  uint64_t pebs_samples = 0;
  uint64_t congested_accesses = 0;
  uint64_t multi_hop_legs = 0;
  uint64_t audits = 0;
  int64_t audit_ns = 0;
};

// What the hooks observe about one cell in one pass.
struct Probe {
  std::thread::id thread;
  int64_t entry_ns = 0;       // Experiment::Run entry (the policy factory call).
  int64_t inspect_ns = 0;     // Setup done; simulated time about to start.
  int64_t finish_ns = 0;      // Measured window and result collection done.
  int64_t finish_end_ns = 0;  // Our own finish-hook work done.
  int64_t exit_ns = 0;        // Experiment::Run returned (serial passes only).
  uint64_t accesses = 0;      // Simulated accesses, warmup + measure.
  bool checks_ok = false;     // Ledger balanced, audits ran; traced: clean audit, no drops.
};

struct PassResult {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<Probe> probes;
  std::vector<ct::ExperimentResult> results;
  LayerTotals layers;  // Traced passes only.
};

// Adds the traced machine's counters into `totals`; returns false if the ring dropped
// events or the end-state audit failed.
bool CountLayers(ct::Machine& machine, const ct::ExperimentResult& result,
                 LayerTotals* totals) {
  ct::Tracer& tracer = *machine.tracer();
  totals->events += tracer.recorded();
  totals->dropped += tracer.overwritten();
  tracer.ForEachEvent([totals](const ct::TraceEvent& event) {
    using T = ct::TraceEventType;
    switch (event.type) {
      case T::kDemandFault: ++totals->demand_faults; break;
      case T::kHintFault: ++totals->hint_faults; break;
      case T::kReclaimWake: ++totals->reclaim_wakes; break;
      case T::kReclaimDone:
        totals->reclaim_demoted += event.a;
        totals->reclaim_scanned += event.b;
        break;
      case T::kScanLap:
        ++totals->scan_laps;
        totals->scan_units += event.a;
        break;
      case T::kScanPoison: ++totals->scan_poisons; break;
      case T::kPolicyPromote: ++totals->promote_decisions; break;
      case T::kPolicyEnqueue: ++totals->enqueues; break;
      case T::kMigrationSubmit: ++totals->submitted; break;
      case T::kMigrationCommit: ++totals->committed; break;
      case T::kMigrationRefused: ++totals->refused; break;
      case T::kMigrationCopy: ++totals->copy_legs; break;
      case T::kMigrationDirtyAbort: ++totals->dirty_aborts; break;
      case T::kTenantQosVerdict:
        ++totals->qos_verdicts;
        totals->qos_refusals += event.b != 0 ? 1 : 0;
        break;
      default: break;
    }
  });
  const ct::Machine::TlbCounters tlb = machine.TlbStats();
  totals->tlb_hits += tlb.hits;
  totals->tlb_misses += tlb.misses;
  totals->tlb_invalidations += tlb.invalidations;
  totals->pebs_samples += machine.pebs().samples_delivered();
  const ct::TieredMemory& memory = machine.memory();
  if (memory.congestion_enabled()) {
    for (ct::NodeId id = 0; id < memory.num_nodes(); ++id) {
      totals->congested_accesses += memory.congestion(id).congested_accesses();
    }
  }
  totals->multi_hop_legs += result.multi_hop_legs;
  totals->audits += result.audits_run;
  // One full invariant audit of the end state, timed: the periodic auditor runs this
  // once per simulated second inside every cell.
  const int64_t audit_start = HostNowNs();
  const bool clean = machine.AuditNow().clean();
  totals->audit_ns += HostNowNs() - audit_start;
  return clean && tracer.overwritten() == 0;
}

bool LedgerBalanced(ct::Machine& machine, const ct::ExperimentResult& result) {
  const uint64_t retired =
      result.migrations_committed + result.migrations_aborted + result.migrations_parked;
  return result.audits_run > 0 &&
         retired <= result.migrations_submitted + result.inflight_at_measure_start +
                        machine.migration().inflight_transactions();
}

ct::TraceConfig TracedPassConfig() {
  ct::TraceConfig trace;
  trace.enabled = true;
  trace.categories =
      ct::kTraceAllCategories & ~ct::TraceCategoryBit(ct::TraceCategory::kAccess);
  trace.ring_capacity = 1ull << 23;  // Reserved lazily; the busiest cell stays far below.
  trace.provenance_sample_period = 0;
  trace.telemetry_period = 0;
  return trace;
}

PassResult RunPass(const Workload& workload, bool traced) {
  PassResult pass;
  pass.probes.resize(workload.cells.size());
  LayerTotals* layers = traced ? &pass.layers : nullptr;
  std::vector<ct::ExperimentJob> batch;
  batch.reserve(workload.cells.size());
  for (size_t i = 0; i < workload.cells.size(); ++i) {
    const CellSpec& cell = workload.cells[i];
    Probe* probe = &pass.probes[i];
    ct::ExperimentJob job;
    job.label = cell.row + "/" + cell.policy.name;
    job.config = cell.config;
    job.processes = cell.processes;
    if (layers != nullptr) {
      job.config.trace = TracedPassConfig();
      for (ct::ProcessSpec& spec : job.processes) {
        spec.make_stream = [layers, inner = spec.make_stream] {
          return std::make_unique<TimedStream>(inner(), &layers->streams);
        };
      }
    }
    job.make_policy = [probe, layers,
                       inner = cell.policy.make]() -> std::unique_ptr<ct::TieringPolicy> {
      probe->thread = std::this_thread::get_id();
      probe->entry_ns = HostNowNs();
      std::unique_ptr<ct::TieringPolicy> policy = inner();
      if (layers == nullptr) {
        return policy;
      }
      return std::make_unique<TimedPolicy>(std::move(policy), &layers->hooks);
    };
    job.inspect = [probe](ct::Machine&, ct::TieringPolicy&) { probe->inspect_ns = HostNowNs(); };
    job.finish = [probe, layers](ct::Machine& machine, ct::ExperimentResult& result) {
      probe->finish_ns = HostNowNs();
      for (const auto& process : machine.processes()) {
        probe->accesses += process->completed_accesses();
      }
      probe->checks_ok = LedgerBalanced(machine, result) &&
                         (layers == nullptr || CountLayers(machine, result, layers));
      probe->finish_end_ns = HostNowNs();
    };
    batch.push_back(std::move(job));
  }
  const int jobs = traced ? 1 : workload.jobs;
  pass.start_ns = HostNowNs();
  pass.results = ct::RunExperiments(batch, jobs);
  pass.end_ns = HostNowNs();
  if (jobs <= 1) {
    // Serial: each cell's Run returned just before the next one's factory call.
    for (size_t i = 0; i < pass.probes.size(); ++i) {
      pass.probes[i].exit_ns =
          i + 1 < pass.probes.size() ? pass.probes[i + 1].entry_ns : pass.end_ns;
    }
  }
  return pass;
}

// ---------------------------------------------------------------------------------------
// Fingerprint: FNV-1a over a fixed subset of the result. Equal across every pass of a
// cell, or the cell failed (nondeterminism, or a decorator that perturbed the run).
// ---------------------------------------------------------------------------------------

class Fnv {
 public:
  void Mix(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  void Mix(double value) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }
  void Mix(std::string_view text) {
    for (const char c : text) {
      Mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

uint64_t Fingerprint(const ct::ExperimentResult& result, uint64_t accesses) {
  Fnv fnv;
  fnv.Mix(std::string_view(result.policy_name));
  fnv.Mix(accesses);
  fnv.Mix(result.throughput_ops);
  fnv.Mix(result.fmar);
  fnv.Mix(result.p99_latency_ns);
  fnv.Mix(result.promoted_pages);
  fnv.Mix(result.demoted_pages);
  fnv.Mix(result.migrations_submitted);
  fnv.Mix(result.migrations_committed);
  fnv.Mix(result.migrations_refused);
  fnv.Mix(result.migration_commit_hash);
  return fnv.hash();
}

// ---------------------------------------------------------------------------------------
// Reduction and output.
// ---------------------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Min(const std::vector<double>& values) {
  return *std::min_element(values.begin(), values.end());
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct CellReport {
  std::string row;
  std::string policy;
  uint64_t accesses = 0;
  double throughput_ops = 0;
  uint64_t fingerprint = 0;
  bool failed = false;
  std::vector<double> setup_s;
  std::vector<double> simulate_s;
  std::vector<double> teardown_s;  // Serial passes only.
};

struct Options {
  std::string workload;
  uint64_t seed = 42;
  int reps = 3;
  double seconds = 0;
  bool trace_pass = true;
  bool smoke = false;
  std::string out;
};

[[noreturn]] void Usage(const char* prog, const std::string& error) {
  std::fprintf(stderr,
               "%s%s"
               "usage: %s --workload W [--seed S] [--reps R] [--seconds T] [--no-trace-pass]\n"
               "                  [--out FILE] [--smoke]\n\n"
               "  --workload W      fastlane | hotset-shift | tenants-fabric | fig06-sweep\n"
               "  --seed S          workload seed (default 42)\n"
               "  --reps R          plain passes (default 3); with --seconds, the minimum\n"
               "  --seconds T       keep adding plain passes while the next one (and the\n"
               "                    traced pass) still fits in T host seconds\n"
               "  --no-trace-pass   skip the traced pass (end-to-end metrics only)\n"
               "  --out FILE        write the result JSON here\n"
               "  --smoke           1 s windows and 1 plain pass (CI smoke)\n",
               error.c_str(), error.empty() ? "" : "\n\n", prog);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(argv[0], arg + " requires a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--reps") {
      options.reps = std::max(1, std::atoi(value().c_str()));
    } else if (arg == "--seconds") {
      options.seconds = std::max(0.0, std::atof(value().c_str()));
    } else if (arg == "--no-trace-pass") {
      options.trace_pass = false;
    } else if (arg == "--out") {
      options.out = value();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0], "");
    } else {
      Usage(argv[0], "unknown argument '" + arg + "'");
    }
  }
  if (options.workload.empty()) {
    Usage(argv[0], "--workload is required");
  }
  if (options.smoke) {
    options.reps = 1;
    options.seconds = 0;
  }
  return options;
}

// Host-speed reference: 1M dependent read-modify-writes at random slots of a 16 MB table
// (~0.13 s), the access path's mix of cache misses and integer work, and no simulator code.
// On a shared 4-vCPU VM the host's speed drifted by 25% over minutes; over ten 25 s windows
// the best fastlane cell time ranged 25% and its ratio to the reference's best time 8%.
constexpr double kReferenceSecondsOnCalibrationHost = 0.125;

double TimeReferenceKernel() {
  std::vector<uint64_t> table(size_t{1} << 21, 1);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t slot = 0;
  const auto chase = [&] {
    for (int i = 0; i < 100000; ++i) {
      const uint64_t value = table[slot];
      x = (x ^ value) * 0xBF58476D1CE4E5B9ull;
      table[slot] = value + (x >> 7);
      slot = (x >> 17) & (table.size() - 1);
    }
  };
  chase();  // Warms caches and TLB; the next ten chases are timed.
  const int64_t start = HostNowNs();
  for (int round = 0; round < 10; ++round) {
    chase();
  }
  const int64_t end = HostNowNs();
  volatile uint64_t sink = x;  // Keeps the chain live.
  (void)sink;
  return NsToSeconds(end - start);
}

// Runs the kernel in a child process, so its table neither raises this process's peak RSS
// nor changes the heap the simulator allocates from. Called between passes, when the
// runner's worker threads have been joined.
double ReferenceSeconds() {
  int fds[2];
  CHECK_EQ(pipe(fds), 0) << "pipe failed";
  const pid_t child = fork();
  CHECK_GE(child, 0) << "fork failed";
  if (child == 0) {
    close(fds[0]);
    const double seconds = TimeReferenceKernel();
    const bool sent = write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = 0;
  const bool received = read(fds[0], &seconds, sizeof(seconds)) == sizeof(seconds);
  close(fds[0]);
  int status = 0;
  CHECK_EQ(waitpid(child, &status, 0), child);
  CHECK(received && WIFEXITED(status) && WEXITSTATUS(status) == 0) << "reference kernel failed";
  return seconds;
}

// This process image's peak RSS (VmHWM). Not getrusage's ru_maxrss: that one keeps the
// high-water mark of the process that forked us across exec, so under a Python launcher it
// reads the launcher's RSS whenever the simulator's own peak is lower.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // Reported in kB.
    }
  }
  CHECK(false) << "no VmHWM line in /proc/self/status";
  return 0;
}

// Σ busy ÷ (wall × jobs), and the idle tail between the first worker running out of
// cells and the end of the pass. Busy spans run from the factory call to the end of the
// finish hook (a parallel pass cannot see each cell's teardown from outside).
std::pair<double, double> RunnerStats(const PassResult& pass, int jobs) {
  std::vector<std::pair<std::thread::id, int64_t>> last_end;  // Per worker thread.
  int64_t busy_ns = 0;
  for (const Probe& probe : pass.probes) {
    busy_ns += probe.finish_end_ns - probe.entry_ns;
    auto it = std::find_if(last_end.begin(), last_end.end(),
                           [&](const auto& entry) { return entry.first == probe.thread; });
    if (it == last_end.end()) {
      last_end.emplace_back(probe.thread, probe.finish_end_ns);
    } else {
      it->second = std::max(it->second, probe.finish_end_ns);
    }
  }
  int64_t first_idle = pass.end_ns;
  for (const auto& entry : last_end) {
    first_idle = std::min(first_idle, entry.second);
  }
  const double wall = NsToSeconds(pass.end_ns - pass.start_ns);
  return {Ratio(NsToSeconds(busy_ns), wall * jobs), NsToSeconds(pass.end_ns - first_idle)};
}

// Per-layer metrics of the traced pass. `accesses` and `best_simulate` are the plain
// passes' totals (every pass simulates the same accesses).
std::vector<Metric> LayerMetrics(const Workload& workload, const PassResult& traced,
                                 const std::vector<CellReport>& cells, double accesses,
                                 double best_simulate) {
  const LayerTotals& t = traced.layers;
  double simulate = 0;
  double teardown = 0;
  for (const Probe& probe : traced.probes) {
    simulate += NsToSeconds(probe.finish_ns - probe.inspect_ns);
    teardown += NsToSeconds(probe.exit_ns - probe.finish_end_ns);
  }
  double hooks = 0;
  uint64_t hook_calls = 0;
  for (int h = 0; h < kNumHooks; ++h) {
    if (h != kAttach) {  // Attach runs during setup; every other hook inside simulate.
      hooks += NsToSeconds(t.hooks[static_cast<size_t>(h)].self_ns);
      hook_calls += t.hooks[static_cast<size_t>(h)].calls;
    }
  }
  const double fill = NsToSeconds(t.streams.fill_ns);
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> layers = {
      {"harness.simulate_s", simulate, "s"},
      {"harness.self_s", simulate - fill - hooks, "s"},
      {"harness.ns_per_access", 1e9 * Ratio(simulate, accesses), "ns"},
      {"harness.teardown_s", teardown, "s"},
  };
  // Per-policy host time: plain best-of simulate, summed over the policy's rows.
  for (const ct::NamedPolicyFactory& policy : ct::TopologyPolicySet()) {
    double seconds = 0;
    bool present = false;
    for (const CellReport& cell : cells) {
      if (cell.policy == policy.name) {
        seconds += Min(cell.simulate_s);
        present = true;
      }
    }
    if (present) {
      layers.push_back({"harness.cell." + policy.name + ".simulate_s", seconds, "s"});
    }
  }
  const std::vector<Metric> rest = {
      {"harness.demand_faults", count(t.demand_faults), "count"},
      {"harness.hint_faults", count(t.hint_faults), "count"},
      {"harness.reclaim_wakes", count(t.reclaim_wakes), "count"},
      {"harness.reclaim_scanned", count(t.reclaim_scanned), "pages"},
      {"harness.reclaim_demoted", count(t.reclaim_demoted), "pages"},
      {"vm.tlb_hit_ratio", Ratio(count(t.tlb_hits), count(t.tlb_hits + t.tlb_misses)), "ratio"},
      {"vm.tlb_lookups", count(t.tlb_hits + t.tlb_misses), "count"},
      {"vm.tlb_invalidations", count(t.tlb_invalidations), "count"},
      {"vm.scan_laps", count(t.scan_laps), "count"},
      {"vm.scan_units", count(t.scan_units), "count"},
      {"vm.scan_poisons", count(t.scan_poisons), "count"},
      {"workloads.init_s", NsToSeconds(t.streams.init_ns), "s"},
      {"workloads.fill_s", fill, "s"},
      {"workloads.fill_calls", count(t.streams.fill_calls), "count"},
      {"workloads.ns_per_op", 1e9 * Ratio(fill, count(t.streams.ops)), "ns"},
      {"workloads.share", Ratio(fill, simulate), "ratio"},
      {"policies.hook_s", hooks, "s"},
      {"policies.hook_calls", count(hook_calls), "count"},
      {"policies.ns_per_hook", 1e9 * Ratio(hooks, count(hook_calls)), "ns"},
      {"policies.share", Ratio(hooks, simulate), "ratio"},
      {"policies.attach_s", NsToSeconds(t.hooks[kAttach].self_ns), "s"},
      {"policies.promote_decisions", count(t.promote_decisions), "count"},
      {"policies.enqueues", count(t.enqueues), "count"},
      {"migration.submitted", count(t.submitted), "count"},
      {"migration.committed", count(t.committed), "count"},
      {"migration.refused", count(t.refused), "count"},
      {"migration.copy_legs", count(t.copy_legs), "count"},
      {"migration.dirty_aborts", count(t.dirty_aborts), "count"},
      {"migration.commit_ratio", Ratio(count(t.committed), count(t.submitted + t.refused)),
       "ratio"},
      {"topology.congested_accesses", count(t.congested_accesses), "count"},
      {"topology.multi_hop_legs", count(t.multi_hop_legs), "count"},
      {"tenant.qos_verdicts", count(t.qos_verdicts), "count"},
      {"tenant.qos_refusals", count(t.qos_refusals), "count"},
      {"pebs.samples", count(t.pebs_samples), "count"},
      {"fault.audits", count(t.audits), "count"},
      {"fault.audit_ms", 1e3 * NsToSeconds(t.audit_ns) / count(workload.cells.size()), "ms"},
      {"trace.events", count(t.events), "count"},
      {"trace.dropped", count(t.dropped), "count"},
      {"trace.overhead_ratio", Ratio(simulate, best_simulate), "ratio"},
  };
  layers.insert(layers.end(), rest.begin(), rest.end());
  for (int h = 0; h < kNumHooks; ++h) {
    const HookStat& stat = t.hooks[static_cast<size_t>(h)];
    const std::string prefix = std::string("policies.hook.") + kHookNames[h];
    layers.push_back({prefix + ".calls", count(stat.calls), "count"});
    layers.push_back({prefix + ".self_s", NsToSeconds(stat.self_ns), "s"});
  }
  return layers;
}

void WriteMetrics(ct::JsonWriter& json, const std::vector<Metric>& metrics) {
  json.BeginObject();
  for (const Metric& metric : metrics) {
    json.Key(metric.name);
    json.BeginObject();
    json.Field("value", metric.value);
    json.Field("unit", metric.unit);
    json.EndObject();
  }
  json.EndObject();
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& metric : metrics) {
    std::printf("  %-42s %16.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  const Workload workload = MakeWorkload(options.workload, options.seed, options.smoke);
  const size_t num_cells = workload.cells.size();
  std::printf("chronobench: workload %s, seed %llu, %zu cells, jobs %d\n",
              workload.name.c_str(), static_cast<unsigned long long>(options.seed), num_cells,
              workload.jobs);
  std::fflush(stdout);

  std::vector<CellReport> cells(num_cells);
  for (size_t i = 0; i < num_cells; ++i) {
    cells[i].row = workload.cells[i].row;
    cells[i].policy = workload.cells[i].policy.name;
  }
  uint64_t attempted = 0;
  uint64_t failed_runs = 0;
  // Folds one pass into the per-cell reports; the first pass sets the reference values.
  const auto absorb = [&](const PassResult& pass, bool first) {
    for (size_t i = 0; i < num_cells; ++i) {
      const Probe& probe = pass.probes[i];
      CellReport& cell = cells[i];
      const uint64_t fingerprint = Fingerprint(pass.results[i], probe.accesses);
      if (first) {
        cell.accesses = probe.accesses;
        cell.throughput_ops = pass.results[i].throughput_ops;
        cell.fingerprint = fingerprint;
      }
      const bool ok = fingerprint == cell.fingerprint && probe.accesses > 0 && probe.checks_ok;
      ++attempted;
      if (!ok) {
        ++failed_runs;
        cell.failed = true;
      }
    }
  };

  // --- plain passes ---
  const int64_t bench_start = HostNowNs();
  std::vector<double> reference_s;
  double peak_rss_mb = 0;
  std::vector<double> pass_wall_s;
  std::vector<std::pair<double, double>> runner;  // RunnerStats of each pass.
  const size_t max_reps = static_cast<size_t>(options.seconds > 0 ? 64 : options.reps);
  while (pass_wall_s.size() < max_reps) {
    reference_s.push_back(ReferenceSeconds());
    PassResult pass = RunPass(workload, /*traced=*/false);
    absorb(pass, pass_wall_s.empty());
    runner.push_back(RunnerStats(pass, workload.jobs));
    pass_wall_s.push_back(NsToSeconds(pass.end_ns - pass.start_ns));
    for (size_t i = 0; i < num_cells; ++i) {
      const Probe& probe = pass.probes[i];
      cells[i].setup_s.push_back(NsToSeconds(probe.inspect_ns - probe.entry_ns));
      cells[i].simulate_s.push_back(NsToSeconds(probe.finish_ns - probe.inspect_ns));
      if (probe.exit_ns != 0) {
        cells[i].teardown_s.push_back(NsToSeconds(probe.exit_ns - probe.finish_end_ns));
      }
    }
    if (pass_wall_s.size() == 1) {
      // After one pass over every cell: later passes grow the heap's fragmentation, so a
      // reading after all of them would depend on how many fit in --seconds.
      peak_rss_mb = PeakRssMb();
    }
    if (options.seconds > 0 && pass_wall_s.size() >= static_cast<size_t>(options.reps)) {
      // The traced pass is serial and ~1.3x a serial plain pass.
      const double mean_pass = NsToSeconds(HostNowNs() - bench_start) /
                               static_cast<double>(pass_wall_s.size());
      const double traced_estimate =
          options.trace_pass ? 1.3 * mean_pass * workload.jobs : 0.0;
      if (NsToSeconds(HostNowNs() - bench_start) + mean_pass + traced_estimate >
          options.seconds) {
        break;
      }
    }
  }

  // --- end-to-end metrics ---
  double accesses = 0;
  double best_simulate = 0;
  double setup = 0;
  for (const CellReport& cell : cells) {
    accesses += static_cast<double>(cell.accesses);
    best_simulate += Min(cell.simulate_s);
    setup += Median(cell.setup_s);
  }
  // Chrono's simulated throughput over Linux-NB's per row (Fig. 6's normalisation).
  double log_speedup = 0;
  int rows = 0;
  for (const CellReport& chrono : cells) {
    if (chrono.policy != "Chrono") continue;
    for (const CellReport& base : cells) {
      if (base.policy == "Linux-NB" && base.row == chrono.row) {
        log_speedup += std::log(chrono.throughput_ops / base.throughput_ops);
        ++rows;
      }
    }
  }
  const size_t best_rep = static_cast<size_t>(
      std::min_element(pass_wall_s.begin(), pass_wall_s.end()) - pass_wall_s.begin());
  // Host-time metrics are scaled to the calibration host's speed (see ReferenceSeconds);
  // the raw values stay in the JSON.
  const double host_speed = kReferenceSecondsOnCalibrationHost / Min(reference_s);
  const double raw_rate = Ratio(accesses, best_simulate);
  const std::vector<Metric> end_to_end = {
      {"sim_accesses_per_host_s", raw_rate / host_speed, "acc/s"},
      {"wall_s", pass_wall_s[best_rep] * host_speed, "s"},
      {"setup_s", setup * host_speed, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"sim_chrono_speedup", std::exp(log_speedup / std::max(rows, 1)), "x"},
  };
  const std::vector<Metric> host = {
      {"host.speed", host_speed, "x"},
      {"host.raw_sim_accesses_per_host_s", raw_rate, "acc/s"},
      {"host.raw_wall_s", pass_wall_s[best_rep], "s"},
      {"host.raw_setup_s", setup, "s"},
  };

  // --- traced pass and per-layer metrics ---
  std::vector<Metric> layers;
  if (options.trace_pass) {
    const PassResult traced = RunPass(workload, /*traced=*/true);
    absorb(traced, /*first=*/false);
    layers = LayerMetrics(workload, traced, cells, accesses, best_simulate);
    if (workload.jobs > 1) {
      const auto [utilization, tail] = runner[best_rep];
      layers.push_back({"harness.runner_utilization", utilization, "ratio"});
      layers.push_back({"harness.runner_tail_s", tail, "s"});
    }
  }

  uint64_t failed_cells = 0;
  for (const CellReport& cell : cells) {
    failed_cells += cell.failed ? 1 : 0;
  }
  std::vector<Metric> summary = end_to_end;
  summary.push_back({"failed_frac", Ratio(static_cast<double>(failed_cells),
                                          static_cast<double>(num_cells)),
                     "cells"});
  summary.insert(summary.end(), host.begin(), host.end());
  PrintMetrics("end-to-end:", summary);
  if (!layers.empty()) {
    PrintMetrics("per-layer:", layers);
  }
  std::printf("plain passes: %zu   cells failed: %llu of %zu\n", pass_wall_s.size(),
              static_cast<unsigned long long>(failed_cells), num_cells);

  if (!options.out.empty()) {
    std::ofstream out(options.out);
    if (!out) {
      std::fprintf(stderr, "chronobench: cannot open %s for writing\n", options.out.c_str());
      return 1;
    }
    ct::JsonWriter json(out);
    json.set_pretty(true);
    json.BeginObject();
    json.Field("workload", workload.name);
    json.Field("seed", options.seed);
    json.Field("smoke", options.smoke);
    json.Field("plain_passes", static_cast<uint64_t>(pass_wall_s.size()));
    json.Field("traced_pass", options.trace_pass);
    json.Field("jobs", workload.jobs);
    json.Field("host_cpus", std::thread::hardware_concurrency());
    json.Field("attempted", attempted);
    json.Field("failed", failed_runs);
    json.Field("failed_cells", failed_cells);
    json.Key("metrics");
    WriteMetrics(json, summary);
    json.Key("layers");
    WriteMetrics(json, layers);
    json.Key("pass_wall_s");
    json.BeginArray();
    for (const double wall : pass_wall_s) json.Value(wall);
    json.EndArray();
    json.Key("cells");
    json.BeginArray();
    for (const CellReport& cell : cells) {
      json.BeginObject();
      json.Field("row", cell.row);
      json.Field("policy", cell.policy);
      json.Field("accesses", cell.accesses);
      json.Field("throughput_ops", cell.throughput_ops);
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(cell.fingerprint));
      json.Field("fingerprint", std::string_view(hex));
      json.Field("failed", cell.failed);
      const auto samples = [&json](const char* key, const std::vector<double>& values) {
        json.Key(key);
        json.BeginArray();
        for (const double v : values) json.Value(v);
        json.EndArray();
      };
      samples("setup_s", cell.setup_s);
      samples("simulate_s", cell.simulate_s);
      samples("teardown_s", cell.teardown_s);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    out << "\n";
  }
  return failed_cells == 0 ? 0 : 3;
}

}  // namespace
}  // namespace chronobench

int main(int argc, char** argv) { return chronobench::Main(argc, argv); }
