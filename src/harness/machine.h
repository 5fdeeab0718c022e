// Machine: the assembled simulated system.
//
// Owns the clock/event queue, the tiered physical memory, the per-node LRU lists, the
// processes with their workloads, an optional PEBS sampler, the shared reclaim (demotion)
// daemon, and exactly one TieringPolicy. The access path implemented here mirrors the
// kernel: demand fault on first touch, NUMA hint fault on poisoned PTEs, accessed/dirty bit
// maintenance, then the device-latency charge for the backing tier.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_types.h"
#include "src/fault/invariant_auditor.h"
#include "src/harness/metrics.h"
#include "src/harness/policy.h"
#include "src/mem/tiered_memory.h"
#include "src/migration/migration_engine.h"
#include "src/pebs/pebs.h"
#include "src/sim/event_queue.h"
#include "src/tenant/tenant.h"
#include "src/trace/tracer.h"
#include "src/vm/lru.h"
#include "src/vm/process.h"
#include "src/vm/scanner.h"
#include "src/workloads/workload.h"

namespace chronotier {

struct MachineConfig {
  // The machine's memory (src/topology): one tier per node of the parsed tree, the root
  // being the fast tier. Deep trees add hop penalties on the access path and routed
  // multi-hop migration; `model_congestion` adds per-endpoint link congestion. Required:
  // StandardTwoTier sets the star "(1,2)".
  TopologySpec topology;

  // Divides every node's link bandwidth (its migration copy bandwidth and congestion service
  // rate): a 1/N-scale miniature machine must also scale its copy engines by N or
  // migration pressure becomes free. Benches use the same factor
  // as the capacity scaling (see EXPERIMENTS.md); unit tests keep 1.0 (testbed bandwidth).
  double bandwidth_scale = 1.0;
  // Migration-engine admission limits (per-class backlogs, in-flight page caps) and the
  // re-route budget.
  MigrationEngineConfig migration;

  // Access-path fast lane: per-process software translation cache (last-hit VMA + a small
  // direct-mapped vpn -> hotness-unit TLB) consulted by RunProcessUntil per op. Results
  // are bit-identical with it on or off (a hit on a present/!PROT_NONE/!migrating unit
  // runs the same access tail the slow path ends in); the switch exists as the reference the
  // TLB-on/off equivalence tests compare against.
  bool enable_translation_cache = true;

  // Fault-injection plan (disabled by default). When enabled, genuine allocation
  // exhaustion degrades gracefully instead of being fatal: the demand fault is refused,
  // the page stays absent, and the access is charged an allocation-retry stall
  // (kAllocRetryStall, machine.cc) before retrying on a later touch.
  FaultPlan fault;

  // Period of the always-on invariant audit (frame accounting, LRU membership, residency
  // counters, watermark ordering); 0 disables the periodic audit but not the end-of-run
  // audit run by the experiment harness.
  SimDuration audit_period = kSecond;

  // Observability (src/trace). Disabled by default; when enabled the machine owns a
  // Tracer that every subsystem emits into. Strictly observational: enabling it never
  // schedules queue events or touches simulation state, so results are bitwise identical
  // with tracing on or off (tests/trace_test.cc).
  TraceConfig trace;

  // Multi-tenant subsystem (src/tenant): the tenants processes are assigned to
  // (Machine::AssignTenant / ProcessSpec::tenant). Empty (the default) declares one
  // unlimited tenant named "default" that every process joins. Per-tenant counters flow
  // into Metrics, telemetry rows and ExperimentResult on every machine; residency budgets
  // and QoS programs, when declared, gate migration admission.
  std::vector<TenantSpec> tenants;

  // Configuration validation, run at Machine construction (CHECK-fatal on any error).
  // Returns every violated constraint as a human-readable string; empty means valid.
  std::vector<std::string> Validate() const;

  // Convenience: the paper's standard 25%-DRAM two-tier box sized in base pages.
  static MachineConfig StandardTwoTier(uint64_t total_pages, double fast_fraction = 0.25);
};

class Machine : private MigrationEnv {
 public:
  // Software cost of one PTE/PMD a scanner examines (charged to kernel time).
  static constexpr SimDuration kPteVisitCost = 120 * kNanosecond;
  // Round-robin quantum for advancing processes between kernel events: bounds how far one
  // process can run ahead of another, so contended allocation (demand paging into the fast
  // tier) interleaves fairly instead of being ordered by pid.
  static constexpr SimDuration kProcessQuantum = 5 * kMillisecond;
  // Batched access replay: each process's ops are generated into a ring of kStreamRingOps
  // ops, in slots of kReplaySlotOps (one FillBatch call per slot), and RunProcessUntil
  // replays a slot with the virtual stream dispatch hoisted out of the per-op loop. Slots
  // are filled ahead of replay by a helper thread while a host CPU is idle, else by
  // RunProcessUntil itself when it reaches an empty ring. Streams are machine-state
  // independent (FillBatch sees only the binding's RNG and the stream's own state), so
  // which thread fills cannot be seen in results. Stream generation runs at most a ring
  // ahead of replay.
  static constexpr size_t kReplaySlotOps = 64;
  static constexpr size_t kStreamRingOps = 1024;  // 24 KB of MemOps: 16 slots.

  Machine(MachineConfig config, std::unique_ptr<TieringPolicy> policy);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- setup ---
  Process& CreateProcess(const std::string& name);
  // Moves a process into `tenant` (default membership is tenant 0). Must happen before
  // the process faults any page in (the residency mirror starts at zero); applies the
  // tenant's access_delay override when one is configured.
  void AssignTenant(Process& process, int tenant);
  // Binds a workload; Init() runs immediately (mapping regions), first ops run on Start.
  void AttachWorkload(Process& process, std::unique_ptr<AccessStream> stream, uint64_t seed);

  // Finalizes setup: attaches the policy and starts the shared daemons. Must be called once
  // before Run*. Safe to create more processes afterwards (policy is notified).
  void Start();

  // --- execution ---
  // Runs for `duration` of simulated time.
  void Run(SimDuration duration);
  // Runs until every process's stream is exhausted or `max_duration` elapses; returns the
  // simulated time actually spent.
  SimDuration RunToCompletion(SimDuration max_duration);

  bool AllProcessesFinished() const;

  // --- services for policies ---
  EventQueue& queue() override { return queue_; }
  TieredMemory& memory() override { return memory_; }
  NodeLru& lru(NodeId node) { return lrus_[static_cast<size_t>(node)]; }
  // The machine's page arena: index space for LRU linkage and home of the oracle cold
  // side-array (metrics/tests only — policies never read it).
  PageArena& arena() { return arena_; }
  const PageArena& arena() const { return arena_; }
  // The migration engine: the only path by which pages move between tiers.
  MigrationEngine& migration() { return *engine_; }
  const MigrationEngine& migration() const { return *engine_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  PebsSampler& pebs() { return pebs_; }
  void set_pebs_active(bool active) { pebs_active_ = active; }
  const MachineConfig& config() const { return config_; }
  SimTime now() const { return queue_.now(); }

  std::vector<std::unique_ptr<Process>>& processes() { return processes_; }
  Process* ProcessByPid(int32_t pid);

  // Resolves the VMA containing a page (via its owner process).
  Vma* ResolveVma(const PageInfo& page);

  // Marks a hotness unit PROT_NONE so the next access takes a hint fault. Drops any cached
  // translation for the unit so the fast lane cannot skip the fault.
  void PoisonUnit(PageInfo& unit) {
    if (unit.present()) {
      unit.Set(kPageProtNone);
      InvalidateTranslationsFor(unit);
      EmitTrace(tracer_.get(), TraceCategory::kScan, TraceEventType::kScanPoison,
                queue_.now(), unit.owner, unit.vpn, unit.node);
    }
  }

  // Submits one unit's demotion out of the fast tier to the policy's DemotionTarget as a
  // reclaim-class transaction, which finishes inline. Notifies the policy only when it
  // commits: a parked unit stays at its source as if never tried. A policy veto returns
  // an unadmitted ticket.
  MigrationTicket DemoteUnit(Vma& vma, PageInfo& unit);

  // Splits a present, unsplit huge unit into base pages (Memtis page splitting); the new
  // base pages inherit residency and join the LRU. Returns false if not applicable.
  bool SplitHugeUnit(Vma& vma, PageInfo& head);

  // Watermark reclaim: walks the fast tier's inactive list through DemoteUnit until
  // `free >= refill_target`, then the active list while a tenant is over its fast-tier
  // budget (the tenant drain), within the batch limit. Returns pages whose demotion
  // committed. Exposed so policies with custom triggers can reuse the mechanism.
  uint64_t ReclaimFastTier(uint64_t refill_target);

  // Fabric evacuation: drains one batch of resident pages off failing endpoint `source`
  // toward the best surviving endpoints (latency-scored with live route backlog), as
  // reclaim-class submissions under the normal AdmissionController, walking the inactive
  // list and then, unless that walk stopped, the active list. Returns pages moved.
  // OOM-safe: targets must keep low-watermark headroom, so when survivors cannot absorb
  // the pages the batch stops short instead of forcing allocations below floors (the
  // FabricFaultDriver gives up at its drain deadline and the endpoint stays kFailing).
  uint64_t EvacuateEndpoint(NodeId source);

  void ChargeKernel(KernelWork work, SimDuration d) { metrics_.ChargeKernel(work, d); }

  // Runs a full invariant audit right now and returns the report (also counted in
  // FaultStats::audits_run). The periodic audit CHECK-fails on any violation.
  AuditReport AuditNow();

  // One-line-per-fact dump of machine state for structured fatal errors: sim time,
  // per-tier frame/watermark/degradation state, migration-engine in-flight gauges.
  std::string FatalDump() const;

  // The tenant registry (one "default" tenant unless the config declares tenants).
  TenantRegistry& tenants() { return tenants_; }
  const TenantRegistry& tenants() const { return tenants_; }

  // The tracer, or nullptr when config.trace.enabled is false. Instrumentation sites go
  // through EmitTrace(tracer(), ...), which is a single null check when tracing is off.
  Tracer* tracer() { return tracer_.get(); }

  // Charges the cost of a scanner chunk (units * kPteVisitCost) and returns it.
  SimDuration ChargeScanCost(uint64_t units_visited);

  TieringPolicy& policy() { return *policy_; }

  // Aggregate translation-cache counters across all processes (bench reporting; not part
  // of ExperimentResult so TLB-on/off runs stay field-for-field comparable).
  struct TlbCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
  };
  TlbCounters TlbStats() const;

  // Drops every cached translation covering `unit` from its owner's TLB. Called on any
  // transition that ends the unit's fast-lane eligibility (PROT_NONE poisoning, migration
  // submit/commit) or remaps vpns to different units (huge-group split).
  void InvalidateTranslationsFor(const PageInfo& unit);

  // Ring slots filled by the helper thread rather than by the replay thread, over the
  // machine's life. Depends on the host's idle CPUs, so it is kept out of
  // ExperimentResult, and so out of every output; read it between Run calls. The
  // StreamFeederEquivalenceTest cases also read it.
  // detlint:allow(dead-symbol) StreamFeederTest.StreamCallContract needs it
  uint64_t batches_filled_off_thread() const { return feeder_.fills(); }

 private:
  // A process's stream and its op ring. Slot k (k counts from 0 over the binding's life)
  // sits at index k % 16. The filler publishes slot `filled` with a release store; the
  // replay thread hands a replayed slot back by bumping `consumed`, so a slot is never
  // rewritten while it is replayed. Filler and replay fields sit on separate cache lines.
  struct WorkloadBinding {
    // Fixed once AttachWorkload returns.
    std::unique_ptr<AccessStream> stream;
    std::vector<MemOp> ops;        // kStreamRingOps.
    std::vector<uint32_t> counts;  // Ops each slot holds; a short count ends the stream.
    // Filler side. `done`: a short fill saw the stream's end, so the stream is never
    // called again (single-step replay's one terminating Next()). `consumed_seen` is the
    // filler's last look at `consumed`, refreshed only when it shows no free slot.
    alignas(64) std::atomic<uint64_t> filled{0};
    Rng rng;
    bool done = false;
    uint64_t consumed_seen = 0;
    // Replay side: `slot` is the slot being replayed (null before the first), and
    // slot[cursor..count) are its pending ops. `filled_seen` is the replay thread's last
    // look at `filled`, refreshed only when it shows the ring empty.
    alignas(64) std::atomic<uint64_t> consumed{0};
    uint64_t filled_seen = 0;
    const MemOp* slot = nullptr;
    size_t cursor = 0;
    size_t count = 0;

    // The one fill path (helper or replay thread): fills the next slot with one FillBatch
    // call and publishes it with a release store. False, filling nothing, once the stream
    // has ended.
    bool Fill();
    // Filler side: whether Fill may write a slot (false once the stream has ended).
    bool HasFreeSlot();
  };

  // The helper thread that fills every binding's ring ahead of replay. One per machine,
  // started on the first Run that finds a host CPU idle, parked at every Run exit (so
  // stream state can be read between Run calls with no fill in flight) and joined by the
  // destructor. CPUs are counted process-wide: each live Machine holds one for its replay
  // thread, each running helper one more, and a helper is granted only while the count is
  // below DefaultJobs().
  class StreamFeeder {
   public:
    explicit StreamFeeder(std::deque<WorkloadBinding>* bindings);
    ~StreamFeeder();
    StreamFeeder(const StreamFeeder&) = delete;
    StreamFeeder& operator=(const StreamFeeder&) = delete;

    // Run entry: takes an idle CPU and sets the helper filling; false when none is idle.
    bool Start();
    // Run exit: returns once the helper has finished its last fill, and gives the CPU back.
    void Park();
    // Called by the replay thread after it hands back a slot and its ring has fallen to
    // half: wakes the helper if it sleeps.
    void WakeIfAsleep();
    uint64_t fills() const { return fills_; }

   private:
    void Main();
    void FillUntilStopped();
    bool SpinUntilRingAtMostHalf() const;
    bool AnyRingAtMostHalf() const;

    std::deque<WorkloadBinding>* bindings_;
    uint64_t fills_ = 0;  // Written by the helper while filling; read after Park.
    std::atomic<bool> stop_{false};
    std::atomic<bool> sleeping_{false};  // Set and cleared under mu_.
    std::mutex mu_;
    std::condition_variable cv_;
    bool active_ = false;  // Guarded by mu_: the helper should fill.
    bool parked_ = true;   // Guarded by mu_: the helper is not filling.
    bool exit_ = false;    // Guarded by mu_.
    std::thread thread_;   // Last: started lazily, joined before the members above go.
  };

  // Hands back the slot being replayed and makes the next one current, filling it inline
  // when no helper runs; false once the stream has ended.
  bool NextSlot(WorkloadBinding& binding);

  // Everything past the fast-lane check: VMA resolution, demand/hint faults, then
  // CompleteAccess, then translation install. The batched replay loop in RunProcessUntil
  // performs the lane check (TLB reference and enable flag hoisted out of the per-op
  // loop) and calls this on a miss.
  SimDuration SlowPathAccess(Process& process, uint64_t vpn, bool is_store);
  // The access tail both lanes share, for a present unit: device and congestion charge,
  // accessed/dirty flags and write_gen, the oracle log, PEBS sampling (`vpn` is the
  // accessed page, which differs from unit.vpn inside a huge unit), metrics, tenant
  // counters and the trace event. `latency` is what the access was already charged (the
  // slow path's fault costs; 0 on the fast lane); returns it plus the tail's charges.
  SimDuration CompleteAccess(Process& process, PageInfo& unit, uint64_t vpn, bool is_store,
                             SimDuration latency, bool fast_lane);
  SimDuration HandleDemandFault(Process& process, Vma& vma, PageInfo& unit);

  // What a demotion walk's `pick` makes of the unit at the list's tail: kStop ends the
  // walk (its loop condition failed), kHandled means pick moved the unit itself, kRotate
  // keeps the unit (rotated to the head), kTake makes it a candidate.
  enum class WalkStep { kStop, kHandled, kRotate, kTake };
  // The one demotion walk over an LRU list (watermark reclaim, the tenant drain, endpoint
  // evacuation). Takes units from the tail, at most the list's starting length of them,
  // while `*moved` is below the batch limit, and counts each one pick does not stop on in
  // `*examined`. A taken unit that is unevictable or migrating rotates; any other goes to
  // `move(vma, unit, pages)`, which submits it. A committed unit adds its pages to
  // `*moved`; a parked one stays at its source and rotates. An unadmitted ticket ends the
  // walk: returns true when it did.
  template <typename Pick, typename Move>
  bool DemotionWalk(PageList& list, uint64_t* moved, uint64_t* examined, Pick pick,
                    Move move);

  void RunProcessUntil(Process& process, WorkloadBinding& binding, SimTime horizon);
  void ReclaimTick(SimTime now);
  // Telemetry snapshot callback (tier occupancy, LRU sizes, engine backlog, hit ratios);
  // installed on the tracer's sampler at Start(). Read-only over machine state.
  void FillTelemetrySample(SimTime now, TelemetrySample* sample) const;

  // --- MigrationEnv (the engine's view of the machine) ---
  void ReclaimForPromotion(uint64_t pages) override;
  void ApplyMigration(Vma& vma, PageInfo& unit, NodeId from, NodeId to) override;
  void OnUnitMigrationStateChanged(Vma& vma, PageInfo& unit) override {
    (void)vma;
    InvalidateTranslationsFor(unit);
  }
  void ChargeMigrationKernelTime(SimDuration d) override {
    metrics_.ChargeKernel(KernelWork::kMigration, d);
  }

  MachineConfig config_;
  EventQueue queue_;
  TieredMemory memory_;
  PageArena arena_;  // Page index space + oracle cold array; before lrus_ (lists link by
                     // arena index).
  std::deque<NodeLru> lrus_;  // deque: NodeLru is pinned (intrusive lists) and immovable.
  std::unique_ptr<TieringPolicy> policy_;
  Metrics metrics_;
  PebsSampler pebs_;
  bool pebs_active_ = false;
  bool started_ = false;
  bool reclaim_in_progress_ = false;  // Re-entrancy guard: demotions never recurse.
  std::unique_ptr<Tracer> tracer_;   // Null unless config.trace.enabled; before engine_
                                     // (the engine holds a raw pointer into it).
  std::unique_ptr<MigrationEngine> engine_;  // After metrics_: stats live there.
  std::unique_ptr<FaultInjector> injector_;  // Null unless config.fault.enabled.
  TenantRegistry tenants_;  // After memory_ (holds a view) and metrics_ (stats live there).

  std::vector<std::unique_ptr<Process>> processes_;
  std::deque<WorkloadBinding> bindings_;  // Indexed by pid; deque: bindings hold atomics.
  StreamFeeder feeder_;  // After bindings_: its thread reads them until joined.
  bool feeding_ = false;  // A helper fills the rings during the current Run.
};

}  // namespace chronotier
