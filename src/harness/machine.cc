#include "src/harness/machine.h"

#include <algorithm>
#include <sstream>

#include "src/common/check.h"
#include "src/harness/runner.h"

namespace chronotier {

MachineConfig MachineConfig::StandardTwoTier(uint64_t total_pages, double fast_fraction) {
  MachineConfig config;
  const auto fast_pages =
      static_cast<uint64_t>(static_cast<double>(total_pages) * fast_fraction);
  config.topology = TopologySpec::Star(
      {TierSpec::Dram(fast_pages), TierSpec::OptanePmem(total_pages - fast_pages)});
  return config;
}

std::vector<std::string> MachineConfig::Validate() const {
  std::vector<std::string> errors;
  const auto require = [&errors](bool ok, const std::string& what) {
    if (!ok) {
      errors.push_back(what);
    }
  };
  const auto probability = [&require](double p, const std::string& name) {
    require(p >= 0.0 && p <= 1.0, name + " must be a probability in [0, 1]");
  };

  Topology parsed;
  std::string topo_error;
  // Sequenced: the message must be built after Build() fills topo_error (argument
  // evaluation order is unspecified).
  const bool topo_ok = Topology::Build(topology, &parsed, &topo_error);
  require(topo_ok, "topology: " + topo_error);
  require(parsed.num_nodes() <= kMaxNodes,
          "topology has " + std::to_string(parsed.num_nodes()) + " nodes; max is " +
              std::to_string(kMaxNodes));

  require(bandwidth_scale >= 1.0, "bandwidth_scale must be >= 1");

  require(migration.max_reroute_attempts >= 0, "migration.max_reroute_attempts must be >= 0");
  require(migration.sync_slack >= 0, "migration.sync_slack must be >= 0");
  require(migration.async_backlog_limit >= 0, "migration.async_backlog_limit must be >= 0");
  require(migration.reclaim_backlog_limit >= 0,
          "migration.reclaim_backlog_limit must be >= 0");
  require(migration.evac_backlog_limit >= 0, "migration.evac_backlog_limit must be >= 0");
  require(migration.source_inflight_page_limit > 0,
          "migration.source_inflight_page_limit must be > 0");

  probability(fault.copy_fail_transient_p, "fault.copy_fail_transient_p");
  probability(fault.copy_fail_persistent_p, "fault.copy_fail_persistent_p");
  probability(fault.stall_fire_p, "fault.stall_fire_p");
  probability(fault.pressure_fire_p, "fault.pressure_fire_p");
  probability(fault.alloc_fail_fire_p, "fault.alloc_fail_fire_p");
  require(fault.start_after >= 0, "fault.start_after must be >= 0");
  require(fault.stall_period >= 0, "fault.stall_period must be >= 0");
  require(fault.stall_duration >= 0, "fault.stall_duration must be >= 0");
  require(fault.stall_window >= 0, "fault.stall_window must be >= 0");
  require(fault.stall_bandwidth_slowdown >= 1.0,
          "fault.stall_bandwidth_slowdown must be >= 1");
  require(fault.pressure_period >= 0, "fault.pressure_period must be >= 0");
  require(fault.pressure_duration >= 0, "fault.pressure_duration must be >= 0");
  require(fault.pressure_fraction >= 0.0 && fault.pressure_fraction < 1.0,
          "fault.pressure_fraction must be in [0, 1)");
  require(fault.alloc_fail_period >= 0, "fault.alloc_fail_period must be >= 0");
  require(fault.alloc_fail_duration >= 0, "fault.alloc_fail_duration must be >= 0");
  probability(fault.fabric.link_fault_fire_p, "fault.fabric.link_fault_fire_p");
  probability(fault.fabric.link_down_p, "fault.fabric.link_down_p");
  probability(fault.fabric.endpoint_fail_fire_p, "fault.fabric.endpoint_fail_fire_p");
  require(fault.fabric.link_fault_period >= 0, "fault.fabric.link_fault_period must be >= 0");
  require(fault.fabric.link_down_duration > 0,
          "fault.fabric.link_down_duration must be > 0");
  require(fault.fabric.link_degrade_duration > 0,
          "fault.fabric.link_degrade_duration must be > 0");
  require(fault.fabric.link_degrade_factor >= 1.0,
          "fault.fabric.link_degrade_factor must be >= 1");
  require(fault.fabric.endpoint_fail_period >= 0,
          "fault.fabric.endpoint_fail_period must be >= 0");
  require(fault.fabric.endpoint_recovery_after >= 0,
          "fault.fabric.endpoint_recovery_after must be >= 0");
  require(fault.fabric.endpoint_drain_deadline >= 0,
          "fault.fabric.endpoint_drain_deadline must be >= 0");
  require(audit_period >= 0, "audit_period must be >= 0");

  // Per-endpoint watermark floors. Fault injection drives every node to its strict `min`
  // floor (allocation-failure windows) and steers demotion/evacuation by low-watermark
  // headroom; the old check implicitly assumed the two-tier shape (one big slow tier),
  // but an N-tier tree can hide an endpoint so small its derived floors swallow the whole
  // node. Require one `min` of usable frames above the derived high watermark (min =
  // max(capacity/250, 4), high = 3*min — MemoryTier::SetDefaultWatermarks).
  if (fault.enabled && (fault.alloc_fail_period > 0 || fault.fabric.Any())) {
    const auto check_floor = [&require](const std::string& which, uint64_t capacity) {
      const uint64_t min_floor = std::max<uint64_t>(capacity / 250, 4);
      require(capacity >= 4 * min_floor,
              which + ": capacity " + std::to_string(capacity) +
                  " pages cannot honour its derived watermark floors under fault " +
                  "injection (needs >= " + std::to_string(4 * min_floor) + ")");
    };
    for (size_t i = 0; i < topology.capacity_pages.size(); ++i) {
      check_floor("topology node " + std::to_string(i), topology.capacity_pages[i]);
    }
  }

  if (trace.enabled) {
    require(trace.ring_capacity > 0, "trace.ring_capacity must be > 0");
    require(trace.provenance_depth > 0, "trace.provenance_depth must be > 0");
    require(trace.telemetry_period >= 0, "trace.telemetry_period must be >= 0");
  }

  const size_t num_nodes = topology.capacity_pages.size();
  for (size_t t = 0; t < tenants.size(); ++t) {
    const TenantSpec& tenant = tenants[t];
    const std::string which = "tenants[" + std::to_string(t) + "]";
    require(!tenant.name.empty(), which + ".name must be non-empty");
    require(tenant.weight > 0.0, which + ".weight must be > 0");
    require(tenant.migration_budget_bytes_per_sec >= 0.0,
            which + ".migration_budget_bytes_per_sec must be >= 0");
    require(tenant.migration_budget_burst >= 0, which + ".migration_budget_burst must be >= 0");
    require(tenant.access_delay >= 0, which + ".access_delay must be >= 0");
    require(tenant.residency_budget_pages.size() <= num_nodes,
            which + ".residency_budget_pages has more entries than memory nodes");
    QosProgram program = QosProgram::kNone;
    require(ParseQosProgram(tenant.qos_program, &program),
            which + ".qos_program \"" + tenant.qos_program + "\" is not registered");
  }
  return errors;
}

namespace {
// Software cost model (charged to both the faulting access and kernel time).
constexpr SimDuration kDemandFaultCost = 2 * kMicrosecond;
constexpr SimDuration kHintFaultCost = 1500 * kNanosecond;
constexpr SimDuration kLruVisitCost = 100 * kNanosecond;  // Per page examined by reclaim.
// What a refused demand fault (fault injection) stalls its access, on top of the fault.
constexpr SimDuration kAllocRetryStall = 100 * kMicrosecond;

constexpr SimDuration kReclaimCheckPeriod = 50 * kMillisecond;
constexpr uint64_t kReclaimBatchLimit = 1u << 15;  // Max pages demoted per reclaim wakeup.

// How many buffered ops ahead the replay loop hints a translation's TLB slot; the
// PageInfo the slot names is hinted at half this distance. Several fast-lane ops cover
// one host cache miss, so the lines arrive before the op that needs them.
constexpr size_t kTranslationPrefetchDistance = 16;

// Slots per op ring.
constexpr uint64_t kRingSlots = Machine::kStreamRingOps / Machine::kReplaySlotOps;
static_assert(kRingSlots * Machine::kReplaySlotOps == Machine::kStreamRingOps);
// Ring checks (32 pauses apart) a helper with nothing to fill makes before it sleeps.
constexpr int kSleepAfterChecks = 64;

// Host CPUs held by machines in this process: one per live Machine (its replay thread)
// plus one per running stream helper. A helper is granted only while a CPU is idle.
std::atomic<int> g_busy_cpus{0};

int HostCpus() {
  static const int cpus = DefaultJobs();
  return cpus;
}

void SpinPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Runs before any member is built from the config, so a bad topology reports through
// Validate() like every other field.
const MachineConfig& Validated(const MachineConfig& config) {
  const std::vector<std::string> errors = config.Validate();
  CHECK(errors.empty()) << "invalid MachineConfig (" << errors.size() << " error(s)): first: "
                        << (errors.empty() ? "" : errors.front());
  return config;
}
}  // namespace

Machine::Machine(MachineConfig config, std::unique_ptr<TieringPolicy> policy)
    : config_(Validated(config)),
      memory_(config.topology, config.bandwidth_scale),
      policy_(std::move(policy)),
      feeder_(&bindings_) {
  for (int i = 0; i < memory_.num_nodes(); ++i) {
    lrus_.emplace_back();
    lrus_.back().set_arena(&arena_);
  }
  CHECK(policy_ != nullptr);
  engine_ = std::make_unique<MigrationEngine>(config_.migration,
                                              static_cast<MigrationEnv*>(this),
                                              metrics_.mutable_migration());
  if (config_.fault.enabled) {
    injector_ = std::make_unique<FaultInjector>(config_.fault, metrics_.mutable_fault());
    engine_->set_fault_oracle(injector_.get());
  }
  if (config_.trace.enabled) {
    tracer_ = std::make_unique<Tracer>(config_.trace);
    engine_->set_tracer(tracer_.get());
    if (injector_ != nullptr) {
      injector_->set_tracer(tracer_.get());
    }
  }
  // Tenant registry: residency mirroring, per-access accounting and the auditor's tenant
  // check run on every machine; the admission hook engages only when some tenant
  // declares a QoS program or bandwidth budget.
  tenants_.Configure(config_.tenants, &memory_);
  metrics_.InitTenantStats(static_cast<size_t>(tenants_.num_tenants()));
  tenants_.set_stats(metrics_.mutable_tenant_stats());
  if (tracer_ != nullptr) {
    tenants_.set_tracer(tracer_.get());
  }
  if (tenants_.qos_active()) {
    engine_->set_qos_hook(&tenants_);
  }
}

Machine::~Machine() = default;

Process& Machine::CreateProcess(const std::string& name) {
  const auto pid = static_cast<int32_t>(processes_.size());
  processes_.push_back(std::make_unique<Process>(pid, name));
  bindings_.emplace_back();
  Process& process = *processes_.back();
  // Every region the workload maps registers its pages with the machine's arena (LRU
  // index space + oracle cold array).
  process.aspace().set_arena(&arena_);
  process.SyncClockTo(queue_.now());
  tenants_.AssignProcess(pid, 0);  // Default membership; AssignTenant moves it later.
  if (tracer_ != nullptr) {
    tracer_->SetProcessName(pid, name);
  }
  if (started_) {
    policy_->OnProcessCreated(process);
  }
  return process;
}

void Machine::AssignTenant(Process& process, int tenant) {
  uint64_t resident = 0;
  for (NodeId node = 0; node < memory_.num_nodes(); ++node) {
    resident += process.resident_pages(node);
  }
  CHECK(resident == 0) << "AssignTenant after first touch: pid=" << process.pid()
                       << " holds " << resident << " resident pages";
  process.set_tenant(tenant);
  tenants_.AssignProcess(process.pid(), tenant);
  // Fold the tenant's Fig. 9 stall knob onto the member process; a zero tenant delay
  // leaves any delay set directly on the process in place.
  const TenantSpec& spec = tenants_.spec(tenant);
  if (spec.access_delay > 0) {
    process.set_access_delay(spec.access_delay);
  }
}

void Machine::AttachWorkload(Process& process, std::unique_ptr<AccessStream> stream,
                             uint64_t seed) {
  WorkloadBinding& binding = bindings_[static_cast<size_t>(process.pid())];
  binding.stream = std::move(stream);
  binding.rng.Seed(seed);
  binding.stream->Init(process, binding.rng);
  binding.ops.resize(kStreamRingOps);
  binding.counts.resize(kRingSlots);
}

void Machine::Start() {
  CHECK(!started_) << "Machine::Start() called twice";
  started_ = true;
  if (tracer_ != nullptr) {
    // The telemetry sampler is pull-driven (polled from Emit and existing periodic work,
    // never from its own queue event — see src/trace/telemetry.h for why).
    tracer_->telemetry().set_snapshot_fn(
        [this](SimTime now, TelemetrySample* sample) { FillTelemetrySample(now, sample); });
  }
  policy_->Attach(*this);
  if (policy_->WantsSharedReclaim()) {
    queue_.SchedulePeriodic(kReclaimCheckPeriod,
                            [this](SimTime now) { ReclaimTick(now); });
  }
  if (injector_ != nullptr) {
    injector_->Arm(queue_, memory_, *engine_,
                   [this](uint64_t target) { return ReclaimFastTier(target); },
                   [this](NodeId node) { return EvacuateEndpoint(node); });
  }
  if (config_.audit_period > 0) {
    // The always-on auditor: any bookkeeping divergence dies loudly at the next period
    // boundary instead of silently skewing results.
    queue_.SchedulePeriodic(config_.audit_period, [this](SimTime now) {
      if (tracer_ != nullptr) {
        tracer_->Poll(now);
      }
      const AuditReport report = AuditNow();
      CHECK(report.clean()) << report.Summary() << "\n" << FatalDump();
    });
  }
}

AuditReport Machine::AuditNow() {
  ++metrics_.mutable_fault()->audits_run;
  return InvariantAuditor::Audit(queue_.now(), memory_, processes_, lrus_, engine_.get(),
                                 &tenants_);
}

std::string Machine::FatalDump() const {
  std::ostringstream os;
  os << "machine state at tick=" << queue_.now() << "ns:";
  for (NodeId node = 0; node < memory_.num_nodes(); ++node) {
    const MemoryTier& tier = memory_.node(node);
    const Watermarks& wm = tier.watermarks();
    os << "\n  tier " << node << " (" << tier.spec().name << "): free=" << tier.free_pages()
       << " allocated=" << tier.allocated_pages()
       << " quarantined=" << tier.quarantined_pages()
       << " pressure_stolen=" << tier.pressure_stolen_pages()
       << " capacity=" << tier.capacity_pages() << " watermarks(min=" << wm.min
       << " low=" << wm.low << " high=" << wm.high << " pro=" << wm.pro << ")"
       << (tier.degraded() ? " DEGRADED" : "")
       << (tier.strict_min_floor() ? " STRICT-MIN" : "");
  }
  os << "\n  migration: inflight_transactions=" << engine_->inflight_transactions()
     << " inflight_reserved_pages=" << engine_->inflight_reserved_pages();
  const TopologyHealth& health = memory_.health();
  if (health.any_fault()) {
    os << "\n  fabric: generation=" << health.generation()
       << " links_down=" << health.links_down()
       << " endpoints_unavailable=" << health.endpoints_unavailable();
    for (NodeId node = 0; node < memory_.num_nodes(); ++node) {
      if (health.endpoint(node) == EndpointHealth::kFailing) {
        os << " node" << node << "=FAILING";
      } else if (health.endpoint(node) == EndpointHealth::kOffline) {
        os << " node" << node << "=OFFLINE";
      }
    }
  }
  for (int t = 0; t < tenants_.num_tenants(); ++t) {
    const TenantAccount& acct = tenants_.account(t);
    os << "\n  tenant " << t << " (" << acct.spec.name << "): resident=[";
    for (size_t node = 0; node < acct.resident_pages.size(); ++node) {
      os << (node == 0 ? "" : " ") << acct.resident_pages[node];
    }
    os << "] program=" << (acct.spec.qos_program.empty() ? "-" : acct.spec.qos_program)
       << " bandwidth_cursor=" << acct.bandwidth_cursor;
  }
  return os.str();
}

Process* Machine::ProcessByPid(int32_t pid) {
  if (pid < 0 || static_cast<size_t>(pid) >= processes_.size()) {
    return nullptr;
  }
  return processes_[static_cast<size_t>(pid)].get();
}

Vma* Machine::ResolveVma(const PageInfo& page) {
  Process* owner = ProcessByPid(page.owner);
  return owner != nullptr ? owner->aspace().FindVma(page.vpn) : nullptr;
}

void Machine::Run(SimDuration duration) {
  CHECK(started_) << "Run() before Start()";
  feeding_ = !AllProcessesFinished() && feeder_.Start();
  const SimTime end = queue_.now() + duration;
  while (queue_.now() < end) {
    SimTime horizon = queue_.NextEventTime();
    if (horizon == kNeverTime || horizon > end) {
      horizon = end;
    }
    // Advance processes toward the horizon in bounded quanta so they interleave fairly.
    SimTime cursor = queue_.now();
    while (cursor < horizon) {
      cursor = std::min(cursor + kProcessQuantum, horizon);
      for (size_t i = 0; i < processes_.size(); ++i) {
        RunProcessUntil(*processes_[i], bindings_[i], cursor);
      }
    }
    queue_.RunUntil(horizon);
  }
  if (feeding_) {
    feeder_.Park();
    feeding_ = false;
  }
  // Every Run exit leaves the oracle current: whoever reads it next (figure harvest code,
  // tests) sees every access made so far.
  arena_.ApplyLoggedAccesses();
}

SimDuration Machine::RunToCompletion(SimDuration max_duration) {
  CHECK(started_) << "RunToCompletion() before Start()";
  const SimTime start = queue_.now();
  const SimTime deadline = start + max_duration;
  // Slice execution so completion is detected promptly without busy-checking per op.
  const SimDuration slice = std::max<SimDuration>(kReclaimCheckPeriod, kMillisecond);
  while (!AllProcessesFinished() && queue_.now() < deadline) {
    Run(std::min<SimDuration>(slice, deadline - queue_.now()));
  }
  return queue_.now() - start;
}

bool Machine::AllProcessesFinished() const {
  for (size_t i = 0; i < processes_.size(); ++i) {
    if (bindings_[i].stream != nullptr && !processes_[i]->finished()) {
      return false;
    }
  }
  return true;
}

void Machine::RunProcessUntil(Process& process, WorkloadBinding& binding, SimTime horizon) {
  if (binding.stream == nullptr || process.finished()) {
    process.SyncClockTo(horizon);
    return;
  }
  // Loop-invariant hoists: the TLB reference, the arena's group table and the lane flag
  // never change mid-run (no event fires inside this loop — faults and PEBS handlers may
  // Push events but never run them — and nothing maps a region), so the compiler keeps
  // these in registers across the whole batch instead of re-deriving them per op behind
  // three call frames.
  TranslationCache& tlb = process.tlb();
  const PageArena::Groups groups = arena_.groups();
  const bool lane_enabled = config_.enable_translation_cache;
  while (process.clock() < horizon) {
    if (binding.cursor == binding.count && !NextSlot(binding)) {
      process.set_finished(true);
      break;
    }
    if (lane_enabled) {
      // Two-stage translation prefetch over the buffered ops: the TLB slot of the op a
      // full distance ahead, and the PageInfo named by the slot of the op half as far
      // ahead (its slot line was hinted half a distance ago). Hints only; see
      // TranslationCache::PrefetchSlot.
      const size_t ahead = binding.cursor + kTranslationPrefetchDistance;
      if (ahead < binding.count) {
        tlb.PrefetchSlot(binding.slot[ahead].vaddr / kBasePageSize);
      }
      const size_t half = binding.cursor + kTranslationPrefetchDistance / 2;
      if (half < binding.count) {
        tlb.PrefetchUnit(binding.slot[half].vaddr / kBasePageSize, groups);
      }
    }
    const MemOp& op = binding.slot[binding.cursor++];
    SimDuration spent = op.think_time + process.access_delay();
    if (spent > 0) {
      metrics_.CountThinkTime(spent);
    }
    // Lane check: a cached translation whose unit still satisfies the fast-path flag mask
    // (present, not PROT_NONE, not migrating) skips VMA resolution and fault handling
    // entirely. PEBS sampling charges inside CompleteAccess, so PEBS policies like Memtis
    // keep the fast lane instead of forcing every access down the slow path.
    const uint64_t vpn = op.vaddr / kBasePageSize;
    bool fast = false;
    if (lane_enabled) {
      if (PageInfo* cached = tlb.Lookup(vpn, groups)) {
        if ((cached->flags & TranslationCache::kFastPathMask) == kPagePresent) {
          spent += CompleteAccess(process, *cached, vpn, op.is_store, /*latency=*/0,
                                  /*fast_lane=*/true);
          fast = true;
        } else {
          // Stale entry (poisoned, migrating, or demand-fault pending): drop it and take
          // the slow path, which re-installs once the unit settles.
          tlb.Invalidate(vpn, groups);
        }
      }
    }
    if (!fast) {
      spent += SlowPathAccess(process, vpn, op.is_store);
    }
    process.CountAccess();
    process.AdvanceClock(std::max<SimDuration>(spent, 1));
  }
  if (process.finished()) {
    // Idle processes still follow global time.
    process.SyncClockTo(horizon);
  }
}

// Batched replay: ops come a slot (kReplaySlotOps ops, one FillBatch call) at a time from
// the binding's ring instead of a virtual Next() per op. Streams never see machine state,
// so an op generated ahead — by the helper or by this thread — is the op single-stepping
// would have produced at the same ordinal, and the stream/RNG call sequence is identical
// whoever makes it (a short fill ends the stream, which is never called again).
bool Machine::NextSlot(WorkloadBinding& binding) {
  uint64_t consumed = binding.consumed.load(std::memory_order_relaxed);
  if (binding.slot != nullptr) {
    if (binding.count < kReplaySlotOps) {
      return false;  // The slot just replayed was the stream's short last fill.
    }
    // seq_cst: pairs with the helper's sleeping_ store, so either the helper's last look
    // sees this slot handed back or this thread sees the helper asleep.
    binding.consumed.store(++consumed, std::memory_order_seq_cst);
    if (feeding_ && binding.filled_seen - consumed <= kRingSlots / 2) {
      feeder_.WakeIfAsleep();
    }
  }
  if (binding.filled_seen == consumed) {
    binding.filled_seen = binding.filled.load(std::memory_order_acquire);
  }
  if (binding.filled_seen == consumed && !feeding_ && binding.Fill()) {
    ++binding.filled_seen;
  }
  // The helper is behind: it fills on a CPU of its own and never waits on this thread, so
  // spin briefly, then yield.
  for (int spins = 0; binding.filled_seen == consumed; ++spins) {
    if (spins < 1024) {
      SpinPause();
    } else {
      std::this_thread::yield();
    }
    binding.filled_seen = binding.filled.load(std::memory_order_acquire);
  }
  const uint64_t index = consumed % kRingSlots;
  binding.slot = binding.ops.data() + index * kReplaySlotOps;
  binding.count = binding.counts[index];
  binding.cursor = 0;
  return binding.count > 0;
}

bool Machine::WorkloadBinding::Fill() {
  if (done) {
    return false;
  }
  const uint64_t next = filled.load(std::memory_order_relaxed);
  const uint64_t index = next % kRingSlots;
  const size_t produced =
      stream->FillBatch(rng, ops.data() + index * kReplaySlotOps, kReplaySlotOps);
  counts[index] = static_cast<uint32_t>(produced);
  done = produced < kReplaySlotOps;
  filled.store(next + 1, std::memory_order_release);
  return true;
}

bool Machine::WorkloadBinding::HasFreeSlot() {
  if (stream == nullptr || done) {
    return false;
  }
  const uint64_t next = filled.load(std::memory_order_relaxed);
  // Full as last seen, or stale from inline fills.
  if (next - consumed_seen >= kRingSlots) {
    consumed_seen = consumed.load(std::memory_order_seq_cst);
  }
  return next - consumed_seen < kRingSlots;
}

Machine::StreamFeeder::StreamFeeder(std::deque<WorkloadBinding>* bindings)
    : bindings_(bindings) {
  g_busy_cpus.fetch_add(1);  // This machine's replay thread.
}

Machine::StreamFeeder::~StreamFeeder() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      exit_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  g_busy_cpus.fetch_sub(1);
}

bool Machine::StreamFeeder::Start() {
  int busy = g_busy_cpus.load();
  do {
    if (busy >= HostCpus()) {
      return false;
    }
  } while (!g_busy_cpus.compare_exchange_weak(busy, busy + 1));
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_ = true;
    if (!thread_.joinable()) {
      thread_ = std::thread([this] { Main(); });
    }
  }
  cv_.notify_all();
  return true;
}

void Machine::StreamFeeder::Park() {
  stop_.store(true);
  {
    std::unique_lock<std::mutex> lock(mu_);
    active_ = false;
    sleeping_.store(false);
    cv_.notify_all();
    cv_.wait(lock, [this] { return parked_; });
  }
  stop_.store(false);
  g_busy_cpus.fetch_sub(1);
}

void Machine::StreamFeeder::WakeIfAsleep() {
  if (sleeping_.load()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      sleeping_.store(false);
    }
    cv_.notify_all();
  }
}

void Machine::StreamFeeder::Main() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return active_ || exit_; });
    if (exit_) {
      return;
    }
    parked_ = false;
    lock.unlock();
    FillUntilStopped();
    lock.lock();
  }
}

// Fills every ring that has room, one slot each, round-robin, until Park. Sleeps only when
// every ring is more than half full and stays so through a short spin; the replay thread
// wakes it once one falls to half.
void Machine::StreamFeeder::FillUntilStopped() {
  while (!stop_.load(std::memory_order_acquire)) {
    bool filled_any = false;
    for (WorkloadBinding& binding : *bindings_) {
      if (binding.HasFreeSlot() && !stop_.load(std::memory_order_relaxed) &&
          binding.Fill()) {
        ++fills_;
        filled_any = true;
      }
    }
    if (filled_any || SpinUntilRingAtMostHalf()) {
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    // seq_cst store, then seq_cst loads of every `consumed`: pairs with NextSlot's store.
    sleeping_.store(true);
    if (stop_.load() || AnyRingAtMostHalf()) {
      sleeping_.store(false);
      continue;
    }
    cv_.wait(lock, [this] { return !sleeping_.load(); });
  }
}

// Before sleeping, watches the rings for about as long as the replay thread takes to
// drain half a ring: a VM wakes a sleeping thread slower than that, and a helper that
// wakes late leaves the replay thread waiting on an empty ring.
bool Machine::StreamFeeder::SpinUntilRingAtMostHalf() const {
  for (int check = 0; check < kSleepAfterChecks; ++check) {
    if (stop_.load(std::memory_order_relaxed) || AnyRingAtMostHalf()) {
      return true;
    }
    for (int i = 0; i < 32; ++i) {
      SpinPause();
    }
  }
  return false;
}

bool Machine::StreamFeeder::AnyRingAtMostHalf() const {
  for (const WorkloadBinding& binding : *bindings_) {
    if (binding.stream != nullptr && !binding.done &&
        binding.filled.load(std::memory_order_relaxed) - binding.consumed.load() <=
            kRingSlots / 2) {
      return true;
    }
  }
  return false;
}

SimDuration Machine::CompleteAccess(Process& process, PageInfo& unit, uint64_t vpn,
                                    bool is_store, SimDuration latency, bool fast_lane) {
  const SimTime now = std::max(process.clock(), queue_.now());
  // Device access: tier latency plus the topology hop penalty and any (capped) queueing
  // delay on a saturated endpoint link.
  latency += memory_.AccessLatency(unit.node, is_store);
  const SimDuration queued = memory_.ChargeAccessCongestion(unit.node, now);
  latency += queued;

  unit.Set(kPageAccessed);
  if (is_store) {
    unit.Set(kPageDirty);
    // Advance the store generation: an in-flight migration copy of this unit is now stale
    // and will abort at its commit check.
    ++unit.write_gen;
  }
  arena_.LogAccess(unit.arena);
  if (unit.node != kFastNode) {
    unit.Set(kPageOracleTouchedSlow);
  }

  if (pebs_active_) {
    // PEBS observes fast-lane accesses too (the hardware samples loads/stores regardless
    // of how the software resolved the translation). OnSample handlers may split `unit`'s
    // huge group; that only invalidates cached translations, which re-install later.
    latency += pebs_.OnAccess(now, process.pid(), vpn, unit.node, is_store);
  }

  metrics_.CountAccess(is_store, unit.node == kFastNode, latency);
  tenants_.CountAccess(process.tenant(), latency);
  EmitTrace(tracer_.get(), TraceCategory::kAccess, TraceEventType::kAccess, now,
            process.pid(), unit.vpn, unit.node, kInvalidNode, is_store ? 1 : 0,
            fast_lane ? 1 : 0, queued);
  return latency;
}

void Machine::InvalidateTranslationsFor(const PageInfo& unit) {
  Process* owner = ProcessByPid(unit.owner);
  if (owner == nullptr) {
    return;
  }
  // A huge head aggregates up to 512 tail vpns; over-invalidating a short or already-split
  // group is harmless (it only evicts entries that would re-install on the next touch), so
  // the flag alone decides the range and no VMA walk is needed on this path.
  const uint64_t pages = unit.huge_head() ? kBasePagesPerHugePage : 1;
  owner->tlb().InvalidateRange(unit.vpn, pages, arena_.groups());
}

Machine::TlbCounters Machine::TlbStats() const {
  TlbCounters total;
  for (const auto& process : processes_) {
    const TranslationCache& tlb = process->tlb();
    total.hits += tlb.hits();
    total.misses += tlb.misses();
    total.invalidations += tlb.invalidations();
  }
  return total;
}

SimDuration Machine::SlowPathAccess(Process& process, uint64_t vpn, bool is_store) {
  TranslationCache& tlb = process.tlb();
  // The last-hit VMA short-circuits FindVma for the common same-region miss.
  Vma* vma = tlb.last_vma();
  if (vma == nullptr || !vma->Contains(vpn)) {
    vma = process.aspace().FindVma(vpn);
    CHECK(vma != nullptr) << SimError("access to unmapped virtual page", queue_.now())
                                 .Add("vpn", vpn)
                                 .Add("pid", process.pid())
                                 .Add("process", process.name())
                                 .Format()
                          << "\n" << FatalDump();
    tlb.set_last_vma(vma);
  }
  PageInfo& unit = vma->HotnessUnit(vpn);
  const SimTime now = std::max(process.clock(), queue_.now());
  SimDuration latency = 0;

  if (!unit.present()) {
    latency += HandleDemandFault(process, *vma, unit);
    if (!unit.present()) {
      // Graceful allocation refusal (injected allocation-failure window): the page stays
      // absent, the access is charged the fault + retry stall, and a later touch retries.
      return latency;
    }
  }

  if (unit.prot_none()) {
    unit.ClearFlag(kPageProtNone);
    latency += kHintFaultCost;
    metrics_.ChargeKernel(KernelWork::kFaultHandling, kHintFaultCost);
    metrics_.CountHintFault();
    metrics_.CountContextSwitch();
    EmitTrace(tracer_.get(), TraceCategory::kFault, TraceEventType::kHintFault, now,
              process.pid(), unit.vpn, unit.node, kInvalidNode, is_store ? 1 : 0);
    latency += policy_->OnHintFault(process, *vma, unit, is_store, now);
  }

  // The same tail as the fast lane, on top of any fault charges above.
  latency = CompleteAccess(process, unit, vpn, is_store, latency, /*fast_lane=*/false);

  // Install the translation for the next touch. Only fully fast-lane-eligible units are
  // cached; everything else (just-poisoned, migrating, refused allocation) re-resolves.
  // A PEBS OnSample handler may have split `unit`'s huge group above, remapping this vpn
  // to a different (base) unit — re-check before caching a stale head pointer.
  if (config_.enable_translation_cache &&
      (unit.flags & TranslationCache::kFastPathMask) == kPagePresent &&
      (!pebs_active_ || &vma->HotnessUnit(vpn) == &unit)) {
    tlb.Insert(vpn, unit);
  }
  return latency;
}

SimDuration Machine::HandleDemandFault(Process& process, Vma& vma, PageInfo& unit) {
  const uint64_t pages = vma.UnitPages(unit.vpn);
  NodeId node = memory_.AllocatePages(kFastNode, pages);
  if (node == kInvalidNode) {
    // Direct reclaim: push cold fast-tier pages down and retry once.
    ReclaimFastTier(memory_.node(kFastNode).watermarks().high);
    node = memory_.AllocatePages(kFastNode, pages);
    if (node == kInvalidNode) {
      if (injector_ != nullptr) {
        // Under fault injection an exhausted allocation degrades gracefully: refuse the
        // fault, charge the wasted fault entry plus a retry stall, and leave the page
        // absent so a later access retries (the strict-min window will have passed).
        FaultStats* fault_stats = metrics_.mutable_fault();
        ++fault_stats->alloc_refusals;
        ++fault_stats->emergency_reclaims;
        const SimDuration stall = kDemandFaultCost + kAllocRetryStall;
        fault_stats->alloc_stall_time += stall;
        metrics_.ChargeKernel(KernelWork::kFaultHandling, kDemandFaultCost);
        metrics_.CountContextSwitch();
        EmitTrace(tracer_.get(), TraceCategory::kFault, TraceEventType::kAllocRefused,
                  queue_.now(), process.pid(), unit.vpn, kInvalidNode, kFastNode, pages);
        return stall;
      }
      CHECK(false) << SimError("out of physical memory", queue_.now())
                          .Add("pages_requested", pages)
                          .Add("pid", process.pid())
                          .Add("vpn", unit.vpn)
                          .Format()
                   << "\n" << FatalDump();
    }
  }
  unit.Set(kPagePresent);
  unit.node = node;
  lrus_[static_cast<size_t>(node)].Insert(&unit, /*active=*/true);
  process.AddResident(node, static_cast<int64_t>(pages));
  tenants_.AddResident(process.tenant(), node, static_cast<int64_t>(pages));

  metrics_.CountDemandFault();
  metrics_.CountContextSwitch();
  metrics_.ChargeKernel(KernelWork::kFaultHandling, kDemandFaultCost);
  EmitTrace(tracer_.get(), TraceCategory::kFault, TraceEventType::kDemandFault, queue_.now(),
            process.pid(), unit.vpn, kInvalidNode, node, pages);
  policy_->OnDemandAllocation(process, vma, unit, queue_.now());
  return kDemandFaultCost;
}

void Machine::ReclaimForPromotion(uint64_t pages) {
  // Promotion pressure: wake direct reclaim to demote cold pages so the engine's retry can
  // reserve frames. This mirrors the kernel's allocate-for-migration slow path and is what
  // keeps huge-page promotions (512-page units) from deadlocking against the min watermark.
  if (reclaim_in_progress_) {
    return;
  }
  const MemoryTier& fast = memory_.node(kFastNode);
  ReclaimFastTier(std::max(fast.watermarks().high, pages + fast.watermarks().min + pages));
}

void Machine::ApplyMigration(Vma& vma, PageInfo& unit, NodeId from, NodeId to) {
  const uint64_t pages = vma.UnitPages(unit.vpn);
  const bool is_promotion = to == kFastNode;
  // The unit's backing node changes under the commit's unmap-remap window: any cached
  // translation must be re-resolved (the engine clears kPageMigrating only after this).
  InvalidateTranslationsFor(unit);

  lrus_[static_cast<size_t>(from)].Erase(&unit);
  unit.node = to;
  // Promoted pages are hot: front of active. Demoted pages are cold: inactive.
  lrus_[static_cast<size_t>(to)].Insert(&unit, /*active=*/is_promotion);

  if (Process* owner = ProcessByPid(unit.owner)) {
    owner->AddResident(from, -static_cast<int64_t>(pages));
    owner->AddResident(to, static_cast<int64_t>(pages));
    // The tenant residency mirror moves with the per-process counters, so promote,
    // demote, reclaim, and evacuation commits all land in one place.
    tenants_.AddResident(owner->tenant(), from, -static_cast<int64_t>(pages));
    tenants_.AddResident(owner->tenant(), to, static_cast<int64_t>(pages));
  }
  if (is_promotion) {
    metrics_.CountPromotion(pages);
  } else {
    metrics_.CountDemotion(pages);
  }
  // Concurrent touches during the commit's unmap-remap window take a migration-entry fault.
  metrics_.CountContextSwitch();
}

MigrationTicket Machine::DemoteUnit(Vma& vma, PageInfo& unit) {
  // The policy picks where reclaim pushes the unit (next slower node by default;
  // topology-aware policies weigh endpoint distance and live link congestion).
  const NodeId target = policy_->DemotionTarget(memory_, unit, queue_.now());
  if (target == unit.node) {
    return MigrationTicket{};
  }
  CHECK(target >= 0 && target < memory_.num_nodes())
      << "policy returned invalid demotion target " << target;
  const MigrationTicket ticket = engine_->Submit(vma, unit, target, MigrationClass::kReclaim,
                                                 MigrationSource::kReclaimDaemon);
  if (ticket.outcome == MigrationOutcome::kCommitted) {
    policy_->OnDemotion(vma, unit, queue_.now());
  }
  return ticket;
}

bool Machine::SplitHugeUnit(Vma& vma, PageInfo& head) {
  if (vma.page_kind() != PageSizeKind::kHuge || !head.huge_head() || !head.present()) {
    return false;
  }
  if (head.Has(kPageMigrating)) {
    // A 512-page copy of this unit is in flight; splitting now would orphan the reserved
    // target frames. The policy can retry after the transaction retires.
    return false;
  }
  const uint64_t group = vma.GroupIndex(head.vpn);
  if (vma.IsGroupSplit(group)) {
    return false;
  }
  const NodeId node = head.node;
  // Splitting remaps every tail vpn from the group head to its own base page: cached
  // head-translations for those vpns are the one genuinely stale-pointer hazard the
  // fast lane has, so this invalidation is load-bearing (tests/tlb_test.cc covers it).
  InvalidateTranslationsFor(head);
  vma.SplitGroup(group);
  // The head stays on its LRU list; split-out base pages join the same node's inactive list
  // (they have no individual access history yet).
  const uint64_t first = group * kBasePagesPerHugePage;
  const uint64_t last = std::min(first + kBasePagesPerHugePage, vma.num_pages());
  for (uint64_t i = first; i < last; ++i) {
    PageInfo& page = vma.pages()[i];
    if (&page == &head || !page.present()) {
      continue;
    }
    lrus_[static_cast<size_t>(node)].Insert(&page, /*active=*/false);
  }
  // Splitting walks 512 PTEs; charge it like a scan chunk.
  ChargeScanCost(kBasePagesPerHugePage);
  EmitTrace(tracer_.get(), TraceCategory::kFault, TraceEventType::kHugeSplit, queue_.now(),
            head.owner, head.vpn, node, kInvalidNode, last - first);
  return true;
}

template <typename Pick, typename Move>
bool Machine::DemotionWalk(PageList& list, uint64_t* moved, uint64_t* examined, Pick pick,
                           Move move) {
  // At most the list's starting length: a committed or activated unit leaves the list and
  // every other one goes to the head, so no unit is taken twice.
  for (size_t remaining = list.size();
       remaining > 0 && *moved < kReclaimBatchLimit; --remaining) {
    PageInfo* unit = list.Tail();
    const WalkStep step = pick(*unit);
    if (step == WalkStep::kStop) {
      break;
    }
    ++*examined;
    if (step == WalkStep::kHandled) {
      continue;
    }
    if (step == WalkStep::kRotate || unit->Has(kPageUnevictable) ||
        unit->Has(kPageMigrating)) {
      // Kept, unevictable, or owned by an in-flight migration transaction (its source
      // frames must stay resident until the transaction commits or aborts).
      list.Rotate(unit);
      continue;
    }
    Vma* vma = ResolveVma(*unit);
    CHECK(vma != nullptr) << "LRU unit without a mapping: pid=" << unit->owner
                          << " vpn=" << unit->vpn;
    const uint64_t pages = vma->UnitPages(unit->vpn);
    const MigrationTicket ticket = move(*vma, *unit, pages);
    if (!ticket.admitted) {
      return true;  // No target, or admission refused (backlog/bandwidth): next wakeup.
    }
    if (ticket.outcome == MigrationOutcome::kCommitted) {
      *moved += pages;
    } else {
      list.Rotate(unit);  // Parked (injected copy fault): stays at its source.
    }
  }
  return false;
}

uint64_t Machine::ReclaimFastTier(uint64_t refill_target) {
  if (reclaim_in_progress_) {
    return 0;
  }
  reclaim_in_progress_ = true;
  MemoryTier& fast = memory_.node(kFastNode);
  NodeLru& fast_lru = lrus_[static_cast<size_t>(kFastNode)];
  EmitTrace(tracer_.get(), TraceCategory::kReclaim, TraceEventType::kReclaimWake,
            queue_.now(), kTraceNoPid, kTraceNoVpn, kFastNode, kInvalidNode,
            fast.free_pages(), refill_target);
  uint64_t demoted = 0;
  uint64_t examined = 0;

  // Targeted reclaim (memory.high semantics): a per-pass ledger of each tenant's excess
  // over its declared fast-tier budget. While a tenant has excess, the pass keeps going
  // even past the free-page target, its pages lose their second chance, and each
  // committed demotion pays the excess down — over-budget squatters drain even if they
  // keep touching their pages, and the admission-side budget then refuses their way back
  // in. All zero unless some tenant runs a budget-reading program and sits over its budget.
  std::vector<int64_t> budget_excess(static_cast<size_t>(tenants_.num_tenants()), 0);
  int64_t draining = 0;
  for (int t = 0; t < tenants_.num_tenants(); ++t) {
    if (tenants_.OverBudget(t, kFastNode)) {
      const TenantAccount& acct = tenants_.account(t);
      budget_excess[static_cast<size_t>(t)] = static_cast<int64_t>(
          acct.ResidentOn(kFastNode) - acct.BudgetFor(kFastNode));
      draining += budget_excess[static_cast<size_t>(t)];
    }
  }
  // Only a pass that started with a tenant over budget looks up page owners.
  const bool any_over_budget = draining > 0;
  // The tenant whose budget excess demoting the unit a pick just took pays down, or -1.
  int targeted = -1;
  const auto targeted_tenant = [this, &budget_excess](const PageInfo& page) {
    const Process* owner = ProcessByPid(page.owner);
    if (owner == nullptr || budget_excess[static_cast<size_t>(owner->tenant())] <= 0) {
      return -1;
    }
    return owner->tenant();
  };
  // Pays the excess down at commit (the residency mirror moves with it): one pass never
  // over-drains a tenant below its budget.
  const auto demote = [this, &targeted, &budget_excess, &draining](Vma& vma, PageInfo& page,
                                                                   uint64_t pages) {
    const MigrationTicket ticket = DemoteUnit(vma, page);
    if (ticket.outcome == MigrationOutcome::kCommitted && targeted >= 0) {
      budget_excess[static_cast<size_t>(targeted)] -= static_cast<int64_t>(pages);
      draining -= static_cast<int64_t>(pages);
    }
    return ticket;
  };

  // Only units already on the inactive list when this pass started are demotion
  // candidates: a unit deactivated within this pass has had zero simulated time to prove
  // it is still referenced, so demoting it at once would make eviction effectively random
  // and thrash hot pages. Aging across reclaim wakeups gives hot pages a real second chance.
  DemotionWalk(fast_lru.inactive(), &demoted, &examined, [&](PageInfo& page) {
    if (fast.free_pages() >= refill_target && draining <= 0) {
      return WalkStep::kStop;
    }
    targeted = any_over_budget ? targeted_tenant(page) : -1;
    if (targeted < 0 && page.accessed()) {
      // Second chance: referenced since deactivation, back to active.
      page.ClearFlag(kPageAccessed);
      fast_lru.Activate(&page);
      return WalkStep::kHandled;
    }
    // In the pass only to drain over-budget tenants: within-budget pages keep their spot.
    return targeted < 0 && fast.free_pages() >= refill_target ? WalkStep::kRotate
                                                               : WalkStep::kTake;
  }, demote);

  // An over-budget tenant's pages are, by definition, the ones it keeps touching — they
  // sit on the active list and never age to the inactive tail, so excess that survived
  // the inactive pass is drained from the active list directly (the analogue of cgroup
  // targeted reclaim walking the offending cgroup's own LRU). Within-budget tenants'
  // pages keep their spot.
  DemotionWalk(fast_lru.active(), &demoted, &examined, [&](PageInfo& page) {
    if (draining <= 0) {
      return WalkStep::kStop;
    }
    targeted = targeted_tenant(page);
    return targeted < 0 ? WalkStep::kRotate : WalkStep::kTake;
  }, demote);

  // Refill the inactive list so the next wakeup has aged candidates.
  examined += fast_lru.BalanceInactive(0.35, 4096);
  metrics_.ChargeKernel(KernelWork::kReclaim,
                        static_cast<SimDuration>(examined) * kLruVisitCost);
  EmitTrace(tracer_.get(), TraceCategory::kReclaim, TraceEventType::kReclaimDone,
            queue_.now(), kTraceNoPid, kTraceNoVpn, kFastNode, kInvalidNode, demoted,
            examined);
  reclaim_in_progress_ = false;
  return demoted;
}

uint64_t Machine::EvacuateEndpoint(NodeId source) {
  CHECK(source > kFastNode && source < memory_.num_nodes())
      << "evacuation source must be a non-root endpoint, got " << source;
  if (reclaim_in_progress_) {
    return 0;
  }
  reclaim_in_progress_ = true;
  NodeLru& lru = lrus_[static_cast<size_t>(source)];
  const SimTime now = queue_.now();
  uint64_t moved = 0;
  uint64_t examined = 0;

  // Submits one unit toward the best surviving endpoint: device latency plus (capped) live
  // route backlog, skipping unavailable/degraded endpoints and any without low-watermark
  // headroom for the unit. Ties break toward the lower node id; the AdmissionController
  // still has the final say at Submit. Finding no target is the OOM-safe refusal: no
  // survivor can absorb the unit, so it stays resident rather than forcing a floor
  // violation, and the batch stops (the drain pump retries next tick).
  const auto evacuate = [this, source, now](Vma& vma, PageInfo& unit, uint64_t pages) {
    constexpr SimDuration kBacklogCap = 10 * kMillisecond;
    NodeId best = kInvalidNode;
    SimDuration best_score = 0;
    for (NodeId id = 0; id < memory_.num_nodes(); ++id) {
      if (id == source || !memory_.health().endpoint_available(id)) {
        continue;
      }
      const MemoryTier& tier = memory_.node(id);
      if (tier.degraded() || tier.free_pages() < tier.watermarks().low + pages) {
        continue;
      }
      const SimDuration backlog =
          std::min(engine_->RouteBacklog(source, id, now), kBacklogCap);
      const SimDuration score = memory_.AccessLatency(id, /*is_store=*/false) + backlog;
      if (best == kInvalidNode || score < best_score) {
        best = id;
        best_score = score;
      }
    }
    if (best == kInvalidNode) {
      return MigrationTicket{};
    }
    return engine_->Submit(vma, unit, best, MigrationClass::kReclaim,
                           MigrationSource::kEvacuation);
  };

  // Coldest first: the active list only when the inactive walk did not stop.
  const auto take = [](PageInfo&) { return WalkStep::kTake; };
  if (!DemotionWalk(lru.inactive(), &moved, &examined, take, evacuate)) {
    DemotionWalk(lru.active(), &moved, &examined, take, evacuate);
  }

  metrics_.ChargeKernel(KernelWork::kReclaim,
                        static_cast<SimDuration>(examined) * kLruVisitCost);
  reclaim_in_progress_ = false;
  return moved;
}

void Machine::ReclaimTick(SimTime now) {
  if (tracer_ != nullptr) {
    tracer_->Poll(now);
  }
  // Demotion triggers when free memory drops below the high watermark (Section 3.3.1) and
  // refills to the policy's target (`high` for the baselines, `pro` for Chrono). Like
  // memory.high reclaim, a tenant sitting over its fast-tier budget is pressure in its own
  // right: the targeted pass must run even when the machine as a whole has free headroom,
  // or a squatter on an otherwise idle machine would never drain.
  MemoryTier& fast = memory_.node(kFastNode);
  bool budget_pressure = false;
  for (int t = 0; t < tenants_.num_tenants() && !budget_pressure; ++t) {
    budget_pressure = tenants_.OverBudget(t, kFastNode);
  }
  if (!fast.BelowHighWatermark() && !budget_pressure) {
    return;
  }
  const uint64_t target =
      std::max(policy_->DemotionRefillTarget(fast), fast.watermarks().high);
  ReclaimFastTier(target);
}

void Machine::FillTelemetrySample(SimTime now, TelemetrySample* sample) const {
  const int num_nodes = memory_.num_nodes();
  sample->tiers.reserve(static_cast<size_t>(num_nodes));
  for (NodeId node = 0; node < num_nodes; ++node) {
    const MemoryTier& tier = memory_.node(node);
    const Watermarks& wm = tier.watermarks();
    const NodeLru& lru = lrus_[static_cast<size_t>(node)];
    TelemetrySample::Tier t;
    t.free = tier.free_pages();
    t.allocated = tier.allocated_pages();
    t.quarantined = tier.quarantined_pages();
    t.stolen = tier.pressure_stolen_pages();
    t.wm_min = wm.min;
    t.wm_low = wm.low;
    t.wm_high = wm.high;
    t.wm_pro = wm.pro;
    t.lru_active = lru.active().size();
    t.lru_inactive = lru.inactive().size();
    t.inflight_reserved = engine_->inflight_reserved_pages_on(node);
    if (memory_.congestion_enabled()) {
      const EndpointCongestion& link = memory_.congestion(node);
      t.link_backlog_ns = static_cast<int64_t>(link.Backlog(now));
      t.congestion_queued_ns = static_cast<uint64_t>(link.access_queued_time());
      t.congested_accesses = link.congested_accesses();
      t.migration_link_bytes = link.migration_bytes();
    }
    sample->tiers.push_back(t);
  }

  const MigrationStats& migration = metrics_.migration();
  sample->inflight_transactions = engine_->inflight_transactions();
  const auto backlog = [&migration](MigrationClass klass) {
    const auto i = static_cast<size_t>(klass);
    return static_cast<int64_t>(migration.submitted[i]) -
           static_cast<int64_t>(migration.committed[i]) -
           static_cast<int64_t>(migration.aborted[i]) -
           static_cast<int64_t>(migration.parked[i]);
  };
  sample->backlog_sync = backlog(MigrationClass::kSync);
  sample->backlog_async = backlog(MigrationClass::kAsync);
  sample->backlog_reclaim = backlog(MigrationClass::kReclaim);

  sample->accesses = metrics_.total_ops();
  sample->fmar = metrics_.Fmar();
  const TlbCounters tlb = TlbStats();
  const uint64_t lookups = tlb.hits + tlb.misses;
  sample->tlb_hit_rate =
      lookups == 0 ? 0.0 : static_cast<double>(tlb.hits) / static_cast<double>(lookups);

  // Per-tenant rows, one per registry tenant ("default" when none were declared):
  // occupancy, verdict counters, and p50/p99 access latency.
  const std::vector<TenantStats>& tenant_stats = metrics_.tenant_stats();
  sample->tenants.reserve(static_cast<size_t>(tenants_.num_tenants()));
  for (int t = 0; t < tenants_.num_tenants(); ++t) {
    const TenantAccount& acct = tenants_.account(t);
    const TenantStats& stats = tenant_stats[static_cast<size_t>(t)];
    TelemetrySample::Tenant row;
    row.resident_fast = acct.ResidentOn(kFastNode);
    row.resident_total = 0;
    for (uint64_t pages : acct.resident_pages) {
      row.resident_total += pages;
    }
    row.accesses = stats.accesses;
    row.qos_checks = stats.qos_checks;
    row.qos_refusals = stats.qos_refusals;
    row.borrows = stats.borrows;
    row.p50_latency_ns = stats.access_latency.Quantile(0.50);
    row.p99_latency_ns = stats.access_latency.Quantile(0.99);
    sample->tenants.push_back(row);
  }
}

SimDuration Machine::ChargeScanCost(uint64_t units_visited) {
  const SimDuration cost = static_cast<SimDuration>(units_visited) * kPteVisitCost;
  metrics_.ChargeKernel(KernelWork::kScan, cost);
  return cost;
}

}  // namespace chronotier
