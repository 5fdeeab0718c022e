// Integration tests for the Machine: access path, demand paging, hint faults, migration,
// reclaim, huge pages, metrics, and the experiment runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/machine.h"
#include "src/harness/runner.h"
#include "src/workloads/patterns.h"

namespace chronotier {
namespace {

// A policy that does nothing (no scanning, no migration) — isolates machine mechanics.
class NullPolicy : public TieringPolicy {
 public:
  std::string_view name() const override { return "null"; }
  void Attach(Machine&) override {}
  SimDuration OnHintFault(Process&, Vma&, PageInfo&, bool, SimTime) override { return 0; }
};

// A policy that poisons everything once per second and promotes on every hint fault (a
// minimal MRU policy used to exercise the fault + migration paths deterministically).
class PoisonAllPolicy : public TieringPolicy {
 public:
  std::string_view name() const override { return "poison-all"; }
  void Attach(Machine& machine) override {
    machine_ = &machine;
    machine.queue().SchedulePeriodic(kSecond, [this](SimTime) {
      for (auto& process : machine_->processes()) {
        process->aspace().ForEachPage([this](Vma& vma, PageInfo& page) {
          machine_->PoisonUnit(vma.HotnessUnit(page.vpn));
        });
      }
    });
  }
  SimDuration OnHintFault(Process&, Vma& vma, PageInfo& unit, bool, SimTime now) override {
    if (unit.node != kFastNode) {
      return machine_->migration()
          .Submit(vma, unit, kFastNode, MigrationClass::kSync, MigrationSource::kFaultPath,
                  now)
          .sync_latency;
    }
    return 0;
  }

 private:
  Machine* machine_ = nullptr;
};

MachineConfig SmallMachine(uint64_t pages = 4096) {
  return MachineConfig::StandardTwoTier(pages, 0.25);
}

TEST(MachineTest, DemandPagingAllocatesFastFirst) {
  Machine machine(SmallMachine(), std::make_unique<NullPolicy>());
  Process& process = machine.CreateProcess("app");
  UniformConfig w;
  w.working_set_bytes = 512 * kBasePageSize;  // Half the fast tier.
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 1);
  machine.Start();
  machine.Run(kSecond);

  EXPECT_GT(machine.metrics().demand_faults(), 0u);
  EXPECT_GT(process.resident_pages(kFastNode), 0u);
  EXPECT_EQ(process.resident_pages(kSlowNode), 0u);  // Everything fits in fast.
  EXPECT_DOUBLE_EQ(process.FastTierResidencyPercent(), 100.0);
}

TEST(MachineTest, OverflowSpillsToSlowTier) {
  Machine machine(SmallMachine(4096), std::make_unique<NullPolicy>());
  Process& process = machine.CreateProcess("big");
  UniformConfig w;
  w.working_set_bytes = 3000 * kBasePageSize;  // Fast tier holds 1024.
  w.sequential_init = true;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 1);
  machine.Start();
  machine.Run(kSecond);

  EXPECT_GT(process.resident_pages(kSlowNode), 0u);
  EXPECT_GT(process.resident_pages(kFastNode), 0u);
  EXPECT_EQ(process.resident_pages(kFastNode) + process.resident_pages(kSlowNode), 3000u);
}

TEST(MachineTest, SlowTierAccessesCostMore) {
  Machine machine(SmallMachine(4096), std::make_unique<NullPolicy>());
  Process& process = machine.CreateProcess("app");
  UniformConfig w;
  w.working_set_bytes = 3000 * kBasePageSize;
  w.sequential_init = true;
  w.read_ratio = 1.0;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 1);
  machine.Start();
  machine.Run(2 * kSecond);
  machine.metrics().Reset();
  machine.Run(2 * kSecond);

  // Mean read latency must sit between pure-DRAM and pure-NVM device latency.
  const double mean = machine.metrics().read_latency().Mean();
  EXPECT_GT(mean, 80.0);
  EXPECT_LT(mean, 260.0);
  EXPECT_GT(machine.metrics().slow_accesses(), 0u);
  EXPECT_GT(machine.metrics().fast_accesses(), 0u);
}

TEST(MachineTest, HintFaultsFireAfterPoison) {
  Machine machine(SmallMachine(), std::make_unique<PoisonAllPolicy>());
  Process& process = machine.CreateProcess("app");
  UniformConfig w;
  w.working_set_bytes = 256 * kBasePageSize;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 1);
  machine.Start();
  machine.Run(3 * kSecond);

  EXPECT_GT(machine.metrics().hint_faults(), 0u);
  EXPECT_GT(machine.metrics().context_switches(), machine.metrics().hint_faults() / 2);
}

TEST(MachineTest, MruPolicyPromotesSlowPages) {
  Machine machine(SmallMachine(4096), std::make_unique<PoisonAllPolicy>());
  Process& process = machine.CreateProcess("app");
  UniformConfig w;
  w.working_set_bytes = 2048 * kBasePageSize;
  w.sequential_init = true;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 1);
  machine.Start();
  machine.Run(5 * kSecond);

  EXPECT_GT(machine.metrics().promoted_pages(), 0u);
  // Reclaim must have demoted to make room (fast tier is 1024 pages, WS is 2048).
  EXPECT_GT(machine.metrics().demoted_pages(), 0u);
}

TEST(MachineTest, FrameAccountingConsistent) {
  Machine machine(SmallMachine(4096), std::make_unique<PoisonAllPolicy>());
  Process& process = machine.CreateProcess("app");
  UniformConfig w;
  w.working_set_bytes = 2048 * kBasePageSize;
  w.sequential_init = true;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 1);
  machine.Start();
  machine.Run(5 * kSecond);

  // Sum of per-node resident pages == used frames == pages with present flag.
  uint64_t present_pages = 0;
  uint64_t resident_fast = 0;
  uint64_t resident_slow = 0;
  process.aspace().ForEachPage([&](Vma& vma, PageInfo& page) {
    PageInfo& unit = vma.HotnessUnit(page.vpn);
    if (&unit == &page && unit.present()) {
      const uint64_t pages = vma.UnitPages(unit.vpn);
      present_pages += pages;
      (unit.node == kFastNode ? resident_fast : resident_slow) += pages;
    }
  });
  EXPECT_EQ(present_pages, 2048u);
  EXPECT_EQ(machine.memory().total_used_pages(), 2048u);
  EXPECT_EQ(process.resident_pages(kFastNode), resident_fast);
  EXPECT_EQ(process.resident_pages(kSlowNode), resident_slow);
}

TEST(MachineTest, LruTracksResidentUnits) {
  Machine machine(SmallMachine(4096), std::make_unique<NullPolicy>());
  Process& process = machine.CreateProcess("app");
  UniformConfig w;
  w.working_set_bytes = 512 * kBasePageSize;
  w.sequential_init = true;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 1);
  machine.Start();
  machine.Run(kSecond);
  EXPECT_EQ(machine.lru(kFastNode).total(), 512u);
  EXPECT_EQ(machine.lru(kSlowNode).total(), 0u);
}

TEST(MachineTest, HugePageDemandFaultAllocatesWholeUnit) {
  Machine machine(SmallMachine(8192), std::make_unique<NullPolicy>());
  Process& process = machine.CreateProcess("huge");
  process.set_default_page_kind(PageSizeKind::kHuge);
  UniformConfig w;
  w.working_set_bytes = kHugePageSize;  // One huge unit.
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 1);
  machine.Start();
  machine.Run(100 * kMillisecond);

  // A single touch materializes all 512 base pages (memory bloat under huge pages).
  EXPECT_EQ(process.resident_pages(kFastNode) + process.resident_pages(kSlowNode),
            kBasePagesPerHugePage);
  EXPECT_EQ(machine.metrics().demand_faults(), 1u);
}

TEST(MachineTest, SplitHugeUnitPreservesResidency) {
  Machine machine(SmallMachine(8192), std::make_unique<NullPolicy>());
  Process& process = machine.CreateProcess("huge");
  process.set_default_page_kind(PageSizeKind::kHuge);
  UniformConfig w;
  w.working_set_bytes = kHugePageSize;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 1);
  machine.Start();
  machine.Run(100 * kMillisecond);

  Vma* vma = process.aspace().vmas().front().get();
  PageInfo& head = vma->GroupHead(0);
  const NodeId node = head.node;
  ASSERT_TRUE(machine.SplitHugeUnit(*vma, head));
  EXPECT_FALSE(machine.SplitHugeUnit(*vma, head));  // Already split.

  // All 512 base pages present on the same node; LRU holds them individually now.
  uint64_t present = 0;
  for (auto& page : vma->pages()) {
    if (page.present()) {
      ++present;
      EXPECT_EQ(page.node, node);
    }
  }
  EXPECT_EQ(present, kBasePagesPerHugePage);
  EXPECT_EQ(machine.lru(node).total(), kBasePagesPerHugePage);
  EXPECT_EQ(machine.memory().total_used_pages(), kBasePagesPerHugePage);
}

TEST(MachineTest, MigrationEngineRefusesWhenSaturated) {
  MachineConfig config = SmallMachine(4096);
  config.bandwidth_scale = 1e6;  // Absurdly slow copies: one migration saturates.
  Machine machine(config, std::make_unique<PoisonAllPolicy>());
  Process& process = machine.CreateProcess("app");
  UniformConfig w;
  w.working_set_bytes = 2048 * kBasePageSize;
  w.sequential_init = true;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 1);
  machine.Start();
  machine.Run(3 * kSecond);
  EXPECT_GT(machine.metrics().migration().refused[static_cast<size_t>(
                MigrationRefusal::kBacklog)],
            0u);
  // A couple of migrations got through before saturation.
  EXPECT_LT(machine.metrics().promoted_pages(), 100u);
}

TEST(MachineTest, RunToCompletionStopsAtStreamEnd) {
  Machine machine(SmallMachine(), std::make_unique<NullPolicy>());
  Process& process = machine.CreateProcess("finite");
  UniformConfig w;
  w.working_set_bytes = 64 * kBasePageSize;
  w.op_limit = 10000;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 1);
  machine.Start();
  const SimDuration elapsed = machine.RunToCompletion(kMinute);
  EXPECT_TRUE(machine.AllProcessesFinished());
  EXPECT_LT(elapsed, kMinute);
  EXPECT_EQ(process.completed_accesses(), 10000u);
}

// What a finite stream saw of the machine: every FillBatch call as (max, returned), and
// the calls made after one had already returned short.
struct StreamCallLog {
  std::vector<std::pair<size_t, size_t>> calls;
  uint64_t generated = 0;
  uint64_t calls_after_end = 0;
  bool ended = false;
};

class CountingStream : public AccessStream {
 public:
  CountingStream(UniformConfig config, StreamCallLog* log) : inner_(config), log_(log) {}

  void Init(Process& process, Rng& rng) override { inner_.Init(process, rng); }
  bool Next(Rng& rng, MemOp* op) override { return inner_.Next(rng, op); }
  size_t FillBatch(Rng& rng, MemOp* ops, size_t max) override {
    if (log_->ended) {
      ++log_->calls_after_end;
    }
    const size_t produced = inner_.FillBatch(rng, ops, max);
    log_->calls.emplace_back(max, produced);
    log_->generated += produced;
    log_->ended = log_->ended || produced < max;
    return produced;
  }

 private:
  UniformStream inner_;
  StreamCallLog* log_;
};

// Who fills the op rings: a helper thread in every Run, the replay thread in every Run
// (idle machines have taken every host CPU first), or each in turn, one Run slice apiece.
enum class Filler { kHelper, kInline, kAlternating };

// Replays a finite stream to its end in short Run slices.
StreamCallLog RunCountingStream(uint64_t op_limit, Filler filler) {
  Machine machine(SmallMachine(), std::make_unique<NullPolicy>());
  Process& process = machine.CreateProcess("counted");
  UniformConfig w;
  w.working_set_bytes = 256 * kBasePageSize;
  w.op_limit = op_limit;
  StreamCallLog log;
  machine.AttachWorkload(process, std::make_unique<CountingStream>(w, &log), 7);
  machine.Start();
  std::vector<std::unique_ptr<Machine>> idle;
  for (int slice = 0; slice < 100000 && !machine.AllProcessesFinished(); ++slice) {
    const bool spend_cpus =
        filler == Filler::kInline || (filler == Filler::kAlternating && slice % 2 == 1);
    idle.clear();
    for (int i = 0; spend_cpus && i < DefaultJobs(); ++i) {
      idle.push_back(std::make_unique<Machine>(SmallMachine(), std::make_unique<NullPolicy>()));
    }
    // An inline slice (~2,000 ops) outlasts a full ring, so it also fills slots itself.
    machine.Run((spend_cpus ? 200 : 20) * kMicrosecond);
    // Stream state may be read between Run calls: no fill is in flight.
    EXPECT_LE(log.generated - process.completed_accesses(), Machine::kStreamRingOps)
        << "slice " << slice;
  }
  EXPECT_TRUE(machine.AllProcessesFinished());
  EXPECT_EQ(process.completed_accesses(), log.generated);
  EXPECT_EQ(machine.batches_filled_off_thread() > 0, filler != Filler::kInline)
      << "ops=" << op_limit;
  return log;
}

TEST(StreamFeederTest, StreamCallContract) {
  if (DefaultJobs() < 2) {
    GTEST_SKIP() << "one host CPU: no helper is ever granted";
  }
  // The stream ends in a one-op last fill at 19,969 ops (312 * 64 + 1) and in an empty
  // one at 19,968 (312 * 64).
  for (const uint64_t ops : {19969u, 19968u}) {
    const StreamCallLog inlined = RunCountingStream(ops, Filler::kInline);
    EXPECT_EQ(inlined.calls_after_end, 0u);
    EXPECT_EQ(inlined.generated, ops);
    for (const Filler filler : {Filler::kHelper, Filler::kAlternating}) {
      const StreamCallLog log = RunCountingStream(ops, filler);
      EXPECT_EQ(log.calls_after_end, 0u);
      EXPECT_EQ(log.calls, inlined.calls) << "ops=" << ops;
    }
  }
}

TEST(MachineTest, AccessDelayThrottlesProcess) {
  Machine machine(SmallMachine(), std::make_unique<NullPolicy>());
  Process& fast_proc = machine.CreateProcess("fast");
  Process& slow_proc = machine.CreateProcess("slow");
  slow_proc.set_access_delay(10 * kMicrosecond);
  UniformConfig w;
  w.working_set_bytes = 64 * kBasePageSize;
  machine.AttachWorkload(fast_proc, std::make_unique<UniformStream>(w), 1);
  machine.AttachWorkload(slow_proc, std::make_unique<UniformStream>(w), 2);
  machine.Start();
  machine.Run(kSecond);
  EXPECT_GT(fast_proc.completed_accesses(), 10 * slow_proc.completed_accesses());
}

TEST(ExperimentTest, RunsAndReportsMetrics) {
  ExperimentConfig config;
  config.total_pages = 8192;
  config.warmup = kSecond;
  config.measure = 2 * kSecond;
  UniformConfig w;
  w.working_set_bytes = 1024 * kBasePageSize;
  std::vector<ProcessSpec> procs = {
      {"p0", [w] { return std::make_unique<UniformStream>(w); }},
      {"p1", [w] { return std::make_unique<UniformStream>(w); }}};
  const ExperimentResult result = Experiment::Run(
      config, [] { return std::make_unique<NullPolicy>(); }, procs);
  EXPECT_EQ(result.policy_name, "null");
  EXPECT_GT(result.throughput_ops, 0.0);
  EXPECT_GT(result.avg_latency_ns, 0.0);
  EXPECT_GE(result.p99_latency_ns, result.median_latency_ns);
  EXPECT_GT(result.fmar, 0.0);
}

TEST(ExperimentTest, ResidencySamplingProducesSeries) {
  ExperimentConfig config;
  config.total_pages = 8192;
  config.warmup = 0;
  config.measure = 2 * kSecond;
  config.residency_sample_interval = 500 * kMillisecond;
  UniformConfig w;
  w.working_set_bytes = 512 * kBasePageSize;
  std::vector<ProcessSpec> procs = {
      {"p0", [w] { return std::make_unique<UniformStream>(w); }}};
  const ExperimentResult result = Experiment::Run(
      config, [] { return std::make_unique<NullPolicy>(); }, procs);
  ASSERT_EQ(result.residency_percent.size(), 1u);
  EXPECT_EQ(result.sample_times.size(), 4u);
  EXPECT_EQ(result.residency_percent[0].size(), 4u);
}

TEST(ExperimentTest, NormalizeToFirst) {
  EXPECT_EQ(NormalizeToFirst({2.0, 4.0, 1.0}), (std::vector<double>{1.0, 2.0, 0.5}));
  EXPECT_EQ(NormalizeToFirst({}), (std::vector<double>{}));
  EXPECT_EQ(NormalizeToFirst({0.0, 5.0}), (std::vector<double>{0.0, 0.0}));
}

TEST(MetricsTest, DerivedQuantities) {
  Metrics metrics;
  metrics.CountAccess(false, true, 100);
  metrics.CountAccess(true, false, 300);
  EXPECT_DOUBLE_EQ(metrics.Fmar(), 0.5);
  EXPECT_EQ(metrics.total_ops(), 2u);
  EXPECT_EQ(metrics.app_time(), 400);

  metrics.ChargeKernel(KernelWork::kScan, 100);
  metrics.ChargeKernel(KernelWork::kMigration, 300);
  EXPECT_EQ(metrics.TotalKernelTime(), 400);
  EXPECT_DOUBLE_EQ(metrics.KernelTimeFraction(), 0.5);

  metrics.CountContextSwitch();
  EXPECT_DOUBLE_EQ(metrics.ContextSwitchRate(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(metrics.Throughput(kSecond), 2.0);

  metrics.Reset();
  EXPECT_EQ(metrics.total_ops(), 0u);
  EXPECT_EQ(metrics.TotalKernelTime(), 0);
}

// --- demotion walks (watermark reclaim, the tenant drain, endpoint evacuation) ---

// Records what the demotion walks ask and tell the policy. The shared reclaim daemon is
// off, so each test runs one walk by hand on a machine whose processes have only faulted
// their pages in.
class RecordingPolicy : public TieringPolicy {
 public:
  std::string_view name() const override { return "recording"; }
  void Attach(Machine&) override {}
  SimDuration OnHintFault(Process&, Vma&, PageInfo&, bool, SimTime) override { return 0; }
  void OnDemotion(Vma&, PageInfo& unit, SimTime) override { notified.push_back(&unit); }
  NodeId DemotionTarget(const TieredMemory& memory, const PageInfo& unit,
                        SimTime now) const override {
    asked.push_back(&unit);
    return TieringPolicy::DemotionTarget(memory, unit, now);
  }
  bool WantsSharedReclaim() const override { return false; }

  mutable std::vector<const PageInfo*> asked;  // Units reclaim submitted, in order.
  std::vector<const PageInfo*> notified;       // Units reported demoted.
};

// Fails the first `faults` copy passes persistently, then lets every pass through.
class PersistentFaultOracle : public CopyFaultOracle {
 public:
  explicit PersistentFaultOracle(int faults) : faults_(faults) {}
  CopyFault OnCopyPassDone(NodeId, NodeId, uint64_t, int, SimTime) override {
    return faults_-- > 0 ? CopyFault::kPersistent : CopyFault::kNone;
  }

 private:
  int faults_;
};

// Binds a stream that touches each of `pages` base pages once, in address order.
Process& AddToucher(Machine& machine, const std::string& name, uint64_t pages,
                    int tenant = 0) {
  Process& process = machine.CreateProcess(name);
  machine.AssignTenant(process, tenant);
  UniformConfig w;
  w.working_set_bytes = pages * kBasePageSize;
  w.sequential_init = true;
  w.op_limit = 1;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 1);
  return process;
}

// Runs every stream to its end, then clears the accessed bits the touches left, so the
// walks see only what a test sets.
void FaultEverythingIn(Machine& machine) {
  machine.Start();
  machine.RunToCompletion(kSecond);
  ASSERT_TRUE(machine.AllProcessesFinished());
  for (auto& process : machine.processes()) {
    process->aspace().ForEachPage([](Vma&, PageInfo& page) { page.ClearFlag(kPageAccessed); });
  }
}

// The process's pages in address order.
std::vector<PageInfo*> PagesOf(Process& process) {
  std::vector<PageInfo*> pages;
  process.aspace().ForEachPage([&pages](Vma&, PageInfo& page) { pages.push_back(&page); });
  return pages;
}

TEST(DemotionWalkTest, InactivePassGivesAnAccessedPageItsSecondChance) {
  auto owned = std::make_unique<RecordingPolicy>();
  RecordingPolicy* policy = owned.get();
  Machine machine(SmallMachine(4096), std::move(owned));
  Process& process = AddToucher(machine, "app", 400);
  FaultEverythingIn(machine);
  const std::vector<PageInfo*> pages = PagesOf(process);
  NodeLru& lru = machine.lru(kFastNode);
  for (PageInfo* page : pages) {
    ASSERT_EQ(page->node, kFastNode);
    lru.Deactivate(page);  // pages[0] ends at the inactive tail.
  }
  pages[0]->Set(kPageAccessed);

  const uint64_t free = machine.memory().node(kFastNode).free_pages();
  EXPECT_EQ(machine.ReclaimFastTier(free + 1), 1u);
  // The accessed tail page went to the active list, bit cleared, still in DRAM; the page
  // behind it was demoted instead.
  EXPECT_EQ(pages[0]->lru_state(), LruMembership::kActive);
  EXPECT_EQ(lru.active().Head(), pages[0]);
  EXPECT_FALSE(pages[0]->accessed());
  EXPECT_EQ(pages[0]->node, kFastNode);
  EXPECT_EQ(pages[1]->node, kSlowNode);
  EXPECT_EQ(policy->asked, std::vector<const PageInfo*>{pages[1]});
}

TEST(DemotionWalkTest, ParkedReclaimDemotionStaysInDramAndIsNotCounted) {
  auto owned = std::make_unique<RecordingPolicy>();
  RecordingPolicy* policy = owned.get();
  Machine machine(SmallMachine(4096), std::move(owned));
  Process& process = AddToucher(machine, "app", 400);
  FaultEverythingIn(machine);
  const std::vector<PageInfo*> pages = PagesOf(process);
  NodeLru& lru = machine.lru(kFastNode);
  for (PageInfo* page : pages) {
    lru.Deactivate(page);
  }
  PersistentFaultOracle oracle(/*faults=*/1);
  machine.migration().set_fault_oracle(&oracle);

  const uint64_t free = machine.memory().node(kFastNode).free_pages();
  const uint64_t demoted = machine.ReclaimFastTier(free + 4);
  machine.migration().set_fault_oracle(nullptr);

  // The tail unit's copy parked: it was submitted once, stays in DRAM at the inactive
  // head, and is neither counted nor reported; the four units behind it were demoted.
  EXPECT_EQ(std::count(policy->asked.begin(), policy->asked.end(), pages[0]), 1);
  EXPECT_EQ(pages[0]->node, kFastNode);
  EXPECT_EQ(lru.inactive().Head(), pages[0]);
  EXPECT_EQ(demoted, 4u);
  EXPECT_EQ(machine.metrics().demoted_pages(), 4u);
  EXPECT_EQ(machine.metrics().migration().parked[static_cast<size_t>(MigrationClass::kReclaim)],
            1u);
  EXPECT_EQ(policy->notified,
            (std::vector<const PageInfo*>{pages[1], pages[2], pages[3], pages[4]}));
  EXPECT_TRUE(machine.AuditNow().clean());
}

TEST(DemotionWalkTest, TenantDrainRotatesWithinBudgetActivePages) {
  MachineConfig config = SmallMachine(4096);
  TenantSpec within;
  within.name = "within";
  TenantSpec squatter;
  squatter.name = "squatter";
  squatter.residency_budget_pages = {99};
  squatter.qos_program = "strict-budget";
  config.tenants = {within, squatter};
  Machine machine(config, std::make_unique<RecordingPolicy>());
  Process& app = AddToucher(machine, "app", 300, /*tenant=*/0);
  Process& squat = AddToucher(machine, "squat", 100, /*tenant=*/1);
  FaultEverythingIn(machine);
  ASSERT_TRUE(machine.tenants().OverBudget(1, kFastNode));  // One page over.
  const std::vector<PageInfo*> app_pages = PagesOf(app);
  const std::vector<PageInfo*> squat_pages = PagesOf(squat);
  // Inactive: every app page but two. Active, tail to head: app_pages[0], the squatter's
  // pages, app_pages[1].
  NodeLru& lru = machine.lru(kFastNode);
  for (size_t i = 2; i < app_pages.size(); ++i) {
    lru.Deactivate(app_pages[i]);
  }
  lru.Activate(app_pages[0]);
  for (PageInfo* page : squat_pages) {
    lru.Activate(page);
  }
  lru.Activate(app_pages[1]);
  ASSERT_EQ(lru.active().Tail(), app_pages[0]);

  // Free memory is above the target: the pass runs only to drain the squatter. The
  // inactive pass rotates every app page; the active drain rotates app_pages[0] to the
  // head and demotes the squatter's coldest page, which pays the excess off.
  EXPECT_EQ(machine.ReclaimFastTier(/*refill_target=*/0), 1u);
  EXPECT_EQ(squat_pages[0]->node, kSlowNode);
  EXPECT_EQ(app_pages[0]->node, kFastNode);
  EXPECT_EQ(app_pages[0]->lru_state(), LruMembership::kActive);
  EXPECT_EQ(lru.active().Head(), app_pages[0]);
  EXPECT_EQ(lru.active().Tail(), squat_pages[1]);
  EXPECT_EQ(lru.inactive().size(), app_pages.size() - 2);
  EXPECT_FALSE(machine.tenants().OverBudget(1, kFastNode));
}

TEST(DemotionWalkTest, EvacuationStopsAtFirstRefusalBeforeTheActiveList) {
  MachineConfig config;
  config.topology.tree = "(1,2,3)";
  config.topology.capacity_pages = {512, 1024, 1024};
  // Backlog limit 0: the first evacuation copy's booking refuses the second.
  config.migration.reclaim_backlog_limit = 0;
  config.migration.evac_backlog_limit = 0;
  Machine machine(config, std::make_unique<RecordingPolicy>());
  Process& process = AddToucher(machine, "app", 800);  // Overflows the root into node 1.
  FaultEverythingIn(machine);
  std::vector<PageInfo*> on_endpoint;
  for (PageInfo* page : PagesOf(process)) {
    if (page->node == 1) {
      on_endpoint.push_back(page);
    }
  }
  ASSERT_GE(on_endpoint.size(), 4u);
  NodeLru& lru = machine.lru(1);
  ASSERT_EQ(lru.inactive().size(), 0u);
  lru.Deactivate(on_endpoint[0]);
  lru.Deactivate(on_endpoint[1]);
  const PageInfo* active_tail = lru.active().Tail();
  const size_t active_size = lru.active().size();

  EXPECT_EQ(machine.EvacuateEndpoint(1), 1u);
  const MigrationStats& stats = machine.metrics().migration();
  EXPECT_EQ(stats.TotalCommitted(), 1u);
  EXPECT_EQ(stats.TotalRefused(), 1u);
  EXPECT_NE(on_endpoint[0]->node, 1);
  // The refused unit stays at the inactive tail; the active list was never walked.
  EXPECT_EQ(on_endpoint[1]->node, 1);
  EXPECT_EQ(lru.inactive().Tail(), on_endpoint[1]);
  EXPECT_EQ(lru.active().Tail(), active_tail);
  EXPECT_EQ(lru.active().size(), active_size);
}

// --- MachineConfig::Validate ---

bool HasError(const std::vector<std::string>& errors, const std::string& needle) {
  for (const std::string& error : errors) {
    if (error.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(MachineConfigValidateTest, StandardTwoTierIsValid) {
  EXPECT_TRUE(MachineConfig::StandardTwoTier(4096, 0.25).Validate().empty());
}

TEST(MachineConfigValidateTest, RejectsEmptyTierList) {
  MachineConfig config = MachineConfig::StandardTwoTier(4096);
  config.topology.tree.clear();
  config.topology.capacity_pages.clear();
  EXPECT_TRUE(HasError(config.Validate(), "topology: topology tree string is empty"));
}

TEST(MachineConfigValidateTest, RejectsZeroCapacityTier) {
  MachineConfig config = MachineConfig::StandardTwoTier(4096);
  ASSERT_EQ(config.topology.capacity_pages.size(), 2u);
  config.topology.capacity_pages[1] = 0;
  EXPECT_TRUE(
      HasError(config.Validate(), "topology: capacity_pages must be > 0 for every node"));
}

TEST(MachineConfigValidateTest, RejectsZeroMigrationBandwidth) {
  MachineConfig config = MachineConfig::StandardTwoTier(4096);
  ASSERT_EQ(config.topology.bandwidth.size(), 2u);
  config.topology.bandwidth[0] = 0;
  EXPECT_TRUE(HasError(config.Validate(), "topology: bandwidth must be > 0 for every node"));
}

TEST(MachineConfigValidateTest, RejectsFractionalBandwidthScale) {
  MachineConfig config = MachineConfig::StandardTwoTier(4096);
  config.bandwidth_scale = 0.5;
  EXPECT_TRUE(HasError(config.Validate(), "bandwidth_scale must be >= 1"));
}

TEST(MachineConfigValidateTest, RejectsBadMigrationKnobs) {
  MachineConfig config = MachineConfig::StandardTwoTier(4096);
  config.migration.source_inflight_page_limit = 0;
  config.migration.max_reroute_attempts = -1;
  const std::vector<std::string> errors = config.Validate();
  EXPECT_TRUE(HasError(errors, "migration.source_inflight_page_limit must be > 0"));
  EXPECT_TRUE(HasError(errors, "migration.max_reroute_attempts must be >= 0"));
}

TEST(MachineConfigValidateTest, RejectsBadFaultPlan) {
  MachineConfig config = MachineConfig::StandardTwoTier(4096);
  config.fault.copy_fail_transient_p = 1.5;
  config.fault.pressure_fire_p = -0.1;
  config.fault.pressure_fraction = 1.0;
  config.fault.stall_bandwidth_slowdown = 0.5;
  const std::vector<std::string> errors = config.Validate();
  EXPECT_TRUE(HasError(errors, "fault.copy_fail_transient_p must be a probability"));
  EXPECT_TRUE(HasError(errors, "fault.pressure_fire_p must be a probability"));
  EXPECT_TRUE(HasError(errors, "fault.pressure_fraction must be in [0, 1)"));
  EXPECT_TRUE(HasError(errors, "fault.stall_bandwidth_slowdown must be >= 1"));
}

TEST(MachineConfigValidateDeathTest, InvalidConfigIsFatalAtConstruction) {
  MachineConfig config = MachineConfig::StandardTwoTier(4096);
  config.bandwidth_scale = 0.0;
  EXPECT_DEATH({ Machine machine(config, std::make_unique<NullPolicy>()); },
               "invalid MachineConfig");
}

}  // namespace
}  // namespace chronotier
