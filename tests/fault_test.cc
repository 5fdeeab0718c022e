// Fault-injection, graceful-degradation and invariant-audit tests.
//
// Covers: the always-on CHECK facility, scripted copy-fault handling in the migration
// engine (transient retry, transient exhaustion -> park, persistent -> quarantine),
// degraded-tier promotion refusal, injected channel stalls, allocation-failure graceful
// refusal under Chrono and a baseline, pressure-spike recovery, chaos determinism (same
// fault seed twice -> identical commit-sequence hashes), and the auditor's ability to
// actually detect corrupted bookkeeping.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/core/standard_policies.h"
#include "src/fault/fault_injector.h"
#include "src/fault/invariant_auditor.h"
#include "src/harness/machine.h"
#include "src/migration/migration_engine.h"
#include "src/trace/tracer.h"
#include "src/workloads/patterns.h"
#include "tests/engine_trace_testutil.h"

namespace chronotier {
namespace {

// --- CHECK facility ---

TEST(CheckDeathTest, CheckFailureAbortsWithExpressionAndContext) {
  EXPECT_DEATH({ CHECK(1 == 2) << "ctx=" << 42; }, "CHECK failed: 1 == 2.*ctx=42");
  EXPECT_DEATH({ CHECK_EQ(3, 4) << "tier=dram"; }, "3 == 4.*\\(3 vs 4\\).*tier=dram");
  EXPECT_DEATH({ CHECK_GE(1, 5); }, "1 >= 5");
}

TEST(CheckTest, PassingChecksAreSilentAndEvaluateOnce) {
  int evaluations = 0;
  const auto bump = [&evaluations] { return ++evaluations; };
  CHECK(bump() == 1) << "never rendered";
  CHECK_EQ(evaluations, 1);
}

TEST(CheckTest, SimErrorFormatsHeadlineTickAndContext) {
  const std::string formatted = SimError("page vanished", 1500 * kMicrosecond)
                                    .Add("vpn", 0x42)
                                    .Add("tier", "dram")
                                    .Format();
  EXPECT_EQ(formatted, "page vanished [tick=1500000ns] vpn=66 tier=dram");
}

// --- scripted copy faults through the migration engine ---

constexpr double kOnePagePerMs = static_cast<double>(kBasePageSize) * 1000.0;  // bytes/s
constexpr SimDuration kCopyTime = kMillisecond;

class StubEnv : public MigrationEnv {
 public:
  StubEnv(uint64_t fast_pages, uint64_t slow_pages)
      : memory_(MakeSpec(fast_pages, slow_pages)) {}

  EventQueue& queue() override { return queue_; }
  TieredMemory& memory() override { return memory_; }
  void ReclaimForPromotion(uint64_t pages) override { reclaim_requests_ += pages; }
  void ApplyMigration(Vma&, PageInfo& unit, NodeId, NodeId to) override {
    unit.node = to;
    ++applied_;
  }
  void ChargeMigrationKernelTime(SimDuration d) override { kernel_time_ += d; }

  EventQueue queue_;
  TieredMemory memory_;
  uint64_t reclaim_requests_ = 0;
  uint64_t applied_ = 0;
  SimDuration kernel_time_ = 0;

 private:
  // The two-tier star "(1,2)" with a 1 ms/page link on both nodes.
  static TopologySpec MakeSpec(uint64_t fast_pages, uint64_t slow_pages) {
    TopologySpec spec =
        TopologySpec::Star({TierSpec::Dram(fast_pages), TierSpec::OptanePmem(slow_pages)});
    spec.bandwidth = {kOnePagePerMs, kOnePagePerMs};
    return spec;
  }
};

// Plays back a fixed verdict sequence, one per copy pass; kNone once exhausted.
class ScriptedOracle : public CopyFaultOracle {
 public:
  explicit ScriptedOracle(std::deque<CopyFault> script) : script_(std::move(script)) {}

  CopyFault OnCopyPassDone(NodeId, NodeId, uint64_t, int, SimTime) override {
    ++passes_seen_;
    if (script_.empty()) {
      return CopyFault::kNone;
    }
    const CopyFault verdict = script_.front();
    script_.pop_front();
    return verdict;
  }

  int passes_seen_ = 0;

 private:
  std::deque<CopyFault> script_;
};

class FaultedEngineTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kNumPages = 16;

  void Build(std::deque<CopyFault> script, MigrationEngineConfig config = {}) {
    env_ = std::make_unique<StubEnv>(/*fast_pages=*/1024, /*slow_pages=*/4096);
    stats_ = MigrationStats();
    engine_ = std::make_unique<MigrationEngine>(config, env_.get(), &stats_);
    oracle_ = std::make_unique<ScriptedOracle>(std::move(script));
    engine_->set_fault_oracle(oracle_.get());
    aspace_ = std::make_unique<AddressSpace>(1);
    base_vpn_ = aspace_->MapRegion(kNumPages * kBasePageSize) / kBasePageSize;
    vma_ = aspace_->FindVma(base_vpn_);
    ASSERT_NE(vma_, nullptr);
    ASSERT_TRUE(env_->memory_.node(kSlowNode).TryAllocate(kNumPages));
    for (uint64_t i = 0; i < kNumPages; ++i) {
      PageInfo& page = vma_->PageAt(base_vpn_ + i);
      page.Set(kPagePresent);
      page.node = kSlowNode;
    }
  }

  PageInfo& page(uint64_t i) { return vma_->PageAt(base_vpn_ + i); }

  void Drain() {
    while (env_->queue_.pending() > 0) {
      env_->queue_.RunNext();
    }
  }

  std::unique_ptr<StubEnv> env_;
  MigrationStats stats_;
  std::unique_ptr<MigrationEngine> engine_;
  std::unique_ptr<ScriptedOracle> oracle_;
  std::unique_ptr<AddressSpace> aspace_;
  Vma* vma_ = nullptr;
  uint64_t base_vpn_ = 0;
};

TEST_F(FaultedEngineTest, TransientCopyFaultRetriesWithBackoffThenCommits) {
  Build({CopyFault::kTransient});
  ASSERT_TRUE(engine_
                  ->Submit(*vma_, page(0), kFastNode, MigrationClass::kAsync,
                           MigrationSource::kPolicyDaemon)
                  .admitted);
  Drain();

  EXPECT_EQ(stats_.injected_transient_faults, 1u);
  EXPECT_EQ(stats_.copy_attempts, 2u);
  EXPECT_EQ(stats_.TotalCommitted(), 1u);
  EXPECT_EQ(stats_.TotalParked(), 0u);
  EXPECT_EQ(page(0).node, kFastNode);
  // Pass 1: [0, 1ms]. Retry backs off kRetryBackoff before pass 2 books.
  EXPECT_EQ(env_->queue_.now(),
            2 * kCopyTime + MigrationEngine::kRetryBackoff);
}

TEST_F(FaultedEngineTest, TransientFaultsExhaustedParkAtSourceAndFreeFrames) {
  // Every pass fails transiently; kMaxCopyAttempts = 3 parks the transaction.
  Build({CopyFault::kTransient, CopyFault::kTransient, CopyFault::kTransient});
  const uint64_t fast_used = env_->memory_.node(kFastNode).used_pages();
  ASSERT_TRUE(engine_
                  ->Submit(*vma_, page(0), kFastNode, MigrationClass::kAsync,
                           MigrationSource::kPolicyDaemon)
                  .admitted);
  Drain();

  EXPECT_EQ(stats_.parked[static_cast<size_t>(MigrationClass::kAsync)], 1u);
  EXPECT_EQ(stats_.injected_transient_faults, 3u);
  EXPECT_EQ(stats_.TotalCommitted(), 0u);
  EXPECT_EQ(stats_.TotalAborted(), 0u);
  // Parked page stays mapped at its source; healthy frames go back to the free list.
  EXPECT_EQ(page(0).node, kSlowNode);
  EXPECT_FALSE(page(0).Has(kPageMigrating));
  EXPECT_EQ(env_->memory_.node(kFastNode).used_pages(), fast_used);
  EXPECT_EQ(env_->memory_.node(kFastNode).quarantined_pages(), 0u);
  EXPECT_EQ(engine_->inflight_reserved_pages(), 0u);
}

TEST_F(FaultedEngineTest, PersistentCopyFaultQuarantinesTargetFrames) {
  Build({CopyFault::kPersistent});
  const uint64_t fast_free = env_->memory_.node(kFastNode).free_pages();
  ASSERT_TRUE(engine_
                  ->Submit(*vma_, page(0), kFastNode, MigrationClass::kAsync,
                           MigrationSource::kPolicyDaemon)
                  .admitted);
  Drain();

  EXPECT_EQ(stats_.parked[static_cast<size_t>(MigrationClass::kAsync)], 1u);
  EXPECT_EQ(stats_.injected_persistent_faults, 1u);
  EXPECT_EQ(stats_.quarantined_pages, 1u);
  EXPECT_EQ(stats_.copy_attempts, 1u);  // Persistent faults never retry.
  EXPECT_EQ(page(0).node, kSlowNode);
  EXPECT_FALSE(page(0).Has(kPageMigrating));
  // The suspect frame is quarantined, not freed: it must not be handed out again.
  const MemoryTier& fast = env_->memory_.node(kFastNode);
  EXPECT_EQ(fast.quarantined_pages(), 1u);
  EXPECT_EQ(fast.free_pages(), fast_free - 1);
  EXPECT_EQ(fast.allocated_pages(), 0u);
  EXPECT_EQ(engine_->inflight_reserved_pages(), 0u);
}

TEST_F(FaultedEngineTest, SyncSubmissionParksInlineWithoutCommitOverhead) {
  Build({CopyFault::kTransient, CopyFault::kTransient, CopyFault::kTransient});
  const MigrationTicket ticket =
      engine_->Submit(*vma_, page(0), kFastNode, MigrationClass::kSync,
                      MigrationSource::kFaultPath, 0);
  ASSERT_TRUE(ticket.admitted);
  EXPECT_EQ(ticket.outcome, MigrationOutcome::kParked);
  // The faulting thread stalled for all three back-to-back passes, but the commit-time
  // remap overhead was never charged (nothing committed).
  EXPECT_EQ(ticket.sync_latency, 3 * kCopyTime);
  EXPECT_EQ(page(0).node, kSlowNode);
  EXPECT_EQ(stats_.parked[static_cast<size_t>(MigrationClass::kSync)], 1u);
  EXPECT_EQ(env_->queue_.pending(), 0u);
}

TEST_F(FaultedEngineTest, DegradedTierRefusesPromotionsButDrainsDemotions) {
  Build({});
  env_->memory_.node(kFastNode).set_degraded(true);

  const MigrationTicket promo =
      engine_->Submit(*vma_, page(0), kFastNode, MigrationClass::kAsync,
                      MigrationSource::kPolicyDaemon);
  EXPECT_FALSE(promo.admitted);
  EXPECT_EQ(promo.refusal, MigrationRefusal::kTierDegraded);
  EXPECT_EQ(stats_.refused[static_cast<size_t>(MigrationRefusal::kTierDegraded)], 1u);

  // A fast-tier resident demotes out of the degraded tier without obstruction.
  ASSERT_TRUE(env_->memory_.node(kFastNode).TryAllocate(1));
  PageInfo& fast_page = page(1);
  fast_page.node = kFastNode;
  const MigrationTicket demo =
      engine_->Submit(*vma_, fast_page, kSlowNode, MigrationClass::kReclaim,
                      MigrationSource::kReclaimDaemon, 0);
  EXPECT_TRUE(demo.admitted);
  EXPECT_EQ(demo.outcome, MigrationOutcome::kCommitted);
  EXPECT_EQ(fast_page.node, kSlowNode);

  env_->memory_.node(kFastNode).set_degraded(false);
  EXPECT_TRUE(engine_
                  ->Submit(*vma_, page(0), kFastNode, MigrationClass::kAsync,
                           MigrationSource::kPolicyDaemon)
                  .admitted);
}

TEST_F(FaultedEngineTest, InjectedStallBacklogsChannelThenRecovers) {
  MigrationEngineConfig config;
  config.sync_slack = 2 * kMillisecond;
  Build({}, config);

  engine_->mutable_channel(kFastNode, kSlowNode).InjectStall(0, 5 * kMillisecond);
  EXPECT_EQ(engine_->channel(kFastNode, kSlowNode).stalls_injected(), 1u);

  // Sync work sees the 5ms dead time as backlog and is refused...
  const MigrationTicket sync =
      engine_->Submit(*vma_, page(0), kFastNode, MigrationClass::kSync,
                      MigrationSource::kFaultPath, 0);
  EXPECT_FALSE(sync.admitted);
  EXPECT_EQ(sync.refusal, MigrationRefusal::kBacklog);

  // ...but once simulated time passes the stall, the same submission is admitted.
  env_->queue_.RunUntil(6 * kMillisecond);
  EXPECT_TRUE(engine_
                  ->Submit(*vma_, page(0), kFastNode, MigrationClass::kSync,
                           MigrationSource::kFaultPath, env_->queue_.now())
                  .admitted);
}

TEST_F(FaultedEngineTest, BandwidthCollapseWindowSlowsBookedCopies) {
  Build({});
  engine_->mutable_channel(kFastNode, kSlowNode)
      .DegradeBandwidth(/*until=*/10 * kMillisecond, /*factor=*/4.0);

  ASSERT_TRUE(engine_
                  ->Submit(*vma_, page(0), kFastNode, MigrationClass::kAsync,
                           MigrationSource::kPolicyDaemon)
                  .admitted);
  Drain();
  // The 1ms copy booked inside the window took 4ms of channel time.
  EXPECT_EQ(env_->queue_.now(), 4 * kCopyTime);
  EXPECT_EQ(stats_.channel_busy, 4 * kCopyTime);
  EXPECT_EQ(stats_.TotalCommitted(), 1u);

  // A copy starting after the window closes runs at full speed again.
  env_->queue_.RunUntil(10 * kMillisecond);
  ASSERT_TRUE(engine_
                  ->Submit(*vma_, page(1), kFastNode, MigrationClass::kAsync,
                           MigrationSource::kPolicyDaemon)
                  .admitted);
  Drain();
  EXPECT_EQ(env_->queue_.now(), 11 * kMillisecond);  // Starts at 10ms, 1ms copy.
}

TEST_F(FaultedEngineTest, SyncTransientFaultRetriesBackToBackThenCommits) {
  Build({CopyFault::kTransient});
  Tracer tracer(MigrationTraceConfig());
  engine_->set_tracer(&tracer);
  const MigrationTicket ticket =
      engine_->Submit(*vma_, page(0), kFastNode, MigrationClass::kSync,
                      MigrationSource::kFaultPath, 0);
  ASSERT_TRUE(ticket.admitted);
  EXPECT_EQ(ticket.outcome, MigrationOutcome::kCommitted);
  // Inline retries run back-to-back (no backoff: the faulting thread is stalled anyway);
  // the remap overhead is charged once, for the commit.
  EXPECT_EQ(ticket.sync_latency,
            2 * kCopyTime + TieredMemory::kMigrationSoftwareOverhead);
  EXPECT_EQ(page(0).node, kFastNode);
  EXPECT_FALSE(page(0).Has(kPageMigrating));
  EXPECT_EQ(stats_.committed[static_cast<size_t>(MigrationClass::kSync)], 1u);
  EXPECT_EQ(stats_.injected_transient_faults, 1u);
  EXPECT_EQ(stats_.copy_attempts, 2u);
  EXPECT_EQ(oracle_->passes_seen_, 2);
  EXPECT_EQ(env_->queue_.pending(), 0u);

  EXPECT_EQ(TracePayloadsB(tracer, TraceEventType::kMigrationCopyFault),
            std::vector<uint64_t>{1});
  EXPECT_TRUE(TracePayloadsB(tracer, TraceEventType::kMigrationDirtyAbort).empty());
  EXPECT_TRUE(TracePayloadsB(tracer, TraceEventType::kMigrationAbort).empty());
  EXPECT_TRUE(TracePayloadsB(tracer, TraceEventType::kMigrationPark).empty());
  EXPECT_EQ(TracePayloadsB(tracer, TraceEventType::kMigrationCommit).size(), 1u);
}

TEST_F(FaultedEngineTest, ReclaimDemotionPersistentFaultQuarantinesSlowFrames) {
  Build({CopyFault::kPersistent});
  // Move page 0 to the fast tier so reclaim can demote it.
  ASSERT_TRUE(env_->memory_.node(kFastNode).TryAllocate(1));
  env_->memory_.FreePages(kSlowNode, 1);
  page(0).node = kFastNode;
  const uint64_t slow_free = env_->memory_.node(kSlowNode).free_pages();
  const uint64_t slow_allocated = env_->memory_.node(kSlowNode).allocated_pages();
  Tracer tracer(MigrationTraceConfig());
  engine_->set_tracer(&tracer);

  const MigrationTicket ticket =
      engine_->Submit(*vma_, page(0), kSlowNode, MigrationClass::kReclaim,
                      MigrationSource::kReclaimDaemon, 0);
  ASSERT_TRUE(ticket.admitted);
  EXPECT_EQ(ticket.outcome, MigrationOutcome::kParked);
  EXPECT_EQ(page(0).node, kFastNode);  // Parked at its source.
  EXPECT_FALSE(page(0).Has(kPageMigrating));
  EXPECT_EQ(stats_.parked[static_cast<size_t>(MigrationClass::kReclaim)], 1u);
  EXPECT_EQ(stats_.injected_persistent_faults, 1u);
  EXPECT_EQ(stats_.quarantined_pages, 1u);
  EXPECT_EQ(stats_.copy_attempts, 1u);
  EXPECT_EQ(stats_.TotalCommitted(), 0u);
  // The reserved slow-tier frame is quarantined, not freed.
  const MemoryTier& slow = env_->memory_.node(kSlowNode);
  EXPECT_EQ(slow.quarantined_pages(), 1u);
  EXPECT_EQ(slow.free_pages(), slow_free - 1);
  EXPECT_EQ(slow.allocated_pages(), slow_allocated);
  EXPECT_EQ(env_->queue_.pending(), 0u);

  EXPECT_EQ(TracePayloadsB(tracer, TraceEventType::kMigrationCopyFault),
            std::vector<uint64_t>{2});
  EXPECT_EQ(TracePayloadsB(tracer, TraceEventType::kMigrationPark),
            std::vector<uint64_t>{1});  // b = attempt.
  EXPECT_TRUE(TracePayloadsB(tracer, TraceEventType::kMigrationDirtyAbort).empty());
  EXPECT_TRUE(TracePayloadsB(tracer, TraceEventType::kMigrationAbort).empty());
  EXPECT_TRUE(TracePayloadsB(tracer, TraceEventType::kMigrationCommit).empty());
}

// --- full-machine chaos runs ---

FaultPlan StandardChaosPlan(uint64_t fault_seed) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = fault_seed;
  plan.start_after = 500 * kMillisecond;
  plan.copy_fail_transient_p = 0.05;
  plan.copy_fail_persistent_p = 0.002;
  plan.stall_period = 400 * kMillisecond;
  plan.stall_fire_p = 0.7;
  plan.pressure_period = 700 * kMillisecond;
  plan.pressure_fire_p = 0.8;
  plan.pressure_duration = 80 * kMillisecond;
  plan.pressure_fraction = 0.05;
  plan.alloc_fail_period = 900 * kMillisecond;
  plan.alloc_fail_fire_p = 0.8;
  plan.alloc_fail_duration = 60 * kMillisecond;
  return plan;
}

struct ChaosOutcome {
  uint64_t commit_hash = 0;
  uint64_t committed = 0;
  uint64_t parked = 0;
  uint64_t transient = 0;
  uint64_t persistent = 0;
  uint64_t quarantined = 0;
  uint64_t stall_windows = 0;
  uint64_t pressure_spikes = 0;
  bool audit_clean = false;
};

ChaosOutcome RunChaos(const PolicyFactory& make_policy, uint64_t seed,
                      uint64_t fault_seed) {
  MachineConfig config = MachineConfig::StandardTwoTier(4096, 0.25);
  config.bandwidth_scale = 64;
  config.fault = StandardChaosPlan(fault_seed);
  config.audit_period = 250 * kMillisecond;  // Audit aggressively mid-chaos.
  Machine machine(config, make_policy());
  Process& process = machine.CreateProcess("chaos");
  UniformConfig w;
  w.working_set_bytes = 3000 * kBasePageSize;
  w.read_ratio = 0.5;
  w.sequential_init = true;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), seed + 1);
  machine.Start();
  machine.Run(5 * kSecond);

  const MigrationStats& migration = machine.metrics().migration();
  const FaultStats& fault = machine.metrics().fault();
  ChaosOutcome outcome;
  outcome.commit_hash = migration.commit_sequence_hash;
  outcome.committed = migration.TotalCommitted();
  outcome.parked = migration.TotalParked();
  outcome.transient = migration.injected_transient_faults;
  outcome.persistent = migration.injected_persistent_faults;
  outcome.quarantined = migration.quarantined_pages;
  outcome.stall_windows = fault.stall_windows;
  outcome.pressure_spikes = fault.pressure_spikes;
  outcome.audit_clean = machine.AuditNow().clean();
  return outcome;
}

PolicyFactory PromoteAllFactory();

// Promotes every slow-tier unit asynchronously each tick: steady migration traffic so the
// copy-fault oracle gets plenty of passes to fail.
class AsyncPromoteAllPolicy : public TieringPolicy {
 public:
  std::string_view name() const override { return "async-promote-all"; }
  void Attach(Machine& machine) override {
    machine_ = &machine;
    machine.queue().SchedulePeriodic(100 * kMillisecond, [this](SimTime) {
      for (auto& process : machine_->processes()) {
        process->aspace().ForEachPage([this](Vma& vma, PageInfo& pg) {
          PageInfo& unit = vma.HotnessUnit(pg.vpn);
          if (unit.present() && unit.node != kFastNode) {
            machine_->migration().Submit(vma, unit, kFastNode, MigrationClass::kAsync,
                                         MigrationSource::kPolicyDaemon);
          }
        });
      }
    });
  }
  SimDuration OnHintFault(Process&, Vma&, PageInfo&, bool, SimTime) override { return 0; }

 private:
  Machine* machine_ = nullptr;
};

PolicyFactory PromoteAllFactory() {
  return [] { return std::make_unique<AsyncPromoteAllPolicy>(); };
}

TEST(ChaosDeterminismTest, SameFaultSeedReproducesIdenticalRun) {
  const ChaosOutcome a = RunChaos(PromoteAllFactory(), 42, 7);
  const ChaosOutcome b = RunChaos(PromoteAllFactory(), 42, 7);

  // The chaos actually happened...
  EXPECT_GT(a.committed, 0u);
  EXPECT_GT(a.transient + a.persistent, 0u);
  EXPECT_GT(a.stall_windows + a.pressure_spikes, 0u);
  // ...no fault produced an auditor violation, lost page, or abort...
  EXPECT_TRUE(a.audit_clean);
  EXPECT_TRUE(b.audit_clean);
  // ...and the whole run replays bit-for-bit.
  EXPECT_EQ(a.commit_hash, b.commit_hash);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.parked, b.parked);
  EXPECT_EQ(a.transient, b.transient);
  EXPECT_EQ(a.persistent, b.persistent);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.stall_windows, b.stall_windows);
  EXPECT_EQ(a.pressure_spikes, b.pressure_spikes);

  // A different fault seed perturbs the fault schedule, hence the commit interleaving.
  const ChaosOutcome c = RunChaos(PromoteAllFactory(), 42, 8);
  EXPECT_NE(a.commit_hash, c.commit_hash);
}

TEST(ChaosDeterminismTest, ChronoSurvivesChaosAuditClean) {
  ScanGeometry geometry;
  geometry.scan_period = kSecond;
  const auto policies = StandardPolicySet(geometry);
  // policies.back() is Chrono; policies.front() is Linux-NB.
  const ChaosOutcome chrono = RunChaos(policies.back().make, 42, 11);
  EXPECT_TRUE(chrono.audit_clean);
  const ChaosOutcome linux_nb = RunChaos(policies.front().make, 42, 11);
  EXPECT_TRUE(linux_nb.audit_clean);
}

// --- pressure spikes: degraded mode + emergency reclaim + full recovery ---

TEST(PressureSpikeTest, StolenFramesAreReturnedAndDegradedModeClears) {
  MachineConfig config = MachineConfig::StandardTwoTier(4096, 0.25);
  config.bandwidth_scale = 64;
  config.fault.enabled = true;
  config.fault.seed = 3;
  config.fault.pressure_period = 300 * kMillisecond;
  config.fault.pressure_duration = 50 * kMillisecond;
  config.fault.pressure_fraction = 0.25;
  config.audit_period = 100 * kMillisecond;
  Machine machine(config, std::make_unique<AsyncPromoteAllPolicy>());
  Process& process = machine.CreateProcess("app");
  UniformConfig w;
  w.working_set_bytes = 2800 * kBasePageSize;
  w.sequential_init = true;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 5);
  machine.Start();
  machine.Run(2 * kSecond);  // Last spike at 1.8s ends at 1.85s.

  const FaultStats& fault = machine.metrics().fault();
  EXPECT_GT(fault.pressure_spikes, 0u);
  EXPECT_GT(fault.pressure_pages_stolen, 0u);
  EXPECT_EQ(fault.degraded_mode_entries, fault.pressure_spikes);
  // Every window closed: frames returned, degraded mode cleared, bookkeeping clean.
  const MemoryTier& fast = machine.memory().node(kFastNode);
  EXPECT_EQ(fast.pressure_stolen_pages(), 0u);
  EXPECT_FALSE(fast.degraded());
  EXPECT_TRUE(machine.AuditNow().clean());
  // Degraded windows actually pushed back on promotions.
  const MigrationStats& migration = machine.metrics().migration();
  EXPECT_GT(migration.refused[static_cast<size_t>(MigrationRefusal::kTierDegraded)], 0u);
}

// --- allocation failure: graceful refusal + recovery, Chrono and a baseline ---

void RunAllocExhaustion(const PolicyFactory& make_policy) {
  // Working set bigger than all of physical memory: without fault injection this is a
  // fatal OOM; with it, demand faults refuse gracefully and the run completes.
  MachineConfig config = MachineConfig::StandardTwoTier(2048, 0.25);
  config.bandwidth_scale = 64;
  config.fault.enabled = true;  // Injector presence switches OOM to graceful refusal.
  config.audit_period = 200 * kMillisecond;
  Machine machine(config, make_policy());
  Process& process = machine.CreateProcess("hog");
  UniformConfig w;
  w.working_set_bytes = 2200 * kBasePageSize;  // > 2048 physical pages.
  w.sequential_init = true;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 9);
  machine.Start();
  machine.Run(2 * kSecond);

  const FaultStats& fault = machine.metrics().fault();
  EXPECT_GT(fault.alloc_refusals, 0u);
  EXPECT_EQ(fault.emergency_reclaims, fault.alloc_refusals);
  EXPECT_GT(fault.alloc_stall_time, 0);
  // The machine made progress despite the exhaustion, and bookkeeping held.
  EXPECT_GT(process.completed_accesses(), 0u);
  EXPECT_TRUE(machine.AuditNow().clean());
  // Residency never exceeds what the tiers can actually hold.
  EXPECT_LE(machine.memory().total_used_pages(), 2048u);
}

TEST(AllocFailureTest, ChronoRefusesGracefullyWhenMemoryExhausted) {
  ScanGeometry geometry;
  geometry.scan_period = kSecond;
  RunAllocExhaustion(StandardPolicySet(geometry).back().make);
}

TEST(AllocFailureTest, LinuxNbRefusesGracefullyWhenMemoryExhausted) {
  ScanGeometry geometry;
  geometry.scan_period = kSecond;
  RunAllocExhaustion(StandardPolicySet(geometry).front().make);
}

TEST(AllocFailureTest, StrictMinFloorWindowRefusesMigrationTargetsThenRecovers) {
  // Direct tier-level check of the alloc-fail window semantics: allow_below_min normally
  // dips under the min watermark, the strict floor forbids it, recovery restores it.
  MemoryTier tier{TierSpec::Dram(1000)};
  const uint64_t min = tier.watermarks().min;
  ASSERT_TRUE(tier.TryAllocate(1000 - min, /*allow_below_min=*/false));
  EXPECT_FALSE(tier.TryAllocate(1, /*allow_below_min=*/false));
  tier.set_strict_min_floor(true);
  EXPECT_FALSE(tier.TryAllocate(1, /*allow_below_min=*/true));  // Window blocks it.
  tier.set_strict_min_floor(false);
  EXPECT_TRUE(tier.TryAllocate(1, /*allow_below_min=*/true));   // Recovery.
}

// --- the auditor detects real corruption ---

class AuditorCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MachineConfig config = MachineConfig::StandardTwoTier(4096, 0.25);
    config.audit_period = 0;  // Manual audits only: we corrupt state on purpose.
    machine_ = std::make_unique<Machine>(config, std::make_unique<AsyncPromoteAllPolicy>());
    Process& process = machine_->CreateProcess("app");
    UniformConfig w;
    w.working_set_bytes = 512 * kBasePageSize;
    w.sequential_init = true;
    machine_->AttachWorkload(process, std::make_unique<UniformStream>(w), 1);
    machine_->Start();
    machine_->Run(kSecond);
    ASSERT_TRUE(machine_->AuditNow().clean());
  }

  PageInfo* SomeResidentUnit() {
    PageInfo* found = nullptr;
    machine_->processes().front()->aspace().ForEachPage([&found](Vma& vma, PageInfo& pg) {
      PageInfo& unit = vma.HotnessUnit(pg.vpn);
      if (found == nullptr && unit.present() && !unit.Has(kPageMigrating)) {
        found = &unit;
      }
    });
    return found;
  }

  // Registers a present page that no process maps and puts it on `node`'s LRU list: an
  // LRU entry the page-table walk can never cross off.
  void AddStrayPage(int32_t owner, uint32_t vpn, NodeId node, bool active) {
    PageInfo& page = stray_pages_.emplace_back();
    page.owner = owner;
    page.vpn = vpn;
    page.node = node;
    page.Set(kPagePresent);
    machine_->arena().RegisterPage(&page);
    machine_->lru(node).Insert(&page, active);
  }

  std::deque<PageInfo> stray_pages_;  // Before machine_: the arena points into it.
  std::unique_ptr<Machine> machine_;
};

TEST_F(AuditorCorruptionTest, DetectsLeakedFrames) {
  // Frames allocated with no page pointing at them: accounting must flag the tier.
  ASSERT_TRUE(machine_->memory().node(kFastNode).TryAllocate(3, true));
  const AuditReport report = machine_->AuditNow();
  ASSERT_FALSE(report.clean());
  EXPECT_NE(report.Summary().find("frame accounting mismatch"), std::string::npos);
}

TEST_F(AuditorCorruptionTest, DetectsLruResidencyDivergence) {
  PageInfo* unit = SomeResidentUnit();
  ASSERT_NE(unit, nullptr);
  // Rip the page off its LRU list behind the machine's back.
  machine_->lru(unit->node).Erase(unit);
  const AuditReport report = machine_->AuditNow();
  ASSERT_FALSE(report.clean());
  EXPECT_NE(report.Summary().find("missing from every LRU list"), std::string::npos);
}

TEST_F(AuditorCorruptionTest, DetectsResidencyCounterSkew) {
  machine_->processes().front()->AddResident(kFastNode, 5);
  const AuditReport report = machine_->AuditNow();
  ASSERT_FALSE(report.clean());
  EXPECT_NE(report.Summary().find("residency counter disagrees"), std::string::npos);
}

TEST_F(AuditorCorruptionTest, DetectsGhostMigratingFlag) {
  PageInfo* unit = SomeResidentUnit();
  ASSERT_NE(unit, nullptr);
  unit->Set(kPageMigrating);
  const AuditReport report = machine_->AuditNow();
  ASSERT_FALSE(report.clean());
  EXPECT_NE(report.Summary().find("migrating-flag population"), std::string::npos);
}

TEST_F(AuditorCorruptionTest, DetectsNodeFieldCorruption) {
  PageInfo* unit = SomeResidentUnit();
  ASSERT_NE(unit, nullptr);
  // Flip the backing node without moving any frame: the page now claims residency on a
  // tier that never allocated for it, and sits on the wrong node's LRU list.
  unit->node = unit->node == kFastNode ? kSlowNode : kFastNode;
  const AuditReport report = machine_->AuditNow();
  ASSERT_FALSE(report.clean());
  EXPECT_NE(report.Summary().find("wrong node"), std::string::npos);
  EXPECT_NE(report.Summary().find("frame accounting mismatch"), std::string::npos);
}

TEST_F(AuditorCorruptionTest, DetectsNonPresentPageOnList) {
  PageInfo* unit = SomeResidentUnit();
  ASSERT_NE(unit, nullptr);
  // Drop the present bit but leave the page on its list.
  unit->ClearFlag(kPagePresent);
  const AuditReport report = machine_->AuditNow();
  ASSERT_FALSE(report.clean());
  const std::string where = " owner=" + std::to_string(static_cast<int32_t>(unit->owner)) +
                            " vpn=" + std::to_string(unit->vpn);
  EXPECT_NE(report.Summary().find("non-present page on LRU list"), std::string::npos);
  EXPECT_NE(report.Summary().find(where), std::string::npos) << report.Summary();
}

TEST_F(AuditorCorruptionTest, DetectsMembershipTagMismatch) {
  PageInfo* unit = SomeResidentUnit();
  ASSERT_NE(unit, nullptr);
  const LruMembership actual = unit->lru_state();
  ASSERT_NE(actual, LruMembership::kNone);
  unit->set_lru_state(actual == LruMembership::kActive ? LruMembership::kInactive
                                                       : LruMembership::kActive);
  const AuditReport report = machine_->AuditNow();
  ASSERT_EQ(report.violations.size(), 1u) << report.Summary();
  EXPECT_NE(report.Summary().find("LRU membership tag disagrees with list"),
            std::string::npos);
  const std::string tags = actual == LruMembership::kActive ? "tag=inactive list=active"
                                                            : "tag=active list=inactive";
  EXPECT_NE(report.Summary().find(tags), std::string::npos) << report.Summary();
}

TEST_F(AuditorCorruptionTest, ReportsStaleEntryWithSmallestOwnerAndVpn) {
  // Three stray entries across both nodes and both lists, inserted out of (owner, vpn)
  // order: the report names the count and the smallest pair, with its node.
  AddStrayPage(/*owner=*/3, /*vpn=*/900, kFastNode, /*active=*/true);
  AddStrayPage(/*owner=*/2, /*vpn=*/7000, kFastNode, /*active=*/false);
  AddStrayPage(/*owner=*/2, /*vpn=*/50, kSlowNode, /*active=*/true);
  const AuditReport report = machine_->AuditNow();
  ASSERT_EQ(report.violations.size(), 1u) << report.Summary();
  const std::string& v = report.violations.front();
  EXPECT_NE(v.find("stale LRU entries"), std::string::npos) << v;
  EXPECT_NE(v.find(" count=3 first_owner=2 first_vpn=50 node=1"), std::string::npos) << v;
}

}  // namespace
}  // namespace chronotier
