// Fabric fault-domain tests: TopologyHealth bookkeeping, migration-engine behaviour under
// link-down windows (refusal gates, mid-flight re-route after restore, park when the pair
// stays partitioned), the scripted FabricFaultDriver event machinery, endpoint hot-remove
// through the full machine (drain to kOffline with zero resident pages), fabric chaos
// determinism (same fault seed twice -> identical commit hashes and fabric counters), and
// the MachineConfig validation that refuses fabric plans on endpoints too small for their
// derived watermark floors.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/fault/fabric_faults.h"
#include "src/harness/experiment.h"
#include "src/harness/machine.h"
#include "src/migration/migration_engine.h"
#include "src/topology/topology.h"
#include "src/trace/tracer.h"
#include "src/workloads/patterns.h"
#include "tests/engine_trace_testutil.h"

namespace chronotier {
namespace {

// --- TopologyHealth bookkeeping ---

TEST(TopologyHealthTest, CountersGenerationAndFastPathGate) {
  TopologyHealth health(/*num_nodes=*/3, /*num_edges=*/2);
  EXPECT_FALSE(health.any_fault());
  EXPECT_EQ(health.links_down(), 0);
  EXPECT_EQ(health.endpoints_unavailable(), 0);
  const uint64_t gen0 = health.generation();

  health.SetLink(0, LinkHealth::kDegraded);  // Degraded links stay routable.
  EXPECT_EQ(health.links_down(), 0);
  EXPECT_FALSE(health.any_fault());

  health.SetLink(1, LinkHealth::kDown);
  EXPECT_EQ(health.links_down(), 1);
  EXPECT_TRUE(health.any_fault());

  health.SetEndpoint(2, EndpointHealth::kFailing);
  EXPECT_FALSE(health.endpoint_available(2));
  EXPECT_EQ(health.endpoints_unavailable(), 1);
  health.SetEndpoint(2, EndpointHealth::kOffline);  // Failing -> offline: still one.
  EXPECT_EQ(health.endpoints_unavailable(), 1);

  health.SetLink(1, LinkHealth::kUp);
  health.SetEndpoint(2, EndpointHealth::kHealthy);
  EXPECT_FALSE(health.any_fault());
  // Five distinct state changes (the failing->offline transition counts too).
  EXPECT_EQ(health.generation(), gen0 + 6);

  // Re-setting the current state is not a mutation.
  const uint64_t gen1 = health.generation();
  health.SetLink(0, LinkHealth::kDegraded);
  EXPECT_EQ(health.generation(), gen1);
}

TEST(TopologyHealthDeathTest, RootEndpointCannotFail) {
  TopologyHealth health(2, 1);
  EXPECT_DEATH(health.SetEndpoint(kFastNode, EndpointHealth::kFailing),
               "root/fast node cannot fail");
}

// --- migration engine under link/endpoint faults (0-1-2 chain, pages on node 2) ---

constexpr double kOnePagePerMs = static_cast<double>(kBasePageSize) * 1000.0;  // bytes/s
constexpr SimDuration kCopyTime = kMillisecond;

class StubEnv : public MigrationEnv {
 public:
  explicit StubEnv(TieredMemory memory) : memory_(std::move(memory)) {}

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
};

TieredMemory MakeChainMemory() {
  TopologySpec spec;
  spec.tree = "(1,(2,3))";  // Nodes 0-1-2, edges (0,1) and (1,2).
  spec.capacity_pages = {1024, 1024, 4096};
  spec.bandwidth = {kOnePagePerMs, kOnePagePerMs, kOnePagePerMs};
  return TieredMemory(spec);
}

class FabricEngineTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kNumPages = 16;
  static constexpr NodeId kLeafNode = 2;

  void SetUp() override {
    env_ = std::make_unique<StubEnv>(MakeChainMemory());
    engine_ =
        std::make_unique<MigrationEngine>(MigrationEngineConfig(), env_.get(), &stats_);
    aspace_ = std::make_unique<AddressSpace>(1);
    base_vpn_ = aspace_->MapRegion(kNumPages * kBasePageSize) / kBasePageSize;
    vma_ = aspace_->FindVma(base_vpn_);
    ASSERT_NE(vma_, nullptr);
    ASSERT_TRUE(env_->memory_.node(kLeafNode).TryAllocate(kNumPages));
    for (uint64_t i = 0; i < kNumPages; ++i) {
      PageInfo& page = vma_->PageAt(base_vpn_ + i);
      page.Set(kPagePresent);
      page.node = kLeafNode;
    }
  }

  PageInfo& page(uint64_t i) { return vma_->PageAt(base_vpn_ + i); }

  MigrationTicket Submit(uint64_t i, NodeId target) {
    return engine_->Submit(*vma_, page(i), target, MigrationClass::kAsync,
                           MigrationSource::kPolicyDaemon);
  }

  // What the FabricFaultDriver does for a link-down window, minus the scheduling.
  void TakeLinkDown(NodeId lo, NodeId hi, SimTime until) {
    const int edge = env_->memory_.topology().EdgeIndex(lo, hi);
    ASSERT_GE(edge, 0);
    env_->memory_.mutable_health().SetLink(edge, LinkHealth::kDown);
    engine_->channel_at(edge).MarkDown(until);
    engine_->OnLinkDown(lo, hi, env_->queue_.now());
  }

  void RestoreLink(NodeId lo, NodeId hi) {
    const int edge = env_->memory_.topology().EdgeIndex(lo, hi);
    ASSERT_GE(edge, 0);
    env_->memory_.mutable_health().SetLink(edge, LinkHealth::kUp);
  }

  void ExpectNoBookingsWhileDown() {
    for (int c = 0; c < engine_->num_channels(); ++c) {
      EXPECT_EQ(engine_->channel_at(c).books_while_down(), 0u) << "channel " << c;
    }
  }

  void Drain() {
    while (env_->queue_.pending() > 0) {
      env_->queue_.RunNext();
    }
  }

  std::unique_ptr<StubEnv> env_;
  MigrationStats stats_;
  std::unique_ptr<MigrationEngine> engine_;
  std::unique_ptr<AddressSpace> aspace_;
  Vma* vma_ = nullptr;
  uint64_t base_vpn_ = 0;
};

TEST_F(FabricEngineTest, SubmitRefusesFailingEndpointTarget) {
  env_->memory_.mutable_health().SetEndpoint(1, EndpointHealth::kFailing);
  const MigrationTicket refused = Submit(0, /*target=*/1);
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(refused.refusal, MigrationRefusal::kEndpointFailing);
  EXPECT_EQ(stats_.refused[static_cast<size_t>(MigrationRefusal::kEndpointFailing)], 1u);

  // Other targets stay admissible, and recovery reopens the endpoint.
  EXPECT_TRUE(Submit(1, kFastNode).admitted);
  env_->memory_.mutable_health().SetEndpoint(1, EndpointHealth::kHealthy);
  EXPECT_TRUE(Submit(2, /*target=*/1).admitted);
}

TEST_F(FabricEngineTest, SubmitRefusesPartitionedPairsWithNoRoute) {
  // Down edge (1,2) cuts the only path from the leaf to the root: refuse before touching
  // any frame or channel state.
  const int edge = env_->memory_.topology().EdgeIndex(1, kLeafNode);
  ASSERT_GE(edge, 0);
  env_->memory_.mutable_health().SetLink(edge, LinkHealth::kDown);

  const uint64_t fast_used = env_->memory_.node(kFastNode).used_pages();
  const MigrationTicket refused = Submit(0, kFastNode);
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(refused.refusal, MigrationRefusal::kNoRoute);
  EXPECT_EQ(env_->memory_.node(kFastNode).used_pages(), fast_used);
  EXPECT_EQ(stats_.refused[static_cast<size_t>(MigrationRefusal::kNoRoute)], 1u);

  env_->memory_.mutable_health().SetLink(edge, LinkHealth::kUp);
  EXPECT_TRUE(Submit(0, kFastNode).admitted);
}

TEST_F(FabricEngineTest, LinkDownMidFlightReroutesAfterRestore) {
  // Pass 1 books legs 2->1 over [0, 1ms] and 1->0 over [1ms, 2ms]. The (1,2) link goes
  // down at 0.5ms — mid-flight for the pass — and is restored at 1.5ms. The copy-done
  // check at 2ms must dirty-abort the pass and re-book it over the (restored) fabric.
  Tracer tracer(MigrationTraceConfig());
  engine_->set_tracer(&tracer);
  ASSERT_TRUE(Submit(0, kFastNode).admitted);
  env_->queue_.ScheduleAt(kCopyTime / 2, [this](SimTime now) {
    TakeLinkDown(1, kLeafNode, /*until=*/now + kCopyTime);
  });
  env_->queue_.ScheduleAt(3 * kCopyTime / 2, [this](SimTime) { RestoreLink(1, kLeafNode); });
  Drain();

  EXPECT_EQ(stats_.reroutes, 1u);
  EXPECT_EQ(stats_.reroute_parks, 0u);
  EXPECT_EQ(stats_.TotalCommitted(), 1u);
  EXPECT_EQ(stats_.TotalParked(), 0u);
  EXPECT_EQ(page(0).node, kFastNode);
  EXPECT_EQ(engine_->inflight_reserved_pages(), 0u);
  EXPECT_EQ(TracePayloadsB(tracer, TraceEventType::kMigrationReroute),
            std::vector<uint64_t>{1});  // b = the booked re-route's number.
  // The audited fabric invariant: the window refused service, so nothing ever booked the
  // dead link while it was down.
  ExpectNoBookingsWhileDown();
}

TEST_F(FabricEngineTest, LinkStillDownAtRerouteParksAtSource) {
  const uint64_t fast_used = env_->memory_.node(kFastNode).used_pages();
  ASSERT_TRUE(Submit(0, kFastNode).admitted);
  // The link never comes back: the re-route attempt finds no surviving path and the
  // transaction parks at its source with its reserved frames released.
  env_->queue_.ScheduleAt(kCopyTime / 2, [this](SimTime now) {
    TakeLinkDown(1, kLeafNode, /*until=*/now + 100 * kCopyTime);
  });
  Drain();

  EXPECT_EQ(stats_.reroutes, 1u);       // The attempt was made...
  EXPECT_EQ(stats_.reroute_parks, 1u);  // ...and found the pair partitioned.
  EXPECT_EQ(stats_.TotalCommitted(), 0u);
  EXPECT_EQ(stats_.TotalParked(), 1u);
  EXPECT_EQ(page(0).node, kLeafNode);
  EXPECT_FALSE(page(0).Has(kPageMigrating));
  EXPECT_EQ(env_->memory_.node(kFastNode).used_pages(), fast_used);
  EXPECT_EQ(engine_->inflight_reserved_pages(), 0u);
  ExpectNoBookingsWhileDown();
}

TEST_F(FabricEngineTest, ReroutedPassesSpendNoCopyAttempt) {
  // Two link-downs invalidate passes 1 and 2 mid-flight; a store then dirties pass 3.
  // Re-routes spend only the re-route budget, so the dirty pass is the transaction's first
  // counted attempt: it retries (after the first backoff step, not a deeper one) and
  // commits instead of aborting on a spent copy-attempt budget.
  Tracer tracer(MigrationTraceConfig());
  engine_->set_tracer(&tracer);
  ASSERT_TRUE(Submit(0, kFastNode).admitted);
  // Pass 1 copies over [0, 2ms]; re-route 1 books pass 2 over [2.1ms, 4.1ms].
  env_->queue_.ScheduleAt(kCopyTime / 2, [this](SimTime now) {
    TakeLinkDown(1, kLeafNode, /*until=*/now + kCopyTime);
  });
  env_->queue_.ScheduleAt(3 * kCopyTime / 2,
                          [this](SimTime) { RestoreLink(1, kLeafNode); });
  const SimTime pass2_start = 2 * kCopyTime + MigrationEngine::kRetryBackoff;
  env_->queue_.ScheduleAt(pass2_start + kCopyTime / 2, [this](SimTime now) {
    TakeLinkDown(1, kLeafNode, /*until=*/now + kCopyTime);
  });
  env_->queue_.ScheduleAt(pass2_start + 3 * kCopyTime / 2,
                          [this](SimTime) { RestoreLink(1, kLeafNode); });
  // Re-route 2 books pass 3 one backoff step later, over [4.2ms, 6.2ms] (a re-route
  // counted toward the backoff exponent would wait two steps). One store dirties it.
  const SimTime pass3_start = pass2_start + 2 * kCopyTime + MigrationEngine::kRetryBackoff;
  env_->queue_.ScheduleAt(5 * kCopyTime, [this](SimTime) { ++page(0).write_gen; });
  Drain();

  EXPECT_EQ(stats_.reroutes, 2u);
  EXPECT_EQ(stats_.dirty_aborted_copies, 1u);
  EXPECT_EQ(stats_.TotalAborted(), 0u);
  EXPECT_EQ(stats_.TotalCommitted(), 1u);
  EXPECT_EQ(stats_.copy_attempts, 4u);  // Every booked pass, re-routes included.
  EXPECT_EQ(stats_.retry_histogram[2], 1u);  // Committed on its second counted attempt.
  EXPECT_EQ(page(0).node, kFastNode);
  EXPECT_EQ(TracePayloadsB(tracer, TraceEventType::kMigrationReroute),
            (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(TracePayloadsB(tracer, TraceEventType::kMigrationDirtyAbort),
            std::vector<uint64_t>{1});  // b = attempt.
  std::vector<SimTime> copy_at;
  tracer.ForEachEvent([&](const TraceEvent& event) {
    if (event.type == TraceEventType::kMigrationCopy) copy_at.push_back(event.ts);
  });
  ASSERT_EQ(copy_at.size(), 8u);  // Two legs per pass.
  EXPECT_EQ(copy_at[4], pass3_start);
  ExpectNoBookingsWhileDown();
}

// Counts the copy passes the engine hands to the fault oracle; never injects a fault.
class CountingOracle : public CopyFaultOracle {
 public:
  CopyFault OnCopyPassDone(NodeId, NodeId, uint64_t, int, SimTime) override {
    ++passes_seen_;
    return CopyFault::kNone;
  }

  int passes_seen_ = 0;
};

TEST_F(FabricEngineTest, RerouteBudgetSpentParksAtSourceWithoutOracle) {
  MigrationEngineConfig config;
  config.max_reroute_attempts = 0;
  engine_ = std::make_unique<MigrationEngine>(config, env_.get(), &stats_);
  CountingOracle oracle;
  engine_->set_fault_oracle(&oracle);
  Tracer tracer(MigrationTraceConfig());
  engine_->set_tracer(&tracer);

  const uint64_t fast_used = env_->memory_.node(kFastNode).used_pages();
  ASSERT_TRUE(Submit(0, kFastNode).admitted);
  // The link comes back before the pass finishes, so a re-route would find a path; the
  // spent budget alone parks the transaction.
  env_->queue_.ScheduleAt(kCopyTime / 2, [this](SimTime now) {
    TakeLinkDown(1, kLeafNode, /*until=*/now + kCopyTime);
  });
  env_->queue_.ScheduleAt(3 * kCopyTime / 2, [this](SimTime) { RestoreLink(1, kLeafNode); });
  Drain();

  EXPECT_EQ(stats_.reroutes, 0u);
  EXPECT_EQ(stats_.reroute_parks, 1u);
  EXPECT_EQ(stats_.TotalParked(), 1u);
  EXPECT_EQ(stats_.TotalCommitted(), 0u);
  EXPECT_EQ(stats_.copy_attempts, 1u);
  EXPECT_EQ(oracle.passes_seen_, 0);  // A failed leg never reaches the fault oracle.
  EXPECT_EQ(page(0).node, kLeafNode);
  EXPECT_FALSE(page(0).Has(kPageMigrating));
  EXPECT_EQ(env_->memory_.node(kFastNode).used_pages(), fast_used);
  EXPECT_EQ(engine_->inflight_reserved_pages(), 0u);
  EXPECT_EQ(engine_->inflight_transactions(), 0u);

  // No re-route was booked, so none is traced.
  EXPECT_TRUE(TracePayloadsB(tracer, TraceEventType::kMigrationReroute).empty());
  EXPECT_EQ(TracePayloadsB(tracer, TraceEventType::kMigrationPark),
            std::vector<uint64_t>{1});  // b = attempt.
  EXPECT_TRUE(TracePayloadsB(tracer, TraceEventType::kMigrationCopyFault).empty());
  EXPECT_TRUE(TracePayloadsB(tracer, TraceEventType::kMigrationDirtyAbort).empty());
  EXPECT_TRUE(TracePayloadsB(tracer, TraceEventType::kMigrationAbort).empty());
}

// --- scripted FabricFaultDriver events (exact times, no Rng draws) ---

TEST_F(FabricEngineTest, ScriptedLinkEventOpensWindowThenRestores) {
  FabricFaultPlan plan;
  FabricFaultPlan::LinkEvent ev;
  ev.at = kMillisecond;
  ev.lo = 0;
  ev.hi = 1;
  ev.down = true;
  ev.duration = 2 * kMillisecond;
  plan.link_events = {ev};

  FaultStats stats;
  FabricFaultDriver driver(plan, /*seed=*/7, /*start_after=*/0, &stats);
  driver.Arm(env_->queue_, env_->memory_, *engine_, /*evacuate=*/nullptr);
  const int edge = env_->memory_.topology().EdgeIndex(0, 1);
  ASSERT_GE(edge, 0);

  // Probe mid-window and after the restore event.
  env_->queue_.ScheduleAt(2 * kMillisecond, [this, edge](SimTime now) {
    EXPECT_EQ(env_->memory_.health().link(edge), LinkHealth::kDown);
    // The channel moves nothing until the window closes at 3 ms.
    EXPECT_EQ(engine_->channel_at(edge).Backlog(now), 3 * kMillisecond - now);
  });
  Drain();

  EXPECT_EQ(stats.links_down, 1u);
  EXPECT_EQ(stats.links_degraded, 0u);
  EXPECT_EQ(env_->memory_.health().link(edge), LinkHealth::kUp);
  EXPECT_EQ(engine_->channel_at(edge).Backlog(env_->queue_.now()), 0);
  ExpectNoBookingsWhileDown();
}

// --- endpoint hot-remove through the full machine ---

// No promotions, no hints: page placement comes from demand allocation alone, so the
// failing endpoint's population is owned entirely by the evacuation drain.
class NullPolicy : public TieringPolicy {
 public:
  std::string_view name() const override { return "null"; }
  void Attach(Machine&) override {}
  SimDuration OnHintFault(Process&, Vma&, PageInfo&, bool, SimTime) override { return 0; }
};

TEST(FabricMachineTest, ScriptedHotRemoveDrainsEndpointToOffline) {
  // Root and endpoint 1 fill first (zonelist order), so the scripted failure of endpoint 1
  // finds it populated; endpoint 2 has the headroom to absorb the drain.
  ExperimentConfig config;
  config.topology.tree = "(1,2,3)";
  config.topology.capacity_pages = {512, 2048, 2048};
  config.warmup = kSecond;
  config.measure = 4 * kSecond;
  config.audit_period = 250 * kMillisecond;
  config.fault.enabled = true;
  config.fault.seed = 7;
  FabricFaultPlan::EndpointEvent remove;
  remove.at = 2 * kSecond;
  remove.node = 1;
  remove.recover_after = 0;  // Permanent hot-remove.
  config.fault.fabric.endpoint_events = {remove};
  config.fault.fabric.endpoint_drain_deadline = 2 * kSecond;

  SegmentedConfig w;
  w.working_set_bytes = 2000 * kBasePageSize;  // Overflows the root into endpoint 1.
  w.read_ratio = 0.5;
  w.sequential_init = true;
  const ProcessSpec proc{"hotremove", [w] { return std::make_unique<SegmentedStream>(w); }};

  uint64_t resident_after = ~0ull;
  uint64_t inflight_after = ~0ull;
  EndpointHealth state_after = EndpointHealth::kHealthy;
  const ExperimentResult result = Experiment::Run(
      config, [] { return std::make_unique<NullPolicy>(); }, {proc},
      /*inspect=*/nullptr, [&](Machine& machine, ExperimentResult&) {
        state_after = machine.memory().health().endpoint(1);
        resident_after = machine.memory().node(1).allocated_pages();
        inflight_after = machine.migration().inflight_reserved_pages_on(1);
      });

  // The drain completed inside the deadline: endpoint empty, offline, nothing refused.
  EXPECT_EQ(state_after, EndpointHealth::kOffline);
  EXPECT_EQ(resident_after, 0u);
  EXPECT_EQ(inflight_after, 0u);
  EXPECT_EQ(result.endpoint_failures, 1u);
  EXPECT_GT(result.evacuated_pages, 0u);
  EXPECT_EQ(result.evacuation_refused, 0u);
  EXPECT_GT(result.audits_run, 0u);  // Experiment::Run CHECKs every audit stayed clean.
}

// --- fabric chaos determinism ---

// Promotes every non-fast unit each tick: constant multi-hop traffic for link faults to
// hit mid-flight.
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

struct FabricChaosOutcome {
  uint64_t commit_hash = 0;
  uint64_t committed = 0;
  uint64_t parked = 0;
  uint64_t reroutes = 0;
  uint64_t reroute_parks = 0;
  uint64_t links_down = 0;
  uint64_t links_degraded = 0;
  uint64_t endpoint_failures = 0;
  uint64_t evacuated_pages = 0;
  bool audit_clean = false;
};

FabricChaosOutcome RunFabricChaos(uint64_t seed, uint64_t fault_seed) {
  MachineConfig config;
  config.topology.tree = "(1,(2,3))";  // 0-1-2 chain: leaf promotions are multi-hop.
  config.topology.capacity_pages = {1024, 1024, 4096};
  config.audit_period = 250 * kMillisecond;
  config.fault.enabled = true;
  config.fault.seed = fault_seed;
  config.fault.start_after = 500 * kMillisecond;
  config.fault.fabric.link_fault_period = 200 * kMillisecond;
  config.fault.fabric.link_fault_fire_p = 0.7;
  config.fault.fabric.link_down_p = 0.5;
  config.fault.fabric.link_down_duration = 20 * kMillisecond;
  config.fault.fabric.link_degrade_duration = 40 * kMillisecond;
  config.fault.fabric.endpoint_fail_period = 1300 * kMillisecond;
  config.fault.fabric.endpoint_recovery_after = 300 * kMillisecond;

  Machine machine(config, std::make_unique<AsyncPromoteAllPolicy>());
  Process& process = machine.CreateProcess("fabric-chaos");
  SegmentedConfig w;
  w.working_set_bytes = 3000 * kBasePageSize;
  w.read_ratio = 0.5;
  w.sequential_init = true;
  machine.AttachWorkload(process, std::make_unique<SegmentedStream>(w), seed + 1);
  machine.Start();
  machine.Run(4 * kSecond);

  const MigrationStats& migration = machine.metrics().migration();
  const FaultStats& fault = machine.metrics().fault();
  FabricChaosOutcome outcome;
  outcome.commit_hash = migration.commit_sequence_hash;
  outcome.committed = migration.TotalCommitted();
  outcome.parked = migration.TotalParked();
  outcome.reroutes = migration.reroutes;
  outcome.reroute_parks = migration.reroute_parks;
  outcome.links_down = fault.links_down;
  outcome.links_degraded = fault.links_degraded;
  outcome.endpoint_failures = fault.endpoint_failures;
  outcome.evacuated_pages = fault.evacuated_pages;
  outcome.audit_clean = machine.AuditNow().clean();
  return outcome;
}

TEST(FabricChaosDeterminismTest, SameFabricSeedReproducesIdenticalRun) {
  const FabricChaosOutcome a = RunFabricChaos(42, 7);
  const FabricChaosOutcome b = RunFabricChaos(42, 7);

  // The fabric chaos actually happened, and the auditor (which checks offline-endpoint
  // emptiness and bookings-while-down) stayed clean throughout.
  EXPECT_GT(a.committed, 0u);
  EXPECT_GT(a.links_down + a.links_degraded, 0u);
  EXPECT_GT(a.endpoint_failures, 0u);
  EXPECT_TRUE(a.audit_clean);
  EXPECT_TRUE(b.audit_clean);

  // Bit-for-bit replay: the same fault seed reproduces the same commit interleaving and
  // every fabric counter.
  EXPECT_EQ(a.commit_hash, b.commit_hash);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.parked, b.parked);
  EXPECT_EQ(a.reroutes, b.reroutes);
  EXPECT_EQ(a.reroute_parks, b.reroute_parks);
  EXPECT_EQ(a.links_down, b.links_down);
  EXPECT_EQ(a.links_degraded, b.links_degraded);
  EXPECT_EQ(a.endpoint_failures, b.endpoint_failures);
  EXPECT_EQ(a.evacuated_pages, b.evacuated_pages);

  // A different fabric seed perturbs the fault schedule, hence the interleaving.
  const FabricChaosOutcome c = RunFabricChaos(42, 8);
  EXPECT_NE(a.commit_hash, c.commit_hash);
}

// --- MachineConfig validation: fabric plans need watermark headroom per endpoint ---

TEST(FabricValidateTest, FabricPlanRequiresEndpointWatermarkHeadroom) {
  MachineConfig config;
  config.topology.tree = "(1,2,3)";
  config.topology.capacity_pages = {1024, 1024, 8};  // Floors swallow the 8-page node.
  EXPECT_TRUE(config.Validate().empty());  // Fine without fault pressure on the floors.

  config.fault.enabled = true;
  FabricFaultPlan::EndpointEvent remove;
  remove.at = kSecond;
  remove.node = 1;
  config.fault.fabric.endpoint_events = {remove};
  const std::vector<std::string> errors = config.Validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("cannot honour its derived watermark floors"),
            std::string::npos);

  // Growing the endpoint past 4x its derived min floor clears the rejection.
  config.topology.capacity_pages = {1024, 1024, 64};
  EXPECT_TRUE(config.Validate().empty());
}

}  // namespace
}  // namespace chronotier
