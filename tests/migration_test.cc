// Unit tests for the migration subsystem: transactional copy semantics (dirty abort +
// bounded retry), admission control (per-class backlog limits, per-source throttling),
// bandwidth conservation on the copy channels, and deterministic replay.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/harness/machine.h"
#include "src/migration/migration_engine.h"
#include "src/topology/topology.h"
#include "src/trace/tracer.h"
#include "src/workloads/patterns.h"
#include "tests/engine_trace_testutil.h"

namespace chronotier {
namespace {

// Tiers with 1 ms per-base-page copy time so booking arithmetic is easy to read.
constexpr double kOnePagePerMs = static_cast<double>(kBasePageSize) * 1000.0;  // bytes/s
constexpr SimDuration kCopyTime = kMillisecond;

// Minimal MigrationEnv: applies committed moves to page metadata and records callbacks.
class StubEnv : public MigrationEnv {
 public:
  StubEnv(uint64_t fast_pages, uint64_t slow_pages)
      : memory_(MakeSpec(fast_pages, slow_pages)) {}
  // Topology-backed variant (routed multi-hop tests).
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

 private:
  // The two-tier star "(1,2)" with a 1 ms/page link on both nodes.
  static TopologySpec MakeSpec(uint64_t fast_pages, uint64_t slow_pages) {
    TopologySpec spec =
        TopologySpec::Star({TierSpec::Dram(fast_pages), TierSpec::OptanePmem(slow_pages)});
    spec.bandwidth = {kOnePagePerMs, kOnePagePerMs};
    return spec;
  }
};

// Engine + a VMA of base pages resident on the slow tier.
class MigrationEngineTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kNumPages = 64;

  void SetUp() override { Build(MigrationEngineConfig()); }

  void Build(MigrationEngineConfig config) {
    env_ = std::make_unique<StubEnv>(/*fast_pages=*/1024, /*slow_pages=*/4096);
    stats_ = MigrationStats();
    engine_ = std::make_unique<MigrationEngine>(config, env_.get(), &stats_);
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

  MigrationTicket SubmitAsync(uint64_t i, NodeId target = kFastNode,
                              MigrationSource source = MigrationSource::kPolicyDaemon) {
    return engine_->Submit(*vma_, page(i), target, MigrationClass::kAsync, source);
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

TEST_F(MigrationEngineTest, AsyncCommitAppliesMoveAndReleasesSourceFrames) {
  const uint64_t fast_used = env_->memory_.node(kFastNode).used_pages();
  const uint64_t slow_used = env_->memory_.node(kSlowNode).used_pages();

  const MigrationTicket ticket = SubmitAsync(0);
  ASSERT_TRUE(ticket.admitted);
  EXPECT_TRUE(page(0).Has(kPageMigrating));
  // Target frame reserved for the whole transaction; source still resident.
  EXPECT_EQ(env_->memory_.node(kFastNode).used_pages(), fast_used + 1);
  EXPECT_EQ(engine_->inflight_reserved_pages(), 1u);

  Drain();
  EXPECT_EQ(stats_.committed[static_cast<size_t>(MigrationClass::kAsync)], 1u);
  EXPECT_EQ(page(0).node, kFastNode);
  EXPECT_FALSE(page(0).Has(kPageMigrating));
  EXPECT_EQ(env_->memory_.node(kSlowNode).used_pages(), slow_used - 1);
  EXPECT_EQ(engine_->inflight_reserved_pages(), 0u);
  EXPECT_EQ(env_->applied_, 1u);
  EXPECT_EQ(env_->queue_.now(), kCopyTime);
}

TEST_F(MigrationEngineTest, ConcurrentStoreAbortsCopyThenRetryCommits) {
  ASSERT_TRUE(SubmitAsync(0).admitted);
  // A store lands mid-copy (the copy window is [0, 1ms] on an idle channel).
  env_->queue_.ScheduleAt(kCopyTime / 2, [this](SimTime) { ++page(0).write_gen; });
  Drain();

  EXPECT_EQ(stats_.dirty_aborted_copies, 1u);
  EXPECT_EQ(stats_.copy_attempts, 2u);
  EXPECT_EQ(stats_.committed[static_cast<size_t>(MigrationClass::kAsync)], 1u);
  EXPECT_EQ(stats_.TotalAborted(), 0u);
  EXPECT_EQ(stats_.retry_histogram[2], 1u);  // Committed on the second pass.
  EXPECT_DOUBLE_EQ(stats_.MeanAttemptsPerCommit(), 2.0);
  EXPECT_EQ(page(0).node, kFastNode);
}

TEST_F(MigrationEngineTest, QueueingDelayIsNotPartOfTheDirtyWindow) {
  // Two transactions: the second queues behind the first for 1ms. A store to the second's
  // page while it is still *queued* must not abort it — only stores inside its own copy
  // window [1ms, 2ms] can.
  ASSERT_TRUE(SubmitAsync(0).admitted);
  ASSERT_TRUE(SubmitAsync(1).admitted);
  env_->queue_.ScheduleAt(kCopyTime / 2, [this](SimTime) { ++page(1).write_gen; });
  Drain();

  EXPECT_EQ(stats_.dirty_aborted_copies, 0u);
  EXPECT_EQ(stats_.TotalCommitted(), 2u);
  EXPECT_EQ(page(1).node, kFastNode);
}

TEST_F(MigrationEngineTest, RetriesExhaustedFinalAbortReleasesReservedFrames) {
  const uint64_t fast_used = env_->memory_.node(kFastNode).used_pages();
  ASSERT_TRUE(SubmitAsync(0).admitted);
  // A hot writer: dirties the page every 100us, inside every copy window.
  const EventId writer = env_->queue_.SchedulePeriodic(
      100 * kMicrosecond, [this](SimTime) { ++page(0).write_gen; });
  env_->queue_.RunUntil(50 * kMillisecond);
  env_->queue_.Cancel(writer);

  EXPECT_EQ(stats_.aborted[static_cast<size_t>(MigrationClass::kAsync)], 1u);
  EXPECT_EQ(stats_.TotalCommitted(), 0u);
  EXPECT_EQ(stats_.copy_attempts,
            static_cast<uint64_t>(MigrationEngine::kMaxCopyAttempts));
  EXPECT_EQ(stats_.dirty_aborted_copies, stats_.copy_attempts);
  EXPECT_EQ(page(0).node, kSlowNode);           // Never moved.
  EXPECT_FALSE(page(0).Has(kPageMigrating));    // Transaction retired.
  EXPECT_EQ(env_->memory_.node(kFastNode).used_pages(), fast_used);  // Frames released.
  EXPECT_EQ(engine_->inflight_reserved_pages(), 0u);
}

TEST_F(MigrationEngineTest, DirtyAbortsBackOffExponentiallyAndTraceTheirAttempt) {
  Tracer tracer(MigrationTraceConfig());
  engine_->set_tracer(&tracer);
  ASSERT_TRUE(SubmitAsync(0).admitted);
  const EventId writer = env_->queue_.SchedulePeriodic(
      100 * kMicrosecond, [this](SimTime) { ++page(0).write_gen; });
  env_->queue_.RunUntil(50 * kMillisecond);
  env_->queue_.Cancel(writer);

  EXPECT_EQ(stats_.aborted[static_cast<size_t>(MigrationClass::kAsync)], 1u);
  EXPECT_EQ(TracePayloadsB(tracer, TraceEventType::kMigrationDirtyAbort),
            (std::vector<uint64_t>{1, 2, 3}));  // b = attempt.
  EXPECT_EQ(TracePayloadsB(tracer, TraceEventType::kMigrationAbort),
            std::vector<uint64_t>{3});  // b = attempts used.
  EXPECT_TRUE(TracePayloadsB(tracer, TraceEventType::kMigrationPark).empty());
  EXPECT_TRUE(TracePayloadsB(tracer, TraceEventType::kMigrationCopyFault).empty());

  // Pass k (k >= 2) books no earlier than kRetryBackoff * 2^(k-2) after pass k-1 ends.
  std::vector<SimTime> dirty_at;
  std::vector<SimTime> copy_at;
  tracer.ForEachEvent([&](const TraceEvent& event) {
    if (event.type == TraceEventType::kMigrationDirtyAbort) dirty_at.push_back(event.ts);
    if (event.type == TraceEventType::kMigrationCopy) copy_at.push_back(event.ts);
  });
  const SimDuration backoff = MigrationEngine::kRetryBackoff;
  ASSERT_EQ(dirty_at.size(), 3u);
  ASSERT_EQ(copy_at.size(), 3u);
  EXPECT_EQ(copy_at[0], 0);
  EXPECT_EQ(dirty_at[0], kCopyTime);
  EXPECT_EQ(copy_at[1], dirty_at[0] + backoff);
  EXPECT_EQ(dirty_at[1], copy_at[1] + kCopyTime);
  EXPECT_EQ(copy_at[2], dirty_at[1] + 2 * backoff);
  EXPECT_EQ(dirty_at[2], copy_at[2] + kCopyTime);
}

TEST_F(MigrationEngineTest, BacklogRefusesSyncBeforeAsync) {
  MigrationEngineConfig config;
  config.sync_slack = 2 * kMillisecond;
  config.async_backlog_limit = 4 * kMillisecond;
  Build(config);

  // Fill the channel: five 1ms copies are admitted (backlogs seen: 0..4ms), the sixth
  // async sees 5ms > 4ms and is refused.
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(SubmitAsync(i).admitted) << i;
  }
  const MigrationTicket async6 = SubmitAsync(5);
  EXPECT_FALSE(async6.admitted);
  EXPECT_EQ(async6.refusal, MigrationRefusal::kBacklog);

  // A sync fault-path promotion tolerates far less backlog and is refused too.
  const MigrationTicket sync = engine_->Submit(*vma_, page(6), kFastNode,
                                               MigrationClass::kSync,
                                               MigrationSource::kFaultPath, 0);
  EXPECT_FALSE(sync.admitted);
  EXPECT_EQ(sync.refusal, MigrationRefusal::kBacklog);
  EXPECT_EQ(sync.sync_latency, 0);

  // Reclaim demotions keep their generous limit: kswapd must make forward progress.
  const MigrationTicket reclaim = engine_->Submit(*vma_, page(7), kSlowNode,
                                                  MigrationClass::kReclaim,
                                                  MigrationSource::kReclaimDaemon, 0);
  EXPECT_EQ(reclaim.refusal, MigrationRefusal::kInvalid);  // Already on the slow node.
  const MigrationTicket reclaim_ok =
      engine_->Submit(*vma_, page(8), kFastNode, MigrationClass::kReclaim,
                      MigrationSource::kReclaimDaemon, 0);
  EXPECT_TRUE(reclaim_ok.admitted);

  EXPECT_EQ(stats_.refused[static_cast<size_t>(MigrationRefusal::kBacklog)], 2u);
}

TEST_F(MigrationEngineTest, ConcurrentCopiesConserveChannelBandwidth) {
  constexpr uint64_t kBatch = 4;
  for (uint64_t i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(SubmitAsync(i).admitted);
  }
  Drain();

  // FIFO booking on a finite-bandwidth channel: N concurrent 1ms copies take N ms of wall
  // clock and exactly N ms of channel busy time — no copy ever saw the full bandwidth
  // "for free" alongside another.
  EXPECT_EQ(env_->queue_.now(), kBatch * kCopyTime);
  EXPECT_EQ(engine_->channel(kSlowNode, kFastNode).busy_time(), kBatch * kCopyTime);
  EXPECT_EQ(stats_.channel_busy, kBatch * kCopyTime);
  EXPECT_EQ(stats_.TotalCommitted(), kBatch);
  // Both directions share the unordered-pair channel.
  EXPECT_EQ(&engine_->channel(kFastNode, kSlowNode),
            &engine_->channel(kSlowNode, kFastNode));
  EXPECT_EQ(engine_->num_channels(), 1);
}

TEST_F(MigrationEngineTest, PerSourceThrottlingCapsInflightPages) {
  MigrationEngineConfig config;
  config.source_inflight_page_limit = 2;
  Build(config);

  EXPECT_TRUE(SubmitAsync(0).admitted);
  EXPECT_TRUE(SubmitAsync(1).admitted);
  const MigrationTicket third = SubmitAsync(2);
  EXPECT_FALSE(third.admitted);
  EXPECT_EQ(third.refusal, MigrationRefusal::kSourceThrottled);

  // A different source is throttled independently.
  EXPECT_TRUE(SubmitAsync(3, kFastNode, MigrationSource::kFaultPath).admitted);

  Drain();
  // Retired transactions free their source budget again.
  EXPECT_TRUE(SubmitAsync(2).admitted);
}

TEST_F(MigrationEngineTest, DuplicateAndInvalidSubmissionsAreRefused) {
  ASSERT_TRUE(SubmitAsync(0).admitted);
  const MigrationTicket dup = SubmitAsync(0);
  EXPECT_FALSE(dup.admitted);
  EXPECT_EQ(dup.refusal, MigrationRefusal::kAlreadyInFlight);

  const MigrationTicket same_node = SubmitAsync(1, kSlowNode);
  EXPECT_EQ(same_node.refusal, MigrationRefusal::kInvalid);

  PageInfo& absent = page(2);
  absent.ClearFlag(kPagePresent);
  EXPECT_EQ(SubmitAsync(2).refusal, MigrationRefusal::kInvalid);
  absent.Set(kPagePresent);
}

TEST_F(MigrationEngineTest, SyncSubmitCommitsInlineAndChargesFullLatency) {
  const MigrationTicket ticket =
      engine_->Submit(*vma_, page(0), kFastNode, MigrationClass::kSync,
                      MigrationSource::kFaultPath, 0);
  ASSERT_TRUE(ticket.admitted);
  // The faulting access stalls for queueing (none here) + copy + remap overhead.
  EXPECT_EQ(ticket.sync_latency,
            kCopyTime + TieredMemory::kMigrationSoftwareOverhead);
  EXPECT_EQ(page(0).node, kFastNode);
  EXPECT_FALSE(page(0).Has(kPageMigrating));
  EXPECT_EQ(stats_.committed[static_cast<size_t>(MigrationClass::kSync)], 1u);
  EXPECT_EQ(env_->queue_.pending(), 0u);  // Nothing deferred.
}

TEST_F(MigrationEngineTest, EndpointInflightLimitRefusesWhenSaturated) {
  MigrationEngineConfig config;
  config.endpoint_inflight_page_limit = 2;
  Build(config);
  ASSERT_TRUE(SubmitAsync(0).admitted);
  ASSERT_TRUE(SubmitAsync(1).admitted);
  EXPECT_EQ(engine_->inflight_reserved_pages_on(kFastNode), 2u);

  // The third async promotion would push reserved pages on the fast node past the limit.
  const MigrationTicket third = SubmitAsync(2);
  EXPECT_FALSE(third.admitted);
  EXPECT_EQ(third.refusal, MigrationRefusal::kEndpointSaturated);
  EXPECT_EQ(stats_.refused[static_cast<size_t>(MigrationRefusal::kEndpointSaturated)], 1u);

  // Sync (fault-path) migrations are not subject to the async endpoint limit.
  EXPECT_TRUE(engine_
                  ->Submit(*vma_, page(3), kFastNode, MigrationClass::kSync,
                           MigrationSource::kFaultPath, 0)
                  .admitted);

  // Once the in-flight work commits, the endpoint frees up and admission resumes.
  Drain();
  EXPECT_EQ(engine_->inflight_reserved_pages_on(kFastNode), 0u);
  EXPECT_TRUE(SubmitAsync(2).admitted);
}

// --- Routed multi-hop copies over a parsed topology ---

// A 0-1-2 chain ("(1,(2,3))") with a 1 ms/page link everywhere: a copy from node 2 to
// node 0 has no direct channel and must route through node 1.
TieredMemory MakeChainMemory() {
  TopologySpec spec;
  spec.tree = "(1,(2,3))";
  spec.capacity_pages = {1024, 1024, 4096};
  spec.bandwidth = {kOnePagePerMs, kOnePagePerMs, kOnePagePerMs};
  return TieredMemory(spec);
}

class RoutedMigrationTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kNumPages = 16;
  static constexpr NodeId kLeafNode = 2;

  void SetUp() override {
    env_ = std::make_unique<StubEnv>(MakeChainMemory());
    engine_ = std::make_unique<MigrationEngine>(MigrationEngineConfig(), env_.get(),
                                                &stats_);
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

TEST_F(RoutedMigrationTest, MultiHopCopyBooksEveryTraversedLink) {
  ASSERT_TRUE(engine_
                  ->Submit(*vma_, page(0), kFastNode, MigrationClass::kAsync,
                           MigrationSource::kPolicyDaemon)
                  .admitted);
  Drain();
  EXPECT_EQ(page(0).node, kFastNode);
  EXPECT_EQ(stats_.multi_hop_copies, 1u);
  EXPECT_EQ(stats_.multi_hop_legs, 2u);

  // One channel per topology edge (0-1, 1-2) — not one per node pair (three).
  EXPECT_EQ(engine_->num_channels(), 2);
  // Every traversed link booked the copy: bandwidth is conserved per link, and the
  // store-and-forward legs mean the commit lands no earlier than both legs' service.
  EXPECT_EQ(engine_->channel(kLeafNode, 1).busy_time(), kCopyTime);
  EXPECT_EQ(engine_->channel(1, kFastNode).busy_time(), kCopyTime);
  EXPECT_EQ(stats_.channel_busy, 2 * kCopyTime);
  EXPECT_GE(env_->queue_.now(), 2 * kCopyTime);

  // Congestion accounting: the relay node carried the bytes of both legs, the ends one
  // leg each.
  EXPECT_EQ(env_->memory_.congestion(1).migration_bytes(), 2 * kBasePageSize);
  EXPECT_EQ(env_->memory_.congestion(kFastNode).migration_bytes(), kBasePageSize);
  EXPECT_EQ(env_->memory_.congestion(kLeafNode).migration_bytes(), kBasePageSize);
}

TEST_F(RoutedMigrationTest, MidRouteDirtyAbortChargesEveryTraversedLeg) {
  // A store-and-forward pass books both legs up front: 2->1 over [0, 1ms], 1->0 over
  // [1ms, 2ms]. A store landing at 1.5ms — after the first leg delivered but before the
  // second finished — invalidates the *whole* pass at its copy-done check.
  ASSERT_TRUE(engine_
                  ->Submit(*vma_, page(0), kFastNode, MigrationClass::kAsync,
                           MigrationSource::kPolicyDaemon)
                  .admitted);
  env_->queue_.ScheduleAt(3 * kCopyTime / 2, [this](SimTime) { ++page(0).write_gen; });
  Drain();

  // One dirty-aborted pass plus one clean retry, both routed over two legs.
  EXPECT_EQ(stats_.dirty_aborted_copies, 1u);
  EXPECT_EQ(stats_.copy_attempts, 2u);
  EXPECT_EQ(stats_.TotalCommitted(), 1u);
  EXPECT_EQ(stats_.multi_hop_copies, 2u);
  EXPECT_EQ(stats_.multi_hop_legs, 4u);
  EXPECT_EQ(page(0).node, kFastNode);
  EXPECT_EQ(engine_->inflight_reserved_pages(), 0u);

  // The aborted pass pays full fare on every traversed channel: its legs were booked (and
  // the relay's bytes moved) before the staleness was known, so nothing is refunded.
  EXPECT_EQ(engine_->channel(kLeafNode, 1).busy_time(), 2 * kCopyTime);
  EXPECT_EQ(engine_->channel(1, kFastNode).busy_time(), 2 * kCopyTime);
  EXPECT_EQ(stats_.channel_busy, 4 * kCopyTime);
  EXPECT_EQ(stats_.copied_bytes, 2 * kBasePageSize);  // Per pass, not per leg.

  // Both endpoint congestion cursors of every leg were charged: the ends carry one leg
  // per pass, the relay two.
  EXPECT_EQ(env_->memory_.congestion(kLeafNode).migration_bytes(), 2 * kBasePageSize);
  EXPECT_EQ(env_->memory_.congestion(kFastNode).migration_bytes(), 2 * kBasePageSize);
  EXPECT_EQ(env_->memory_.congestion(1).migration_bytes(), 4 * kBasePageSize);

  // Conservation across the fabric: every leg has exactly two ends, so the per-endpoint
  // byte counters must sum to 2 * legs * bytes-per-pass.
  uint64_t endpoint_bytes = 0;
  for (NodeId id = 0; id < env_->memory_.num_nodes(); ++id) {
    endpoint_bytes += env_->memory_.congestion(id).migration_bytes();
  }
  EXPECT_EQ(endpoint_bytes, 2 * stats_.multi_hop_legs * kBasePageSize);
}

TEST_F(RoutedMigrationTest, ConcurrentMultiHopCopiesConserveEveryLinksBandwidth) {
  constexpr uint64_t kBatch = 4;
  for (uint64_t i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(engine_
                    ->Submit(*vma_, page(i), kFastNode, MigrationClass::kAsync,
                             MigrationSource::kPolicyDaemon)
                    .admitted);
  }
  Drain();
  EXPECT_EQ(stats_.multi_hop_copies, kBatch);
  EXPECT_EQ(stats_.multi_hop_legs, 2 * kBatch);
  // FIFO booking on both links: each serves the batch serially, so each accumulates
  // exactly kBatch copy times of busy time — no copy ever bypassed a traversed link.
  EXPECT_EQ(engine_->channel(kLeafNode, 1).busy_time(), kBatch * kCopyTime);
  EXPECT_EQ(engine_->channel(1, kFastNode).busy_time(), kBatch * kCopyTime);
  EXPECT_EQ(stats_.channel_busy, 2 * kBatch * kCopyTime);
  for (uint64_t i = 0; i < kBatch; ++i) {
    EXPECT_EQ(page(i).node, kFastNode);
  }
}

// --- Deterministic replay through the full harness ---

// Promotes every slow-tier unit asynchronously once per 100ms tick — enough traffic to
// exercise submission, queueing, dirty aborts and commits end to end.
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

struct ReplayOutcome {
  uint64_t commit_hash = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t promoted = 0;
};

ReplayOutcome RunReplay(uint64_t seed) {
  MachineConfig config = MachineConfig::StandardTwoTier(4096, 0.25);
  config.bandwidth_scale = 64;
  Machine machine(config, std::make_unique<AsyncPromoteAllPolicy>());
  Process& process = machine.CreateProcess("app");
  UniformConfig w;
  w.working_set_bytes = 3000 * kBasePageSize;  // Overflows the 1024-page fast tier.
  w.read_ratio = 0.5;                          // Write-heavy: provoke dirty aborts.
  w.sequential_init = true;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), seed + 1);
  machine.Start();
  machine.Run(5 * kSecond);

  const MigrationStats& migration = machine.metrics().migration();
  return {migration.commit_sequence_hash, migration.TotalCommitted(),
          migration.TotalAborted(), machine.metrics().promoted_pages()};
}

TEST(MigrationReplayTest, SameSeedProducesIdenticalCommitSequence) {
  const ReplayOutcome a = RunReplay(42);
  const ReplayOutcome b = RunReplay(42);
  EXPECT_GT(a.committed, 0u);
  EXPECT_EQ(a.commit_hash, b.commit_hash);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.promoted, b.promoted);

  // A different seed must produce a different interleaving (hash collision is 2^-64).
  const ReplayOutcome c = RunReplay(43);
  EXPECT_NE(a.commit_hash, c.commit_hash);
}

}  // namespace
}  // namespace chronotier
