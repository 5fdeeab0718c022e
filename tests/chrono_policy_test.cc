// End-to-end behavioural tests for ChronoPolicy: CIT measurement through the machine,
// candidate filtering, promotion, demotion with the pro watermark, thrash response, DCSC
// tuning, and huge-page support.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/chrono_policy.h"
#include "src/harness/machine.h"
#include "src/workloads/patterns.h"

namespace chronotier {
namespace {

ChronoConfig TestChronoConfig() {
  ChronoConfig config = ChronoConfig::Full();
  config.geometry.scan_period = 2 * kSecond;
  config.geometry.scan_step_pages = 512;
  config.min_victims_per_process = 32;
  return config;
}

struct ChronoRig {
  std::unique_ptr<Machine> machine;
  ChronoPolicy* chrono = nullptr;
  Process* process = nullptr;
  HotsetStream* stream = nullptr;
};

ChronoRig MakeRig(ChronoConfig config = TestChronoConfig(), uint64_t machine_pages = 4096,
                  PageSizeKind kind = PageSizeKind::kBase) {
  ChronoRig rig;
  MachineConfig machine_config = MachineConfig::StandardTwoTier(machine_pages, 0.25);
  machine_config.bandwidth_scale = 64.0;
  // Policy and tuning events only: the queue and DCSC tests read Chrono's decisions here.
  machine_config.trace.enabled = true;
  machine_config.trace.categories =
      TraceCategoryBit(TraceCategory::kPolicy) | TraceCategoryBit(TraceCategory::kTuning);
  machine_config.trace.provenance_sample_period = 0;
  machine_config.trace.telemetry_period = 0;
  auto policy = std::make_unique<ChronoPolicy>(config);
  rig.chrono = policy.get();
  rig.machine = std::make_unique<Machine>(machine_config, std::move(policy));
  rig.process = &rig.machine->CreateProcess("app");
  rig.process->set_default_page_kind(kind);
  HotsetConfig w;
  w.working_set_bytes = machine_pages / 2 * kBasePageSize;
  w.hot_fraction = 0.2;
  w.hot_access_fraction = 0.9;
  w.per_op_delay = kMicrosecond;
  w.sequential_init = true;
  auto stream = std::make_unique<HotsetStream>(w);
  rig.stream = stream.get();
  rig.machine->AttachWorkload(*rig.process, std::move(stream), 31);
  rig.machine->Start();
  return rig;
}

// Events of `type` in the rig's trace; `sum_a` adds up their `a` payloads instead.
uint64_t CountTraced(ChronoRig& rig, TraceEventType type, bool sum_a = false) {
  const Tracer& tracer = *rig.machine->tracer();
  EXPECT_EQ(tracer.overwritten(), 0u) << "trace ring too small for the count";
  uint64_t total = 0;
  tracer.ForEachEvent([&](const TraceEvent& event) {
    if (event.type == type) {
      total += sum_a ? event.a : 1;
    }
  });
  return total;
}

// Units DCSC holds as victims right now (PG_probed set).
std::vector<const PageInfo*> ProbedUnits(ChronoRig& rig) {
  std::vector<const PageInfo*> probed;
  rig.process->aspace().ForEachPage([&](Vma&, PageInfo& page) {
    if (page.Has(kPageProbed)) {
      probed.push_back(&page);
    }
  });
  return probed;
}

TEST(ChronoPolicyTest, MeasuresCitOnSlowPages) {
  ChronoRig rig = MakeRig();
  int observations = 0;
  uint32_t max_cit = 0;
  rig.chrono->set_cit_observer([&](const PageInfo& page, uint32_t cit_ms) {
    ++observations;
    max_cit = std::max(max_cit, cit_ms);
    EXPECT_NE(page.node, kFastNode);  // CIT is measured for slow-tier pages.
  });
  rig.machine->Run(6 * kSecond);
  EXPECT_GT(observations, 100);
  EXPECT_GT(max_cit, 0u);
}

TEST(ChronoPolicyTest, PromotesThroughQueueAsynchronously) {
  ChronoRig rig = MakeRig();
  rig.machine->Run(10 * kSecond);
  EXPECT_GT(rig.machine->metrics().promoted_pages(), 0u);
  EXPECT_GT(CountTraced(rig, TraceEventType::kPolicyEnqueue), 0u);
  EXPECT_GT(CountTraced(rig, TraceEventType::kPolicyPromote), 0u);
}

TEST(ChronoPolicyTest, PromotionsRespectRateLimit) {
  ChronoConfig config = TestChronoConfig();
  config.tuning = ChronoTuningMode::kSemiAuto;  // Fixed rate limit.
  config.initial_rate_limit_mbps = 8.0;         // 2048 pages/s.
  ChronoRig rig = MakeRig(config);
  rig.machine->Run(4 * kSecond);
  // Pages the drain submits (each promote event's `a`) cannot exceed rate * elapsed, with
  // one drain tick of slack.
  const double max_pages = ChronoConfig::PagesPerSecond(8.0) * 4.2;
  const uint64_t submitted = CountTraced(rig, TraceEventType::kPolicyPromote, /*sum_a=*/true);
  EXPECT_GT(submitted, 0u);
  EXPECT_LE(static_cast<double>(submitted), max_pages);
}

TEST(ChronoPolicyTest, ProWatermarkRaisesDemotionTarget) {
  ChronoRig rig = MakeRig();
  rig.machine->Run(5 * kSecond);
  const MemoryTier& fast = rig.machine->memory().node(kFastNode);
  EXPECT_GT(fast.watermarks().pro, fast.watermarks().high);
  EXPECT_EQ(rig.chrono->DemotionRefillTarget(fast), fast.watermarks().pro);
}

TEST(ChronoPolicyTest, DemotedPagesArePoisonedAndStamped) {
  ChronoRig rig = MakeRig();
  rig.machine->Run(15 * kSecond);
  ASSERT_GT(rig.machine->metrics().demoted_pages(), 0u);
  // Find a demoted page that has not yet refaulted: it must be poisoned with a timestamp.
  bool found = false;
  rig.process->aspace().ForEachPage([&](Vma&, PageInfo& page) {
    if (page.Has(kPageDemoted) && page.prot_none()) {
      EXPECT_TRUE(HasScanTimestamp(page));
      found = true;
    }
  });
  // Churny runs may have consumed all demoted flags; only assert when one is present.
  (void)found;
}

TEST(ChronoPolicyTest, DcscConvergesThresholdDownward) {
  ChronoRig rig = MakeRig();
  const uint32_t initial = rig.chrono->cit_threshold_ms();
  rig.machine->Run(20 * kSecond);
  EXPECT_LT(rig.chrono->cit_threshold_ms(), initial);
  // In DCSC mode only a valid aggregation (at least 8 measurements per tier) traces a
  // tuning update; one lands every 5 s here.
  EXPECT_GE(CountTraced(rig, TraceEventType::kTuningUpdate), 3u);
}

TEST(ChronoPolicyTest, PlacesHotSetBetterThanCapacityBaseline) {
  ChronoRig rig = MakeRig();
  // 60 DCSC ticks at the 1 s period: DCSC needs about 50 s to bring the CIT threshold down
  // from its 1 s start in this rig.
  rig.machine->Run(60 * kSecond);
  // Hot pages should dominate the fast tier well beyond their 20% share of memory (random
  // placement would give 0.2; all-hot-in-fast gives hot/fast-capacity = 0.4).
  const uint64_t hot_lo = rig.stream->region_start_vpn() + rig.stream->current_hot_base();
  const uint64_t hot_hi = hot_lo + rig.stream->hot_pages();
  uint64_t fast = 0;
  uint64_t fast_hot = 0;
  rig.process->aspace().ForEachPage([&](Vma& vma, PageInfo& page) {
    PageInfo& unit = vma.HotnessUnit(page.vpn);
    if (unit.present() && unit.node == kFastNode) {
      ++fast;
      fast_hot += (page.vpn >= hot_lo && page.vpn < hot_hi) ? 1 : 0;
    }
  });
  ASSERT_GT(fast, 0u);
  EXPECT_GT(static_cast<double>(fast_hot) / static_cast<double>(fast), 0.3);
  EXPECT_GT(rig.machine->metrics().Fmar(), 0.5);
}

TEST(ChronoPolicyTest, SemiAutoAdjustsThresholdWithoutDcsc) {
  ChronoConfig config = TestChronoConfig();
  config.tuning = ChronoTuningMode::kSemiAuto;
  ChronoRig rig = MakeRig(config);
  const uint32_t initial = rig.chrono->cit_threshold_ms();
  rig.machine->Run(12 * kSecond);
  EXPECT_NE(rig.chrono->cit_threshold_ms(), initial);
  EXPECT_TRUE(ProbedUnits(rig).empty());  // DCSC daemon not running: no victim probed.
}

TEST(ChronoPolicyTest, SemiAutoKeepsUserRateLimit) {
  // The semi-auto controller tunes only the CIT threshold; the one thing that moves the
  // user's rate limit is thrash halving (clamped at the floor). So every reading is
  // 48 / 2^k for some k >= 0, or the floor.
  ChronoConfig config = TestChronoConfig();
  config.tuning = ChronoTuningMode::kSemiAuto;
  config.initial_rate_limit_mbps = 48.0;
  ChronoRig rig = MakeRig(config);
  for (int second = 0; second < 10; ++second) {
    rig.machine->Run(kSecond);
    const double rate = rig.chrono->rate_limit_mbps();
    double halved = 48.0;
    while (halved > rate && halved > ChronoConfig::kMinRateLimitMbps) {
      halved = std::max(halved / 2.0, ChronoConfig::kMinRateLimitMbps);
    }
    EXPECT_DOUBLE_EQ(rate, halved) << "after " << second + 1 << " s";
  }
}

TEST(ChronoPolicyTest, ThrashHalvesRateLimit) {
  ChronoConfig config = TestChronoConfig();
  config.tuning = ChronoTuningMode::kSemiAuto;
  config.initial_rate_limit_mbps = 512.0;  // Absurdly high: guarantees churn + thrash.
  ChronoRig rig = MakeRig(config);
  rig.machine->Run(20 * kSecond);
  if (rig.machine->metrics().thrash_events() > 0) {
    EXPECT_LT(rig.chrono->rate_limit_mbps(), 512.0);
  }
}

TEST(ChronoPolicyTest, HugePageUnitsUseScaledThreshold) {
  ChronoConfig config = TestChronoConfig();
  ChronoRig rig = MakeRig(config, /*machine_pages=*/16384, PageSizeKind::kHuge);
  int huge_observations = 0;
  rig.chrono->set_cit_observer([&](const PageInfo& page, uint32_t) {
    if (page.huge_head()) {
      ++huge_observations;
    }
  });
  rig.machine->Run(10 * kSecond);
  EXPECT_GT(huge_observations, 0);
}

TEST(ChronoPolicyTest, VariantsRunEndToEnd) {
  for (ChronoConfig config : {ChronoConfig::Basic(), ChronoConfig::Twice(),
                              ChronoConfig::Thrice(), ChronoConfig::Manual(32.0)}) {
    config.geometry.scan_period = 2 * kSecond;
    config.geometry.scan_step_pages = 512;
    ChronoRig rig = MakeRig(config);
    rig.machine->Run(8 * kSecond);
    EXPECT_GT(rig.machine->metrics().total_ops(), 0u);
  }
}

TEST(ChronoPolicyTest, CandidateSetMemoryStaysSmall) {
  ChronoRig rig = MakeRig();
  rig.machine->Run(10 * kSecond);
  // Paper Section 4: < 32 KB per active process across its lifetime.
  EXPECT_LT(rig.chrono->candidate_filter().MemoryUsageBytes(), 64u * 1024);
}

TEST(ChronoPolicyTest, TunedValuesStayWithinBounds) {
  // DCSC moves both the CIT threshold and the rate limit; thrash halving moves the rate
  // limit. Neither leaves the ChronoConfig bounds.
  ChronoConfig config = TestChronoConfig();
  config.initial_rate_limit_mbps = 2048.0;
  ChronoRig rig = MakeRig(config);
  for (int second = 0; second < 20; ++second) {
    rig.machine->Run(kSecond);
    EXPECT_GE(rig.chrono->cit_threshold_ms(),
              static_cast<uint32_t>(ChronoConfig::kMinCitThreshold / kMillisecond));
    EXPECT_LE(rig.chrono->cit_threshold_ms(),
              static_cast<uint32_t>(ChronoConfig::kMaxCitThreshold / kMillisecond));
    EXPECT_GE(rig.chrono->rate_limit_mbps(), ChronoConfig::kMinRateLimitMbps);
    EXPECT_LE(rig.chrono->rate_limit_mbps(), ChronoConfig::kMaxRateLimitMbps);
  }
}

TEST(ChronoPolicyTest, DcscVictimsAreProbedAndReleased) {
  ChronoRig rig = MakeRig();
  rig.machine->Run(2 * kSecond);
  const std::vector<const PageInfo*> early = ProbedUnits(rig);
  EXPECT_FALSE(early.empty());
  rig.machine->Run(3 * kSecond);
  // Victims probed by 2 s cannot expire before 7 s (the 5 s max age), so each one
  // released by 5 s completed its measurement.
  const size_t released = static_cast<size_t>(std::count_if(
      early.begin(), early.end(), [](const PageInfo* page) { return !page->Has(kPageProbed); }));
  EXPECT_GT(released, 0u);
  // Probed flags must not leak without bound: pending victims stay bounded by a few rounds
  // of the per-process victim quota.
  EXPECT_LT(ProbedUnits(rig).size(), 1000u);
}

}  // namespace
}  // namespace chronotier
