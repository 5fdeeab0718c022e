// Unit tests for Chrono's core components: CIT, candidate filter, promotion queue,
// semi-auto controller, DCSC, thrashing monitor, and config variants.

#include <gtest/gtest.h>

#include "src/core/candidate_filter.h"
#include "src/core/chrono_config.h"
#include "src/core/cit.h"
#include "src/core/dcsc.h"
#include "src/core/promotion_queue.h"
#include "src/core/thrash_monitor.h"
#include "src/core/tuning.h"

namespace chronotier {
namespace {

// --- CIT primitives ---

TEST(CitTest, StampAndCompute) {
  PageInfo page;
  EXPECT_FALSE(HasScanTimestamp(page));
  StampScanTimestamp(page, 5 * kSecond);
  EXPECT_TRUE(HasScanTimestamp(page));
  EXPECT_EQ(page.scan_ts_ms, 5000u);
  EXPECT_EQ(ComputeCitMillis(page, 5 * kSecond + 123 * kMillisecond), 123u);
  EXPECT_EQ(ComputeCitMillis(page, 5 * kSecond), 0u);
}

TEST(CitTest, MillisecondResolutionFloors) {
  PageInfo page;
  StampScanTimestamp(page, 0);
  // Sub-millisecond idle times are indistinguishable from zero — the paper's 1000
  // accesses/sec measurement ceiling.
  EXPECT_EQ(ComputeCitMillis(page, 900 * kMicrosecond), 0u);
  EXPECT_EQ(ComputeCitMillis(page, 1100 * kMicrosecond), 1u);
}

TEST(CitTest, HugePageThresholdScaling) {
  // TH(2MB) = TH(4KB)/512; TH(1GB) = TH(4KB)/512^2 (floored at 1 ms).
  EXPECT_EQ(EffectiveThresholdMillis(1024000, kBasePagesPerHugePage), 2000u);
  EXPECT_EQ(EffectiveThresholdMillis(1000, kBasePagesPerHugePage), 1u);
  EXPECT_EQ(EffectiveThresholdMillis(1000, 1), 1000u);
}

// --- candidate filter ---

TEST(CandidateFilterTest, TwoRoundAdmission) {
  CandidateFilter filter(2);
  PageInfo page;
  page.vpn = 42;
  page.owner = 1;

  EXPECT_EQ(filter.RecordQualifyingCit(page, 10), CandidateFilter::Outcome::kBecameCandidate);
  EXPECT_TRUE(page.Has(kPageCandidate));
  EXPECT_EQ(filter.size(), 1u);
  EXPECT_EQ(filter.RecordQualifyingCit(page, 20), CandidateFilter::Outcome::kReadyToPromote);
  EXPECT_FALSE(page.Has(kPageCandidate));
  EXPECT_EQ(filter.size(), 0u);
}

TEST(CandidateFilterTest, DisqualificationResetsProgress) {
  CandidateFilter filter(2);
  PageInfo page;
  page.vpn = 7;
  page.owner = 0;
  filter.RecordQualifyingCit(page, 10);
  EXPECT_TRUE(filter.RecordDisqualifyingCit(page));
  EXPECT_FALSE(page.Has(kPageCandidate));
  EXPECT_EQ(filter.size(), 0u);
  // Starts over: needs two fresh rounds again.
  EXPECT_EQ(filter.RecordQualifyingCit(page, 5), CandidateFilter::Outcome::kBecameCandidate);
  EXPECT_EQ(filter.RecordQualifyingCit(page, 5), CandidateFilter::Outcome::kReadyToPromote);
}

TEST(CandidateFilterTest, DisqualifyUnknownPageIsNoop) {
  CandidateFilter filter(2);
  PageInfo page;
  EXPECT_FALSE(filter.RecordDisqualifyingCit(page));
}

TEST(CandidateFilterTest, SingleRoundVariantSkipsFiltering) {
  CandidateFilter filter(1);  // Chrono-basic.
  PageInfo page;
  EXPECT_EQ(filter.RecordQualifyingCit(page, 99), CandidateFilter::Outcome::kReadyToPromote);
  EXPECT_EQ(filter.size(), 0u);
}

TEST(CandidateFilterTest, ThreeRoundVariant) {
  CandidateFilter filter(3);  // Chrono-thrice.
  PageInfo page;
  page.vpn = 1;
  EXPECT_EQ(filter.RecordQualifyingCit(page, 1), CandidateFilter::Outcome::kBecameCandidate);
  EXPECT_EQ(filter.RecordQualifyingCit(page, 2), CandidateFilter::Outcome::kAdvanced);
  EXPECT_EQ(filter.RecordQualifyingCit(page, 3), CandidateFilter::Outcome::kReadyToPromote);
}

TEST(CandidateFilterTest, DistinctProcessesDoNotCollide) {
  CandidateFilter filter(2);
  PageInfo a;
  a.vpn = 100;
  a.owner = 1;
  PageInfo b;
  b.vpn = 100;  // Same vpn, different process.
  b.owner = 2;
  filter.RecordQualifyingCit(a, 1);
  filter.RecordQualifyingCit(b, 1);
  EXPECT_EQ(filter.size(), 2u);
}

TEST(CandidateFilterTest, MemoryStaysWithinPaperBudget) {
  CandidateFilter filter(2);
  std::vector<PageInfo> pages(2000);
  for (size_t i = 0; i < pages.size(); ++i) {
    pages[i].vpn = 0x200000 + i;
    pages[i].owner = 3;
    filter.RecordQualifyingCit(pages[i], 1);
  }
  // Section 4: the candidate XArray consumes < 32 KB per active process on average.
  EXPECT_LT(filter.MemoryUsageBytes(), 64u * 1024);
  filter.Clear();
  EXPECT_EQ(filter.size(), 0u);
  EXPECT_FALSE(pages[0].Has(kPageCandidate));
}

// --- promotion queue ---

TEST(PromotionQueueTest, FifoWithIdempotentEnqueue) {
  PromotionQueue queue;
  PageInfo a;
  PageInfo b;
  EXPECT_TRUE(queue.Enqueue(a));
  EXPECT_FALSE(queue.Enqueue(a));  // Already queued.
  EXPECT_TRUE(queue.Enqueue(b));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.Pop(), &a);
  EXPECT_EQ(queue.Pop(), &b);
  EXPECT_EQ(queue.Pop(), nullptr);
  EXPECT_EQ(queue.enqueued_in_window(), 2u);
  EXPECT_EQ(queue.dequeued_in_window(), 2u);
}

TEST(PromotionQueueTest, InvalidatedEntriesSkipped) {
  PromotionQueue queue;
  PageInfo a;
  PageInfo b;
  queue.Enqueue(a);
  queue.Enqueue(b);
  PromotionQueue::Invalidate(a);
  EXPECT_EQ(queue.Pop(), &b);
  EXPECT_EQ(queue.Pop(), nullptr);
}

TEST(PromotionQueueTest, WindowCounters) {
  PromotionQueue queue;
  PageInfo pages[4];
  for (auto& page : pages) {
    queue.Enqueue(page);
  }
  queue.Pop();
  EXPECT_EQ(queue.enqueued_in_window(), 4u);
  EXPECT_EQ(queue.dequeued_in_window(), 1u);
  queue.ResetWindow();
  EXPECT_EQ(queue.enqueued_in_window(), 0u);
  EXPECT_EQ(queue.dequeued_in_window(), 0u);
  EXPECT_EQ(queue.size(), 3u);  // The reset drops counts, not queued pages.
}

// --- semi-auto controller ---

TEST(SemiAutoTuningTest, ConvergesTowardRateLimit) {
  // TH_{i+1} = (1 - d + d*r) TH_i with r = limit/enqueue.
  SemiAutoThresholdController controller(0.5, 1, 1u << 27);
  // Enqueue rate double the limit -> r=0.5 -> factor 0.75: threshold shrinks.
  EXPECT_EQ(controller.Adjust(1000, 100, 200), 750u);
  // Enqueue rate half the limit -> r=2 -> factor 1.5: threshold grows.
  EXPECT_EQ(controller.Adjust(1000, 100, 50), 1500u);
  // Balanced -> unchanged.
  EXPECT_EQ(controller.Adjust(1000, 100, 100), 1000u);
}

TEST(SemiAutoTuningTest, IdleWindowGrowsBounded) {
  SemiAutoThresholdController controller(0.5, 1, 1u << 27);
  // No enqueues: ratio clamps at 4 -> factor 2.5.
  EXPECT_EQ(controller.Adjust(1000, 100, 0), 2500u);
}

TEST(SemiAutoTuningTest, RespectsBounds) {
  SemiAutoThresholdController controller(0.5, 100, 2000);
  EXPECT_EQ(controller.Adjust(150, 1, 1000000), 100u);  // Clamped at min.
  EXPECT_EQ(controller.Adjust(1500, 1000000, 1), 2000u);  // Clamped at max.
}

TEST(SemiAutoTuningTest, SmallerDeltaMovesSlower) {
  SemiAutoThresholdController fast(0.5, 1, 1u << 27);
  SemiAutoThresholdController slow(0.1, 1, 1u << 27);
  const uint32_t fast_step = fast.Adjust(1000, 100, 400);
  const uint32_t slow_step = slow.Adjust(1000, 100, 400);
  EXPECT_LT(fast_step, slow_step);  // Both shrink, fast shrinks more.
  EXPECT_LT(slow_step, 1000u);
}

// --- DCSC ---

TEST(DcscTest, TwoRoundMeasurementUsesMax) {
  DcscCollector dcsc(28, 60 * kSecond);
  PageInfo page;
  dcsc.AddVictim(page, kSlowNode, 0);
  // First fault at 10ms: needs a second round.
  EXPECT_TRUE(dcsc.OnProbedFault(page, 10 * kMillisecond));
  // Second fault 40ms later: measurement completes with max(10, 40) = 40ms.
  EXPECT_FALSE(dcsc.OnProbedFault(page, 50 * kMillisecond));
  EXPECT_EQ(dcsc.slow_map().total(), 1u);
  EXPECT_EQ(dcsc.slow_map().bucket_count(Log2Histogram::BucketFor(40)), 1u);
  EXPECT_EQ(dcsc.fast_map().total(), 0u);
}

TEST(DcscTest, FastTierVictimsGoToFastMap) {
  DcscCollector dcsc(28, 60 * kSecond);
  PageInfo page;
  dcsc.AddVictim(page, kFastNode, 0);
  dcsc.OnProbedFault(page, kMillisecond);
  dcsc.OnProbedFault(page, 2 * kMillisecond);
  EXPECT_EQ(dcsc.fast_map().total(), 1u);
}

TEST(DcscTest, StaleVictimsExpireAsCold) {
  DcscCollector dcsc(28, 60 * kSecond);
  PageInfo page;
  page.Set(kPageProbed);
  dcsc.AddVictim(page, kSlowNode, 0);
  dcsc.ExpireStale(10 * kSecond, 5 * kSecond, [](PageInfo& p) { p.ClearFlag(kPageProbed); });
  EXPECT_FALSE(page.Has(kPageProbed));
  // Censored at >= 10s = 10000ms -> a high bucket.
  EXPECT_EQ(dcsc.slow_map().total(), 1u);
  EXPECT_GT(dcsc.slow_map().Quantile(0.5), 5000.0);
  // The victim is gone: a late fault finds no state and adds no second measurement.
  EXPECT_FALSE(dcsc.OnProbedFault(page, 11 * kSecond));
  EXPECT_EQ(dcsc.slow_map().total(), 1u);
}

TEST(DcscTest, UnknownProbedFaultIsBenign) {
  DcscCollector dcsc(28, 60 * kSecond);
  PageInfo page;
  EXPECT_FALSE(dcsc.OnProbedFault(page, kSecond));
}

TEST(DcscTest, HugeVictimRedistributesWithBucketShift) {
  DcscCollector dcsc(28, 60 * kSecond);
  PageInfo head;
  dcsc.AddVictim(head, kSlowNode, 0, kBasePagesPerHugePage);
  dcsc.OnProbedFault(head, 16 * kMillisecond);
  dcsc.OnProbedFault(head, 32 * kMillisecond);
  // 16ms CIT on the second round -> max = 16ms -> bucket 5; +9 shift -> bucket 14,
  // weighted by 512 base pages (Section 3.4).
  EXPECT_EQ(dcsc.slow_map().total(), kBasePagesPerHugePage);
  EXPECT_EQ(dcsc.slow_map().bucket_count(Log2Histogram::BucketFor(16) + 9),
            kBasePagesPerHugePage);
}

TEST(DcscTest, OverlapIdentificationFindsMisplacement) {
  DcscCollector dcsc(28, 60 * kSecond);
  // Fast tier: cold pages (CIT ~ 1000ms). Slow tier: hot pages (CIT ~ 4ms).
  std::vector<PageInfo> fast_pages(32);
  std::vector<PageInfo> slow_pages(32);
  for (auto& page : fast_pages) {
    dcsc.AddVictim(page, kFastNode, 0);
    dcsc.OnProbedFault(page, 900 * kMillisecond);
    dcsc.OnProbedFault(page, 900 * kMillisecond + 1000 * kMillisecond);
  }
  for (auto& page : slow_pages) {
    dcsc.AddVictim(page, kSlowNode, 0);
    dcsc.OnProbedFault(page, 4 * kMillisecond);
    dcsc.OnProbedFault(page, 8 * kMillisecond);
  }
  const DcscOutputs out = dcsc.Aggregate(/*fast_used=*/1000, /*slow_used=*/1000);
  ASSERT_TRUE(out.valid);
  // Everything is misplaced: the threshold lands between hot (4ms) and cold (1000ms) CITs
  // and the misplaced mass is on the order of the tier population.
  EXPECT_GT(out.cit_threshold_ms, 4u);
  EXPECT_LT(out.cit_threshold_ms, 2048u);
  EXPECT_GT(out.misplaced_pages, 100.0);
  EXPECT_GT(out.rate_limit_mbps, 0.0);
}

TEST(DcscTest, WellPlacedMemoryYieldsSmallMisplacement) {
  DcscCollector dcsc(28, 60 * kSecond);
  std::vector<PageInfo> fast_pages(32);
  std::vector<PageInfo> slow_pages(32);
  for (auto& page : fast_pages) {  // Fast = hot.
    dcsc.AddVictim(page, kFastNode, 0);
    dcsc.OnProbedFault(page, 2 * kMillisecond);
    dcsc.OnProbedFault(page, 4 * kMillisecond);
  }
  for (auto& page : slow_pages) {  // Slow = cold.
    dcsc.AddVictim(page, kSlowNode, 0);
    dcsc.OnProbedFault(page, kSecond);
    dcsc.OnProbedFault(page, 2 * kSecond);
  }
  const DcscOutputs out = dcsc.Aggregate(1000, 1000);
  ASSERT_TRUE(out.valid);
  EXPECT_LT(out.misplaced_pages, 100.0);
}

TEST(DcscTest, InsufficientSamplesInvalid) {
  DcscCollector dcsc(28, 60 * kSecond);
  PageInfo page;
  dcsc.AddVictim(page, kSlowNode, 0);
  dcsc.OnProbedFault(page, 1);
  dcsc.OnProbedFault(page, 2);
  EXPECT_FALSE(dcsc.Aggregate(100, 100).valid);
}

// --- thrashing monitor ---

TEST(ThrashMonitorTest, DetectsQuickRequalification) {
  ThrashMonitor monitor(0.2, 60 * kSecond);
  PageInfo page;
  monitor.MarkDemoted(page, 10 * kSecond);
  EXPECT_TRUE(page.Has(kPageDemoted));
  // Re-qualifies 5s later: within the window -> thrash.
  EXPECT_TRUE(monitor.CheckRequalification(page, 15 * kSecond));
  EXPECT_FALSE(page.Has(kPageDemoted));
  EXPECT_EQ(monitor.total_thrashes(), 1u);
}

TEST(ThrashMonitorTest, LateRequalificationIsNotThrash) {
  ThrashMonitor monitor(0.2, 60 * kSecond);
  PageInfo page;
  monitor.MarkDemoted(page, 10 * kSecond);
  EXPECT_FALSE(monitor.CheckRequalification(page, 200 * kSecond));
  EXPECT_EQ(monitor.total_thrashes(), 0u);
}

TEST(ThrashMonitorTest, NonDemotedPageIgnored) {
  ThrashMonitor monitor;
  PageInfo page;
  EXPECT_FALSE(monitor.CheckRequalification(page, kSecond));
}

TEST(ThrashMonitorTest, WindowRatioTriggersHalving) {
  ThrashMonitor monitor(0.2, 60 * kSecond);
  std::vector<PageInfo> pages(10);
  for (auto& page : pages) {
    monitor.MarkDemoted(page, 0);
    monitor.CheckRequalification(page, kSecond);
  }
  // 10 thrashes over 40 promotions = 25% > 20% -> halve.
  EXPECT_TRUE(monitor.EvaluateWindow(40));
  // Window reset: no thrashes now.
  EXPECT_FALSE(monitor.EvaluateWindow(40));
}

TEST(ThrashMonitorTest, BelowThresholdNoHalving) {
  ThrashMonitor monitor(0.2, 60 * kSecond);
  PageInfo page;
  monitor.MarkDemoted(page, 0);
  monitor.CheckRequalification(page, kSecond);
  EXPECT_FALSE(monitor.EvaluateWindow(100));  // 1% < 20%.
  EXPECT_FALSE(monitor.EvaluateWindow(0));    // No promotions: undefined ratio -> no action.
}

// --- config variants ---

TEST(ChronoConfigTest, VariantsMatchFig13Description) {
  EXPECT_EQ(ChronoConfig::Basic().filter_rounds, 1);
  EXPECT_EQ(ChronoConfig::Basic().tuning, ChronoTuningMode::kSemiAuto);
  EXPECT_EQ(ChronoConfig::Twice().filter_rounds, 2);
  EXPECT_EQ(ChronoConfig::Thrice().filter_rounds, 3);
  EXPECT_EQ(ChronoConfig::Full().filter_rounds, 2);
  EXPECT_EQ(ChronoConfig::Full().tuning, ChronoTuningMode::kDcsc);
  EXPECT_DOUBLE_EQ(ChronoConfig::Manual(64.0).initial_rate_limit_mbps, 64.0);
}

TEST(ChronoConfigTest, PaperDefaults) {
  const ChronoConfig config;
  EXPECT_EQ(config.geometry.scan_period, 60 * kSecond);
  EXPECT_EQ(config.geometry.scan_step_pages * kBasePageSize, 256ull * 1024 * 1024);
  EXPECT_DOUBLE_EQ(config.p_victim, 0.00003);
  EXPECT_EQ(ChronoConfig::kBBuckets, 28);
  EXPECT_DOUBLE_EQ(config.delta_step, 0.5);
  EXPECT_EQ(ChronoConfig::kInitialCitThreshold, 1000 * kMillisecond);
  EXPECT_DOUBLE_EQ(config.initial_rate_limit_mbps, 100.0);
  // Section 4: 2^27 ms caps the CIT threshold.
  EXPECT_EQ(ChronoConfig::kMaxCitThreshold, (1ll << 27) * kMillisecond);
}

TEST(ChronoConfigTest, PagesPerSecondConversion) {
  // 100 MBps = 25600 4KB pages per second.
  EXPECT_DOUBLE_EQ(ChronoConfig::PagesPerSecond(100.0), 25600.0);
}

}  // namespace
}  // namespace chronotier
