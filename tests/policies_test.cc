// Behavioural tests for the baseline policies: each policy must exhibit the defining
// mechanism the paper attributes to it.

#include <gtest/gtest.h>

#include <memory>

#include "src/harness/machine.h"
#include "src/policies/autotiering.h"
#include "src/policies/linux_nb.h"
#include "src/policies/memtis.h"
#include "src/policies/multiclock.h"
#include "src/policies/tpp.h"
#include "src/workloads/patterns.h"

namespace chronotier {
namespace {

// Small fast geometry so scan effects appear quickly in tests.
ScanGeometry TestGeometry() {
  ScanGeometry geometry;
  geometry.scan_period = 2 * kSecond;
  geometry.scan_step_pages = 512;
  return geometry;
}

struct TestRig {
  std::unique_ptr<Machine> machine;
  Process* process = nullptr;
  HotsetStream* stream = nullptr;
};

// 2048-page working set on a 4096-page machine (1024 fast); sequential init puts the first
// quarter in DRAM, so the scattered hot set mostly starts slow.
TestRig MakeRig(std::unique_ptr<TieringPolicy> policy, PageSizeKind kind,
                SimDuration delay = kMicrosecond, double hot_access_fraction = 0.9) {
  TestRig rig;
  MachineConfig config = MachineConfig::StandardTwoTier(4096, 0.25);
  config.bandwidth_scale = 64.0;
  rig.machine = std::make_unique<Machine>(config, std::move(policy));
  rig.process = &rig.machine->CreateProcess("app");
  rig.process->set_default_page_kind(kind);
  HotsetConfig w;
  w.working_set_bytes = 2048 * kBasePageSize;
  w.hot_fraction = 0.2;
  w.hot_access_fraction = hot_access_fraction;
  w.per_op_delay = delay;
  w.sequential_init = true;
  auto stream = std::make_unique<HotsetStream>(w);
  rig.stream = stream.get();
  rig.machine->AttachWorkload(*rig.process, std::move(stream), 77);
  rig.machine->Start();
  return rig;
}

// Fraction of fast-tier pages that belong to the workload's hot set.
double FastTierHotShare(const TestRig& rig) {
  const uint64_t hot_lo = rig.stream->region_start_vpn() + rig.stream->current_hot_base();
  const uint64_t hot_hi = hot_lo + rig.stream->hot_pages();
  uint64_t fast = 0;
  uint64_t fast_hot = 0;
  rig.process->aspace().ForEachPage([&](Vma& vma, PageInfo& page) {
    PageInfo& unit = vma.HotnessUnit(page.vpn);
    if (unit.present() && unit.node == kFastNode) {
      ++fast;
      if (page.vpn >= hot_lo && page.vpn < hot_hi) {
        ++fast_hot;
      }
    }
  });
  return fast == 0 ? 0.0 : static_cast<double>(fast_hot) / static_cast<double>(fast);
}

TEST(LinuxNbTest, PromotesOnHintFaultMruStyle) {
  TestRig rig = MakeRig(std::make_unique<LinuxNumaBalancingPolicy>(TestGeometry()),
                        PageSizeKind::kBase);
  rig.machine->Run(10 * kSecond);
  EXPECT_GT(rig.machine->metrics().hint_faults(), 0u);
  EXPECT_GT(rig.machine->metrics().promoted_pages(), 0u);
}

TEST(LinuxNbTest, PromotionIsUnselective) {
  // MRU promotes any touched page: cold pages are promoted too (PPR high). After a few
  // scan laps, promotions should exceed the hot-set size noticeably.
  TestRig rig = MakeRig(std::make_unique<LinuxNumaBalancingPolicy>(TestGeometry()),
                        PageSizeKind::kBase);
  rig.machine->Run(20 * kSecond);
  EXPECT_GT(rig.machine->metrics().promotion_events(), rig.stream->hot_pages());
}

TEST(AutoTieringTest, LapVectorGatesPromotion) {
  TestRig rig = MakeRig(std::make_unique<AutoTieringPolicy>(TestGeometry()),
                        PageSizeKind::kBase);
  // One lap cannot promote (needs 2 LAP bits); two+ laps can.
  rig.machine->Run(2500 * kMillisecond);
  const uint64_t early = rig.machine->metrics().promoted_pages();
  rig.machine->Run(8 * kSecond);
  EXPECT_GT(rig.machine->metrics().promoted_pages(), early);
  EXPECT_GT(rig.machine->metrics().promoted_pages(), 0u);
}

TEST(MultiClockTest, NoHintFaults) {
  TestRig rig = MakeRig(std::make_unique<MultiClockPolicy>(TestGeometry()),
                        PageSizeKind::kBase);
  rig.machine->Run(15 * kSecond);
  EXPECT_EQ(rig.machine->metrics().hint_faults(), 0u);  // Accessed bits only.
  EXPECT_GT(rig.machine->metrics().promoted_pages(), 0u);  // Clock levels still promote.
}

TEST(MultiClockTest, LevelsClimbOnlyForAccessedPages) {
  // hot_access_fraction = 1.0: cold pages are never touched after init, so their accessed
  // bits stay clear and their levels must decay while hot levels saturate.
  TestRig rig = MakeRig(std::make_unique<MultiClockPolicy>(TestGeometry()),
                        PageSizeKind::kBase, kMicrosecond, /*hot_access_fraction=*/1.0);
  rig.machine->Run(15 * kSecond);
  // Hot pages should sit at higher clock levels than never-touched-again cold pages.
  uint64_t hot_levels = 0;
  uint64_t hot_count = 0;
  uint64_t cold_levels = 0;
  uint64_t cold_count = 0;
  const uint64_t hot_lo = rig.stream->region_start_vpn() + rig.stream->current_hot_base();
  const uint64_t hot_hi = hot_lo + rig.stream->hot_pages();
  rig.process->aspace().ForEachPage([&](Vma&, PageInfo& page) {
    if (!page.present()) {
      return;
    }
    if (page.vpn >= hot_lo && page.vpn < hot_hi) {
      hot_levels += page.policy_word;
      ++hot_count;
    } else {
      cold_levels += page.policy_word;
      ++cold_count;
    }
  });
  ASSERT_GT(hot_count, 0u);
  ASSERT_GT(cold_count, 0u);
  EXPECT_GT(static_cast<double>(hot_levels) / hot_count,
            static_cast<double>(cold_levels) / cold_count);
}

TEST(TppTest, RequiresSecondFaultWithinWindow) {
  // The recency window is the scan period: 2 s under the test geometry.
  TestRig rig = MakeRig(std::make_unique<TppPolicy>(TestGeometry()), PageSizeKind::kBase);
  // During the first scan lap every page faults once -> no promotion yet.
  rig.machine->Run(2200 * kMillisecond);
  const uint64_t after_one_lap = rig.machine->metrics().promoted_pages();
  rig.machine->Run(10 * kSecond);
  EXPECT_GT(rig.machine->metrics().promoted_pages(), after_one_lap);
}

TEST(TppTest, KeepsAllocationHeadroom) {
  TestRig rig = MakeRig(std::make_unique<TppPolicy>(TestGeometry()), PageSizeKind::kBase);
  rig.machine->Run(20 * kSecond);
  const MemoryTier& fast = rig.machine->memory().node(kFastNode);
  // Free pages should hover around high watermark + 2% headroom, not at the min.
  EXPECT_GT(fast.free_pages(), fast.watermarks().high);
}

TEST(MemtisTest, SamplesDriveCountersAndHistogram) {
  TestRig rig = MakeRig(std::make_unique<MemtisPolicy>(), PageSizeKind::kHuge);
  rig.machine->Run(10 * kSecond);
  EXPECT_GT(rig.machine->pebs().samples_delivered(), 0u);
  // Some unit accumulated a counter.
  uint64_t max_counter = 0;
  rig.process->aspace().ForEachPage([&](Vma& vma, PageInfo& page) {
    PageInfo& unit = vma.HotnessUnit(page.vpn);
    max_counter = std::max<uint64_t>(max_counter, unit.policy_word);
  });
  EXPECT_GT(max_counter, 0u);
}

TEST(MemtisTest, HugePagePreferenceAndBloat) {
  TestRig rig = MakeRig(std::make_unique<MemtisPolicy>(), PageSizeKind::kHuge);
  // Huge-page demand paging materializes whole 2MB units: resident >= touched.
  rig.machine->Run(3 * kSecond);
  const uint64_t resident = rig.process->resident_pages(kFastNode) +
                            rig.process->resident_pages(kSlowNode);
  EXPECT_EQ(resident % kBasePagesPerHugePage, 0u);
  EXPECT_GE(resident, kBasePagesPerHugePage);
}

TEST(MemtisTest, CoolingHalvesCounters) {
  TestRig rig = MakeRig(std::make_unique<MemtisPolicy>(), PageSizeKind::kHuge);
  rig.machine->Run(MemtisPolicy::kCoolingPeriod - 100 * kMillisecond);
  uint64_t before = 0;
  rig.process->aspace().ForEachPage([&](Vma& vma, PageInfo& page) {
    before = std::max<uint64_t>(before, vma.HotnessUnit(page.vpn).policy_word);
  });
  ASSERT_GT(before, 4u);
  // Freeze the workload (stream keeps running, but cooling halves dominate growth only if
  // we compare immediately after the cooling tick).
  rig.machine->Run(200 * kMillisecond);  // Crosses the first cooling tick (t = 10 s).
  uint64_t after = 0;
  rig.process->aspace().ForEachPage([&](Vma& vma, PageInfo& page) {
    after = std::max<uint64_t>(after, vma.HotnessUnit(page.vpn).policy_word);
  });
  EXPECT_LT(after, before);
}

TEST(MemtisTest, SplitsHotButSparseHugeUnits) {
  MachineConfig machine_config = MachineConfig::StandardTwoTier(8192, 0.25);
  Machine machine(machine_config, std::make_unique<MemtisPolicy>());
  Process& process = machine.CreateProcess("sparse");
  process.set_default_page_kind(PageSizeKind::kHuge);
  // Touch only the first base page of each huge unit: hot but extremely sparse.
  HotsetConfig w;
  w.working_set_bytes = 4 * kHugePageSize;
  w.hot_fraction = 4.0 / (4.0 * kBasePagesPerHugePage);  // 4 pages: one per unit... 
  w.hot_access_fraction = 1.0;
  w.per_op_delay = 200 * kNanosecond;
  machine.AttachWorkload(process, std::make_unique<HotsetStream>(w), 13);
  machine.Start();
  // Thousands of samples per hot unit, far past kSplitMinSamples (64), before the first
  // cooling tick (t = 10 s) clears the split candidates.
  machine.Run(10 * kSecond);

  // At least one group must have been split (hot counter + <=4 distinct subpage slots).
  int split_groups = 0;
  for (auto& vma : process.aspace().vmas()) {
    if (vma->page_kind() != PageSizeKind::kHuge) {
      continue;  // Base mappings report every "group" split.
    }
    for (uint64_t g = 0; g < vma->num_pages() / kBasePagesPerHugePage; ++g) {
      split_groups += vma->IsGroupSplit(g) ? 1 : 0;
    }
  }
  EXPECT_GT(split_groups, 0);
}

TEST(PolicyComparisonTest, ChronoOrBaselinesPlaceHotSet) {
  // Sanity cross-check: with enough time, every scanning policy should place a
  // non-trivially hot-biased set in DRAM (>= the no-information 20% baseline).
  TestRig rig = MakeRig(std::make_unique<LinuxNumaBalancingPolicy>(TestGeometry()),
                        PageSizeKind::kBase);
  rig.machine->Run(30 * kSecond);
  EXPECT_GT(FastTierHotShare(rig), 0.2);
}

}  // namespace
}  // namespace chronotier
