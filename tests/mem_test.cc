// Unit tests for the memory-tier substrate.

#include <gtest/gtest.h>

#include "src/mem/tier.h"
#include "src/mem/tiered_memory.h"

namespace chronotier {
namespace {

TEST(TierSpecTest, FactoryLatencyOrdering) {
  const TierSpec dram = TierSpec::Dram(1000);
  const TierSpec pmem = TierSpec::OptanePmem(1000);
  EXPECT_LT(dram.load_latency, pmem.load_latency);
  EXPECT_LT(dram.store_latency, pmem.store_latency);
  // Optane's store penalty exceeds its load penalty (on-DIMM buffering asymmetry).
  EXPECT_GT(pmem.store_latency, pmem.load_latency);
}

TEST(MemoryTierTest, AllocateRelease) {
  MemoryTier tier(TierSpec::Dram(1000));
  EXPECT_EQ(tier.free_pages(), 1000u);
  EXPECT_TRUE(tier.TryAllocate(100));
  EXPECT_EQ(tier.free_pages(), 900u);
  EXPECT_EQ(tier.used_pages(), 100u);
  tier.Release(100);
  EXPECT_EQ(tier.free_pages(), 1000u);
}

TEST(MemoryTierTest, MinWatermarkBlocksNormalAllocation) {
  MemoryTier tier(TierSpec::Dram(1000));
  const uint64_t min = tier.watermarks().min;
  EXPECT_GT(min, 0u);
  EXPECT_TRUE(tier.TryAllocate(1000 - min));
  EXPECT_FALSE(tier.TryAllocate(1));  // Would dip below min.
  EXPECT_EQ(tier.free_pages(), min);  // The refusal took nothing.
  EXPECT_TRUE(tier.TryAllocate(1, /*allow_below_min=*/true));
}

TEST(MemoryTierTest, WatermarkOrdering) {
  MemoryTier tier(TierSpec::Dram(100000));
  const Watermarks& wm = tier.watermarks();
  EXPECT_LT(wm.min, wm.low);
  EXPECT_LT(wm.low, wm.high);
  EXPECT_GE(wm.pro, wm.high);
}

TEST(MemoryTierTest, ProWatermarkGap) {
  MemoryTier tier(TierSpec::Dram(100000));
  const uint64_t high = tier.watermarks().high;
  tier.SetProWatermarkGap(500);
  EXPECT_EQ(tier.watermarks().pro, high + 500);
  // Gap is capped at half the tier.
  tier.SetProWatermarkGap(1000000);
  EXPECT_LE(tier.watermarks().pro, 50000u + high);
}

TEST(MemoryTierTest, BelowWatermarkPredicates) {
  MemoryTier tier(TierSpec::Dram(1000));
  EXPECT_FALSE(tier.BelowHighWatermark());
  const uint64_t high = tier.watermarks().high;
  ASSERT_TRUE(tier.TryAllocate(1000 - high + 1, /*allow_below_min=*/true));
  EXPECT_TRUE(tier.BelowHighWatermark());
}

TEST(MemoryTierTest, AccessLatencyBySide) {
  MemoryTier pmem(TierSpec::OptanePmem(10));
  EXPECT_EQ(pmem.AccessLatency(false), pmem.spec().load_latency);
  EXPECT_EQ(pmem.AccessLatency(true), pmem.spec().store_latency);
}

TEST(MemoryTierTest, MigrationCopyTimeScalesWithBytes) {
  MemoryTier tier(TierSpec::Dram(10));
  const SimDuration one_page = tier.MigrationCopyTime(kBasePageSize);
  const SimDuration two_pages = tier.MigrationCopyTime(2 * kBasePageSize);
  EXPECT_GT(one_page, 0);
  EXPECT_NEAR(static_cast<double>(two_pages), 2.0 * static_cast<double>(one_page), 2.0);
}

TEST(TieredMemoryTest, DramOptaneSplit) {
  TieredMemory memory = TieredMemory::DramOptane(100000, 0.25);
  EXPECT_EQ(memory.num_nodes(), 2);
  EXPECT_EQ(memory.node(kFastNode).capacity_pages(), 25000u);
  EXPECT_EQ(memory.node(kSlowNode).capacity_pages(), 75000u);
}

TEST(TieredMemoryTest, AllocationPrefersFastThenFallsBack) {
  TieredMemory memory = TieredMemory::DramOptane(2000, 0.5);
  // Exhaust the fast tier (down to its min watermark).
  uint64_t fast_allocated = 0;
  while (memory.AllocatePages(kFastNode, 1) == kFastNode) {
    ++fast_allocated;
  }
  EXPECT_GT(fast_allocated, 900u);
  // Next allocations land on the slow node.
  EXPECT_EQ(memory.AllocatePages(kFastNode, 1), kSlowNode);
}

TEST(TieredMemoryTest, ExhaustionReturnsInvalid) {
  TieredMemory memory = TieredMemory::DramOptane(200, 0.5);
  int allocated = 0;
  while (memory.AllocatePages(kFastNode, 1) != kInvalidNode) {
    ++allocated;
  }
  EXPECT_EQ(allocated, 200);  // Hard-allocation path drains both tiers fully.
  EXPECT_EQ(memory.AllocatePages(kFastNode, 1), kInvalidNode);
}

TEST(TieredMemoryTest, FreeReturnsPages) {
  TieredMemory memory = TieredMemory::DramOptane(1000, 0.5);
  ASSERT_EQ(memory.AllocatePages(kSlowNode, 10), kSlowNode);
  EXPECT_EQ(memory.node(kSlowNode).used_pages(), 10u);
  memory.FreePages(kSlowNode, 10);
  EXPECT_EQ(memory.node(kSlowNode).used_pages(), 0u);
}

TEST(TieredMemoryTest, MigrationCostHasBothComponents) {
  TieredMemory memory = TieredMemory::DramOptane(1000, 0.5);
  const MigrationCost cost = memory.CostOfMigration(kSlowNode, kFastNode, kBasePageSize);
  EXPECT_GT(cost.copy_time, 0);
  EXPECT_GT(cost.software_overhead, 0);
  EXPECT_EQ(cost.total(), cost.copy_time + cost.software_overhead);
  // Copy time is bounded by the slower (Optane) side.
  const SimDuration slow_side =
      memory.node(kSlowNode).MigrationCopyTime(kBasePageSize);
  EXPECT_EQ(cost.copy_time, slow_side);
}

TEST(TieredMemoryTest, HugeUnitAllocation) {
  TieredMemory memory = TieredMemory::DramOptane(4096, 0.5);
  EXPECT_EQ(memory.AllocatePages(kFastNode, kBasePagesPerHugePage), kFastNode);
  EXPECT_EQ(memory.node(kFastNode).used_pages(), kBasePagesPerHugePage);
}

}  // namespace
}  // namespace chronotier
