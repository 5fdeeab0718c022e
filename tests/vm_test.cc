// Unit tests for the VM substrate: pages, LRU lists, address spaces, scanner.

#include <gtest/gtest.h>

#include <memory>

#include "src/vm/address_space.h"
#include "src/vm/lru.h"
#include "src/vm/page.h"
#include "src/vm/process.h"
#include "src/vm/scanner.h"

namespace chronotier {
namespace {

TEST(PageInfoTest, FlagOps) {
  PageInfo page;
  EXPECT_FALSE(page.present());
  page.Set(kPagePresent);
  page.Set(kPageDirty);
  EXPECT_TRUE(page.present());
  EXPECT_TRUE(page.Has(kPageDirty));
  page.ClearFlag(kPageDirty);
  EXPECT_FALSE(page.Has(kPageDirty));
  EXPECT_TRUE(page.present());
}

TEST(PageInfoTest, CitMetadataIsFourBytes) {
  // The paper's space-budget claim: CIT metadata is 4 bytes per page.
  EXPECT_EQ(sizeof(PageInfo::scan_ts_ms), 4u);
}

// --- PageList / NodeLru ---

TEST(PageListTest, PushRemovePop) {
  PageArena arena;
  PageList list;
  list.set_arena(&arena);
  PageInfo a;
  PageInfo b;
  PageInfo c;
  arena.RegisterPage(&a);
  arena.RegisterPage(&b);
  arena.RegisterPage(&c);
  list.PushFront(&a);
  list.PushFront(&b);
  list.PushBack(&c);
  // Order (head->tail): b, a, c.
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.Head(), &b);
  EXPECT_EQ(list.Tail(), &c);
  list.Remove(&a);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.PopBack(), &c);
  EXPECT_EQ(list.PopBack(), &b);
  EXPECT_EQ(list.PopBack(), nullptr);
  EXPECT_TRUE(list.empty());
}

TEST(PageListTest, RotateMovesToHead) {
  PageArena arena;
  PageList list;
  list.set_arena(&arena);
  PageInfo a;
  PageInfo b;
  arena.RegisterPage(&a);
  arena.RegisterPage(&b);
  list.PushFront(&a);
  list.PushFront(&b);  // head=b, tail=a
  list.Rotate(&a);
  EXPECT_EQ(list.Head(), &a);
  EXPECT_EQ(list.Tail(), &b);
}

TEST(NodeLruTest, InsertEraseActivateDeactivate) {
  PageArena arena;
  NodeLru lru;
  lru.set_arena(&arena);
  PageInfo page;
  arena.RegisterPage(&page);
  lru.Insert(&page, /*active=*/true);
  EXPECT_EQ(page.lru_state(), LruMembership::kActive);
  EXPECT_EQ(lru.active().size(), 1u);
  lru.Deactivate(&page);
  EXPECT_EQ(page.lru_state(), LruMembership::kInactive);
  EXPECT_EQ(lru.inactive().size(), 1u);
  lru.Activate(&page);
  EXPECT_EQ(page.lru_state(), LruMembership::kActive);
  lru.Erase(&page);
  EXPECT_EQ(page.lru_state(), LruMembership::kNone);
  EXPECT_EQ(lru.total(), 0u);
  lru.Erase(&page);  // Idempotent.
}

TEST(NodeLruTest, BalanceMovesUnreferencedToInactive) {
  PageArena arena;
  NodeLru lru;
  lru.set_arena(&arena);
  std::vector<PageInfo> pages(10);
  for (auto& page : pages) {
    arena.RegisterPage(&page);
    lru.Insert(&page, /*active=*/true);
  }
  // Mark the LRU-oldest three as referenced.
  pages[0].Set(kPageAccessed);
  pages[1].Set(kPageAccessed);
  pages[2].Set(kPageAccessed);
  lru.BalanceInactive(0.5, 100);
  EXPECT_GE(lru.inactive().size(), 5u);
  // Referenced pages got a second chance: their accessed bits were consumed and they stayed
  // active.
  EXPECT_FALSE(pages[0].accessed());
  EXPECT_EQ(pages[0].lru_state(), LruMembership::kActive);
}

// --- AddressSpace / Vma ---

TEST(AddressSpaceTest, MapRegionAndLookup) {
  AddressSpace aspace(1);
  const uint64_t addr = aspace.MapRegion(1 << 20);  // 256 pages.
  const uint64_t vpn = addr / kBasePageSize;
  EXPECT_EQ(aspace.total_pages(), 256u);
  ASSERT_NE(aspace.FindPage(vpn), nullptr);
  ASSERT_NE(aspace.FindPage(vpn + 255), nullptr);
  EXPECT_EQ(aspace.FindPage(vpn + 256), nullptr);
  EXPECT_EQ(aspace.FindPage(vpn)->owner, 1);
  EXPECT_EQ(aspace.FindPage(vpn)->vpn, vpn);
}

TEST(AddressSpaceTest, MultipleRegionsDisjoint) {
  AddressSpace aspace(0);
  const uint64_t a = aspace.MapRegion(1 << 16);
  const uint64_t b = aspace.MapRegion(1 << 16);
  EXPECT_NE(a, b);
  EXPECT_EQ(aspace.vmas().size(), 2u);
  EXPECT_EQ(aspace.total_pages(), 32u);
}

TEST(AddressSpaceTest, PageByIndexWalksVmas) {
  AddressSpace aspace(0);
  aspace.MapRegion(4 * kBasePageSize);
  aspace.MapRegion(4 * kBasePageSize);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_NE(aspace.PageByIndex(i), nullptr) << i;
  }
  EXPECT_EQ(aspace.PageByIndex(8), nullptr);
  // Index 4 is the first page of the second VMA.
  EXPECT_EQ(aspace.PageByIndex(4)->vpn, aspace.vmas()[1]->start_vpn());
}

// --- PageArena ---

TEST(PageArenaTest, IndexRoundTripsAcrossUnalignedVmas) {
  // Page counts that are not multiples of the 64-page group, a one-page VMA, a huge VMA,
  // and standalone pages registered before and after them: every index resolves back to
  // its own PageInfo, each VMA's run starts on a group boundary and is contiguous.
  PageArena arena;
  PageInfo loose_first;
  arena.RegisterPage(&loose_first);
  AddressSpace early(1);
  early.MapRegion(100 * kBasePageSize);  // Registered later, by set_arena.
  AddressSpace aspace(2);
  aspace.set_arena(&arena);
  aspace.MapRegion(1 * kBasePageSize);
  aspace.MapRegion(64 * kBasePageSize);
  aspace.MapRegion(130 * kBasePageSize);
  aspace.MapRegion(kHugePageSize, PageSizeKind::kHuge);
  early.set_arena(&arena);
  PageInfo loose_last;
  arena.RegisterPage(&loose_last);

  for (PageInfo* loose : {&loose_first, &loose_last}) {
    EXPECT_EQ(loose->arena % PageArena::kGroupPages, 0u);
    EXPECT_EQ(arena.page(loose->arena), loose);
  }
  uint64_t groups = 2;  // The standalone pages.
  for (AddressSpace* space : {&aspace, &early}) {
    for (const std::unique_ptr<Vma>& vma : space->vmas()) {
      const uint32_t first = vma->pages().front().arena;
      EXPECT_EQ(first % PageArena::kGroupPages, 0u) << "vma at vpn " << vma->start_vpn();
      for (uint64_t i = 0; i < vma->num_pages(); ++i) {
        PageInfo& page = vma->pages()[i];
        ASSERT_EQ(page.arena, first + i);
        ASSERT_EQ(arena.page(page.arena), &page);
      }
      groups += (vma->num_pages() + PageArena::kGroupPages - 1) / PageArena::kGroupPages;
    }
  }
  EXPECT_EQ(arena.size(), groups * PageArena::kGroupPages);
  EXPECT_EQ(arena.groups().page(loose_first.arena), &loose_first);
}

TEST(VmaTest, HugeMappingGroupsAndHeads) {
  AddressSpace aspace(0);
  const uint64_t addr = aspace.MapRegion(4 * kHugePageSize, PageSizeKind::kHuge);
  Vma* vma = aspace.FindVma(addr / kBasePageSize);
  ASSERT_NE(vma, nullptr);
  EXPECT_EQ(vma->num_pages(), 4 * kBasePagesPerHugePage);
  EXPECT_EQ(vma->num_groups(), 4u);
  // Alignment: start vpn is a multiple of 512.
  EXPECT_EQ(vma->start_vpn() % kBasePagesPerHugePage, 0u);

  const uint64_t vpn = vma->start_vpn() + kBasePagesPerHugePage + 7;  // Group 1, offset 7.
  PageInfo& unit = vma->HotnessUnit(vpn);
  EXPECT_EQ(unit.vpn, vma->start_vpn() + kBasePagesPerHugePage);
  EXPECT_TRUE(unit.huge_head());
  EXPECT_EQ(vma->UnitPages(vpn), kBasePagesPerHugePage);
}

TEST(VmaTest, SplitGroupMakesBasePages) {
  AddressSpace aspace(0);
  const uint64_t addr = aspace.MapRegion(2 * kHugePageSize, PageSizeKind::kHuge);
  Vma* vma = aspace.FindVma(addr / kBasePageSize);
  PageInfo& head = vma->GroupHead(0);
  head.Set(kPagePresent);
  head.node = kFastNode;

  vma->SplitGroup(0);
  EXPECT_TRUE(vma->IsGroupSplit(0));
  EXPECT_FALSE(vma->IsGroupSplit(1));
  const uint64_t vpn = vma->start_vpn() + 3;
  PageInfo& unit = vma->HotnessUnit(vpn);
  EXPECT_EQ(unit.vpn, vpn);  // Now its own unit.
  EXPECT_EQ(vma->UnitPages(vpn), 1u);
  EXPECT_TRUE(unit.present());
  EXPECT_EQ(unit.node, kFastNode);
  // Group 1 still aggregates.
  EXPECT_EQ(vma->UnitPages(vma->start_vpn() + kBasePagesPerHugePage), kBasePagesPerHugePage);
}

TEST(VmaTest, ForEachUnitCountsUnits) {
  AddressSpace aspace(0);
  const uint64_t addr = aspace.MapRegion(3 * kHugePageSize, PageSizeKind::kHuge);
  Vma* vma = aspace.FindVma(addr / kBasePageSize);
  int units = 0;
  vma->ForEachUnit([&units](PageInfo&) { ++units; });
  EXPECT_EQ(units, 3);
  vma->SplitGroup(1);
  units = 0;
  vma->ForEachUnit([&units](PageInfo&) { ++units; });
  EXPECT_EQ(units, 2 + static_cast<int>(kBasePagesPerHugePage));
}

// --- RangeScanner ---

TEST(ScannerTest, VisitsAllPagesAcrossChunks) {
  AddressSpace aspace(0);
  aspace.MapRegion(64 * kBasePageSize);
  aspace.MapRegion(32 * kBasePageSize);
  RangeScanner scanner(&aspace);
  int visits = 0;
  int chunks = 0;
  bool wrapped = false;
  while (!wrapped) {
    const auto result = scanner.ScanChunk(16, [&visits](Vma&, PageInfo&) { ++visits; });
    wrapped = result.wrapped;
    ++chunks;
    ASSERT_LT(chunks, 100);
  }
  EXPECT_EQ(visits, 96);
  EXPECT_EQ(chunks, 6);
}

TEST(ScannerTest, HugeUnitsVisitedOncePerGroup) {
  AddressSpace aspace(0);
  aspace.MapRegion(2 * kHugePageSize, PageSizeKind::kHuge);
  RangeScanner scanner(&aspace);
  int visits = 0;
  const auto result = scanner.ScanChunk(10 * kBasePagesPerHugePage,
                                        [&visits](Vma&, PageInfo& unit) {
                                          EXPECT_TRUE(unit.huge_head());
                                          ++visits;
                                        });
  EXPECT_EQ(visits, 2);
  EXPECT_EQ(result.units_visited, 2u);
  EXPECT_EQ(result.pages_covered, 2 * kBasePagesPerHugePage);
}

TEST(ScannerTest, EmptySpaceIsSafe) {
  AddressSpace aspace(0);
  RangeScanner scanner(&aspace);
  const auto result = scanner.ScanChunk(100, [](Vma&, PageInfo&) { FAIL(); });
  EXPECT_EQ(result.units_visited, 0u);
}

TEST(ScannerTest, LapProgressAdvances) {
  AddressSpace aspace(0);
  aspace.MapRegion(100 * kBasePageSize);
  RangeScanner scanner(&aspace);
  EXPECT_DOUBLE_EQ(scanner.LapProgress(), 0.0);
  scanner.ScanChunk(50, [](Vma&, PageInfo&) {});
  EXPECT_NEAR(scanner.LapProgress(), 0.5, 0.01);
}

// --- Process ---

TEST(ProcessTest, ResidencyPercent) {
  Process process(0, "test");
  EXPECT_DOUBLE_EQ(process.FastTierResidencyPercent(), 0.0);
  process.AddResident(kFastNode, 30);
  process.AddResident(kSlowNode, 70);
  EXPECT_DOUBLE_EQ(process.FastTierResidencyPercent(), 30.0);
  process.AddResident(kSlowNode, -70);
  EXPECT_DOUBLE_EQ(process.FastTierResidencyPercent(), 100.0);
}

TEST(ProcessTest, ClockMonotone) {
  Process process(0, "test");
  process.AdvanceClock(100);
  EXPECT_EQ(process.clock(), 100);
  process.SyncClockTo(50);  // Cannot go backwards.
  EXPECT_EQ(process.clock(), 100);
  process.SyncClockTo(200);
  EXPECT_EQ(process.clock(), 200);
}

}  // namespace
}  // namespace chronotier
