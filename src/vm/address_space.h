// Per-process virtual address space: VMAs, software page tables, huge-page groups.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/mem/tier.h"

#include "src/vm/page.h"
#include "src/vm/page_arena.h"

namespace chronotier {

enum class PageSizeKind {
  kBase,  // 4 KB pages.
  kHuge,  // 2 MB pages (512 base pages), splittable.
};

// A contiguous mapped region. Page metadata is allocated eagerly (the model's page table),
// but frames are attached lazily on first touch (demand paging).
class Vma {
 public:
  Vma(uint64_t start_vpn, uint64_t num_pages, PageSizeKind kind, int32_t owner);

  uint64_t start_vpn() const { return start_vpn_; }
  uint64_t num_pages() const { return num_pages_; }
  uint64_t end_vpn() const { return start_vpn_ + num_pages_; }
  PageSizeKind page_kind() const { return kind_; }

  bool Contains(uint64_t vpn) const { return vpn >= start_vpn_ && vpn < end_vpn(); }

  PageInfo& PageAt(uint64_t vpn) { return pages_[vpn - start_vpn_]; }
  const PageInfo& PageAt(uint64_t vpn) const { return pages_[vpn - start_vpn_]; }

  // --- huge-page group handling ---
  // Groups are 512-base-page aligned runs. A huge VMA starts with every group unsplit; the
  // hotness/migration unit for an unsplit group is its head page. Splitting a group makes
  // its base pages independent (Memtis page splitting).
  uint64_t GroupIndex(uint64_t vpn) const { return (vpn - start_vpn_) / kBasePagesPerHugePage; }
  uint64_t num_groups() const;
  bool IsGroupSplit(uint64_t group) const;
  void SplitGroup(uint64_t group);

  // The page that carries hotness/migration state for `vpn`: the group head for an unsplit
  // huge mapping, the page itself otherwise.
  PageInfo& HotnessUnit(uint64_t vpn);

  // Number of base pages represented by the unit containing vpn (512 or 1).
  uint64_t UnitPages(uint64_t vpn) const;

  PageInfo& GroupHead(uint64_t group) {
    return pages_[group * kBasePagesPerHugePage];
  }

  // Invokes fn(PageInfo&) once per hotness unit: each base page of a base/split mapping,
  // each group head of an unsplit huge mapping. Template visitor — scan daemons iterate
  // the packed page array with zero std::function indirection.
  template <typename Fn>
  void ForEachUnit(Fn&& fn) {
    uint64_t i = 0;
    while (i < num_pages_) {
      const uint64_t vpn = start_vpn_ + i;
      PageInfo& unit = HotnessUnit(vpn);
      fn(unit);
      i += UnitPages(vpn);
    }
  }

  std::vector<PageInfo>& pages() { return pages_; }
  const std::vector<PageInfo>& pages() const { return pages_; }

 private:
  uint64_t start_vpn_;
  uint64_t num_pages_;
  PageSizeKind kind_;
  std::vector<PageInfo> pages_;
  std::vector<bool> group_split_;  // Huge VMAs only.
};

class AddressSpace {
 public:
  explicit AddressSpace(int32_t pid) : pid_(pid) {}

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Attaches the owning machine's page arena. Every VMA mapped afterwards registers its
  // pages there (existing VMAs are registered immediately). Optional: standalone address
  // spaces in unit tests/benches that never touch LRU or oracle state may skip it.
  void set_arena(PageArena* arena);
  PageArena* arena() const { return arena_; }

  // Maps a new region of `bytes` (rounded up to the page-size unit) after the current
  // highest mapping. Returns the starting virtual address.
  uint64_t MapRegion(uint64_t bytes, PageSizeKind kind = PageSizeKind::kBase);

  // Page lookup; nullptr for unmapped addresses.
  PageInfo* FindPage(uint64_t vpn);

  // The idx-th mapped page-table entry (0 <= idx < total_pages()), counting across VMAs in
  // address order. Used by random samplers (DCSC victim selection) on every sample tick, so
  // it resolves through a cached cumulative-pages index (rebuilt on MapRegion) instead of
  // walking the VMA list.
  PageInfo* PageByIndex(uint64_t idx);
  Vma* FindVma(uint64_t vpn);
  const Vma* FindVma(uint64_t vpn) const;

  // Iterates every page-table entry (including non-present ones) across all VMAs.
  // Template visitor, zero std::function indirection.
  template <typename Fn>
  void ForEachPage(Fn&& fn) {
    for (auto& vma : vmas_) {
      for (auto& page : vma->pages()) {
        fn(*vma, page);
      }
    }
  }

  uint64_t total_pages() const { return total_pages_; }
  int32_t pid() const { return pid_; }
  const std::vector<std::unique_ptr<Vma>>& vmas() const { return vmas_; }
  std::vector<std::unique_ptr<Vma>>& vmas() { return vmas_; }

  // Lowest mapped vpn (0 when empty); used by scanners.
  uint64_t lowest_vpn() const;

 private:
  int32_t pid_;
  std::vector<std::unique_ptr<Vma>> vmas_;  // Sorted by start_vpn.
  // vma_page_prefix_[i] = total pages in vmas_[0..i-1]; back() = total_pages_. Lets
  // PageByIndex binary-search instead of walking VMAs.
  std::vector<uint64_t> vma_page_prefix_ = {0};
  uint64_t total_pages_ = 0;
  uint64_t next_map_vpn_ = 0x10000;  // Leave a guard region at the bottom.
  PageArena* arena_ = nullptr;
};

}  // namespace chronotier
