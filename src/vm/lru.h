// Intrusive LRU lists, mirroring the kernel's per-node active/inactive anonymous lists.
//
// Multi-Clock, TPP and the demotion path all reason about these lists, so they are part of
// the shared substrate rather than any single policy.
//
// Linkage is by 32-bit PageArena index (PageInfo::lru_prev/lru_next), not by pointer: the
// hot page record stays 32 bytes and two pages share a cache line during list walks. Every
// list therefore needs the arena that resolves indices (set_arena) before first use.

#pragma once

#include <cstddef>

#include "src/vm/page.h"
#include "src/vm/page_arena.h"

namespace chronotier {

// Intrusive doubly-linked list of PageInfo. Head = most recently added.
class PageList {
 public:
  PageList() = default;
  PageList(const PageList&) = delete;
  PageList& operator=(const PageList&) = delete;

  // Must be called before any page operation; all pages pushed here must be registered
  // with this arena.
  void set_arena(PageArena* arena) { arena_ = arena; }
  PageArena* arena() const { return arena_; }

  void PushFront(PageInfo* page);
  void Remove(PageInfo* page);
  // Oldest entry (tail), or nullptr.
  PageInfo* Tail() const { return At(tail_); }
  PageInfo* Head() const { return At(head_); }

  // Successor of `page` toward the tail, or nullptr (head-to-tail walk order; used by the
  // invariant auditor).
  PageInfo* Next(const PageInfo* page) const { return At(page->lru_next); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Moves `page` (already on this list) to the head.
  void Rotate(PageInfo* page) {
    Remove(page);
    PushFront(page);
  }

 private:
  PageInfo* At(uint32_t idx) const {
    return idx == kNoPageIndex ? nullptr : arena_->page(idx);
  }

  uint32_t head_ = kNoPageIndex;
  uint32_t tail_ = kNoPageIndex;
  size_t size_ = 0;
  PageArena* arena_ = nullptr;
};

// Active + inactive lists for one NUMA node.
class NodeLru {
 public:
  void set_arena(PageArena* arena) {
    active_.set_arena(arena);
    inactive_.set_arena(arena);
  }

  // Inserts a newly faulted-in or migrated-in page. New anonymous pages start on the active
  // list (kernel behaviour for anon).
  void Insert(PageInfo* page, bool active = true);

  // Removes `page` from whichever list holds it (no-op if none).
  void Erase(PageInfo* page);

  // Moves a page to the head of the active list.
  void Activate(PageInfo* page);

  // Rebalances: while the inactive list holds fewer than `inactive_ratio`-th of the pages,
  // move pages from the active tail, deactivating those without the accessed bit and
  // rotating (second chance) those with it. Clears accessed bits it inspects; returns pages
  // examined (for cost accounting).
  size_t BalanceInactive(double inactive_ratio = 0.333, size_t max_scan = 256);

  PageList& active() { return active_; }
  PageList& inactive() { return inactive_; }
  const PageList& active() const { return active_; }
  const PageList& inactive() const { return inactive_; }

  size_t total() const { return active_.size() + inactive_.size(); }

 private:
  PageList active_;
  PageList inactive_;
};

}  // namespace chronotier
