#include "src/vm/lru.h"

#include "src/common/check.h"

namespace chronotier {

void PageList::PushFront(PageInfo* page) {
  CHECK(arena_ != nullptr) << "PageList used before set_arena";
  const uint32_t idx = page->arena;
  CHECK(idx != kNoPageIndex) << "page not registered with a PageArena";
  CHECK(page->lru_prev == kNoPageIndex && page->lru_next == kNoPageIndex)
      << "page is already linked into a list";
  page->lru_next = head_;
  if (head_ != kNoPageIndex) {
    arena_->page(head_)->lru_prev = idx;
  }
  head_ = idx;
  if (tail_ == kNoPageIndex) {
    tail_ = idx;
  }
  ++size_;
}

void PageList::Remove(PageInfo* page) {
  const uint32_t idx = page->arena;
  if (page->lru_prev != kNoPageIndex) {
    arena_->page(page->lru_prev)->lru_next = page->lru_next;
  } else {
    CHECK_EQ(head_, idx);
    head_ = page->lru_next;
  }
  if (page->lru_next != kNoPageIndex) {
    arena_->page(page->lru_next)->lru_prev = page->lru_prev;
  } else {
    CHECK_EQ(tail_, idx);
    tail_ = page->lru_prev;
  }
  page->lru_prev = kNoPageIndex;
  page->lru_next = kNoPageIndex;
  CHECK_GT(size_, 0u);
  --size_;
}

void NodeLru::Insert(PageInfo* page, bool active) {
  CHECK(page->lru_state() == LruMembership::kNone) << "page already on an LRU list";
  if (active) {
    active_.PushFront(page);
    page->set_lru_state(LruMembership::kActive);
  } else {
    inactive_.PushFront(page);
    page->set_lru_state(LruMembership::kInactive);
  }
}

void NodeLru::Erase(PageInfo* page) {
  switch (page->lru_state()) {
    case LruMembership::kActive:
      active_.Remove(page);
      break;
    case LruMembership::kInactive:
      inactive_.Remove(page);
      break;
    case LruMembership::kNone:
      return;
  }
  page->set_lru_state(LruMembership::kNone);
}

void NodeLru::Activate(PageInfo* page) {
  if (page->lru_state() == LruMembership::kActive) {
    active_.Rotate(page);
    return;
  }
  Erase(page);
  active_.PushFront(page);
  page->set_lru_state(LruMembership::kActive);
}

size_t NodeLru::BalanceInactive(double inactive_ratio, size_t max_scan) {
  size_t examined = 0;
  const auto target = static_cast<size_t>(static_cast<double>(total()) * inactive_ratio);
  while (inactive_.size() < target && !active_.empty() && examined < max_scan) {
    PageInfo* page = active_.Tail();
    ++examined;
    if (page->accessed()) {
      // Second chance: referenced since last look, keep it active.
      page->ClearFlag(kPageAccessed);
      active_.Rotate(page);
      continue;
    }
    active_.Remove(page);
    inactive_.PushFront(page);
    page->set_lru_state(LruMembership::kInactive);
  }
  return examined;
}

}  // namespace chronotier
