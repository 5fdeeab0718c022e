#include "src/core/promotion_queue.h"

namespace chronotier {

bool PromotionQueue::Enqueue(PageInfo& page) {
  if (page.Has(kPageQueued)) {
    return false;
  }
  page.Set(kPageQueued);
  queue_.push_back(&page);
  ++enqueued_window_;
  return true;
}

PageInfo* PromotionQueue::Pop() {
  while (!queue_.empty()) {
    PageInfo* page = queue_.front();
    queue_.pop_front();
    if (!page->Has(kPageQueued)) {
      continue;  // Invalidated while waiting.
    }
    page->ClearFlag(kPageQueued);
    ++dequeued_window_;
    return page;
  }
  return nullptr;
}

}  // namespace chronotier
