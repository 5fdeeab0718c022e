// Rate-limited asynchronous promotion queue (Section 3.1.2).
//
// Filter-approved pages wait here; a drain tick migrates at most the rate limit's worth of
// pages per interval. Enqueue/dequeue counts feed the semi-auto threshold controller, and
// the rate limit itself is adjusted by DCSC or halved by the thrashing monitor.

#pragma once

#include <cstdint>
#include <deque>

#include "src/common/time.h"
#include "src/vm/page.h"

namespace chronotier {

class PromotionQueue {
 public:
  // Adds a page (idempotent via the kPageQueued flag). Returns false if already queued.
  bool Enqueue(PageInfo& page);

  // Removes up to `max_pages` worth of units; invokes the caller-provided migrate callback
  // via Pop(): the queue only orders and counts.
  PageInfo* Pop();

  // Drops a page that no longer qualifies (lazily: flag cleared, entry skipped on pop).
  static void Invalidate(PageInfo& page) { page.ClearFlag(kPageQueued); }

  bool empty() const { return queue_.empty(); }
  size_t size() const { return queue_.size(); }

  // Windowed counters: events since the last Reset*(), for rate computation.
  uint64_t enqueued_in_window() const { return enqueued_window_; }
  uint64_t dequeued_in_window() const { return dequeued_window_; }
  void ResetWindow() {
    enqueued_window_ = 0;
    dequeued_window_ = 0;
  }

 private:
  std::deque<PageInfo*> queue_;
  uint64_t enqueued_window_ = 0;
  uint64_t dequeued_window_ = 0;
};

}  // namespace chronotier
