#include "src/vm/page_arena.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/vm/address_space.h"

namespace chronotier {

void PageArena::RegisterRun(PageInfo* pages, uint64_t count) {
  const uint64_t base = uint64_t{size()};
  const uint64_t groups = (count + kGroupPages - 1) >> kGroupShift;
  CHECK_LE(base + (groups << kGroupShift), uint64_t{kNoPageIndex}) << "page arena index overflow";
  // Setup-time only: registration runs when a region maps, before its first simulated
  // access. Both vectors grow geometrically, so n registrations reallocate O(log) times.
  // The cold array grows 4x, not 2x: each regrowth frees the old array, and frees that
  // hand memory back to the kernel get slower once the process has run a second thread
  // (a stream helper; DESIGN.md). Capacity past size() is never touched.
  for (uint64_t g = 0; g < groups; ++g) {
    groups_.push_back(pages + (g << kGroupShift));  // detlint:allow(hot-path-alloc) mmap-time, geometric growth
  }
  const size_t indices = groups_.size() << kGroupShift;
  if (indices > cold_.capacity()) {
    cold_.reserve(std::max(indices, 4 * cold_.capacity()));  // detlint:allow(hot-path-alloc) mmap-time, geometric growth
  }
  cold_.resize(indices);  // detlint:allow(hot-path-alloc) mmap-time, within capacity
  for (uint64_t i = 0; i < count; ++i) {
    CHECK(pages[i].arena == kNoPageIndex) << "page already registered with an arena";
    pages[i].arena = static_cast<uint32_t>(base + i);
  }
}

void PageArena::RegisterVma(Vma* vma) { RegisterRun(vma->pages().data(), vma->num_pages()); }


}  // namespace chronotier
