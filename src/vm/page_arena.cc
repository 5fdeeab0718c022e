#include "src/vm/page_arena.h"

#include "src/common/check.h"
#include "src/vm/address_space.h"

namespace chronotier {

void PageArena::RegisterRun(PageInfo* pages, uint64_t count) {
  const uint64_t base = uint64_t{size()};
  const uint64_t groups = (count + kGroupPages - 1) >> kGroupShift;
  CHECK_LE(base + (groups << kGroupShift), uint64_t{kNoPageIndex}) << "page arena index overflow";
  // Setup-time only: registration runs when a region maps, before its first simulated
  // access. Both vectors grow geometrically, so n registrations reallocate O(log) times.
  for (uint64_t g = 0; g < groups; ++g) {
    groups_.push_back(pages + (g << kGroupShift));  // detlint:allow(hot-path-alloc) mmap-time, geometric growth
  }
  cold_.resize(groups_.size() << kGroupShift);  // detlint:allow(hot-path-alloc) mmap-time, geometric growth
  for (uint64_t i = 0; i < count; ++i) {
    CHECK(pages[i].arena == kNoPageIndex) << "page already registered with an arena";
    pages[i].arena = static_cast<uint32_t>(base + i);
  }
}

void PageArena::RegisterVma(Vma* vma) { RegisterRun(vma->pages().data(), vma->num_pages()); }

}  // namespace chronotier
