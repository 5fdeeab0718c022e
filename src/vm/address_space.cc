#include "src/vm/address_space.h"

#include <algorithm>
#include "src/common/check.h"

namespace chronotier {

Vma::Vma(uint64_t start_vpn, uint64_t num_pages, PageSizeKind kind, int32_t owner)
    : start_vpn_(start_vpn), num_pages_(num_pages), kind_(kind) {
  // The hot page record stores vpn in 32 bits (16 TB of virtual space) and the owner pid
  // in 8; both are model-wide invariants, enforced where pages are minted.
  CHECK_LE(start_vpn + num_pages, uint64_t{kNoPageIndex}) << "VMA exceeds 32-bit vpn space";
  CHECK(owner >= -1 && owner <= INT8_MAX) << "pid does not fit the packed page record";
  pages_.resize(num_pages);  // detlint:allow(hot-path-alloc) one-time VMA construction, not per-access
  for (uint64_t i = 0; i < num_pages; ++i) {
    PageInfo& page = pages_[i];
    page.vpn = static_cast<uint32_t>(start_vpn + i);
    page.owner = owner;
    if (kind == PageSizeKind::kHuge) {
      const bool is_head = (i % kBasePagesPerHugePage) == 0;
      page.Set(is_head ? kPageHugeHead : kPageHugeTail);
    }
  }
  if (kind == PageSizeKind::kHuge) {
    group_split_.assign((num_pages + kBasePagesPerHugePage - 1) / kBasePagesPerHugePage, false);
  }
}

uint64_t Vma::num_groups() const { return group_split_.size(); }

bool Vma::IsGroupSplit(uint64_t group) const {
  if (kind_ != PageSizeKind::kHuge) {
    return true;  // Base mappings behave as fully split.
  }
  return group_split_[group];
}

void Vma::SplitGroup(uint64_t group) {
  CHECK(kind_ == PageSizeKind::kHuge) << "SplitGroup on a base-page VMA";
  if (group_split_[group]) {
    return;
  }
  group_split_[group] = true;
  // Base pages inherit the head's residency; flags are re-labelled so that the head no
  // longer aggregates the group.
  const uint64_t first = group * kBasePagesPerHugePage;
  const uint64_t last = std::min(first + kBasePagesPerHugePage, num_pages_);
  PageInfo& head = pages_[first];
  for (uint64_t i = first; i < last; ++i) {
    PageInfo& page = pages_[i];
    page.ClearFlag(kPageHugeHead);
    page.ClearFlag(kPageHugeTail);
    if (&page != &head && head.present()) {
      page.Set(kPagePresent);
      page.node = head.node;
      // Scan/hotness metadata starts fresh for the split-out base pages.
      page.scan_ts_ms = kNoScanTimestamp;
      page.policy_word = 0;
    }
  }
}

PageInfo& Vma::HotnessUnit(uint64_t vpn) {
  if (kind_ != PageSizeKind::kHuge) {
    return PageAt(vpn);
  }
  const uint64_t group = GroupIndex(vpn);
  if (group_split_[group]) {
    return PageAt(vpn);
  }
  return GroupHead(group);
}

uint64_t Vma::UnitPages(uint64_t vpn) const {
  if (kind_ != PageSizeKind::kHuge || group_split_[GroupIndex(vpn)]) {
    return 1;
  }
  // The final group of an unaligned huge VMA may be short.
  const uint64_t group = GroupIndex(vpn);
  const uint64_t first = group * kBasePagesPerHugePage;
  return std::min<uint64_t>(kBasePagesPerHugePage, num_pages_ - first);
}

void AddressSpace::set_arena(PageArena* arena) {
  arena_ = arena;
  if (arena_ != nullptr) {
    for (auto& vma : vmas_) {
      arena_->RegisterVma(vma.get());
    }
  }
}

uint64_t AddressSpace::MapRegion(uint64_t bytes, PageSizeKind kind) {
  const uint64_t unit_pages =
      kind == PageSizeKind::kHuge ? kBasePagesPerHugePage : uint64_t{1};
  uint64_t pages = (bytes + kBasePageSize - 1) / kBasePageSize;
  pages = (pages + unit_pages - 1) / unit_pages * unit_pages;
  if (pages == 0) {
    pages = unit_pages;
  }

  // Align huge mappings so groups are naturally aligned.
  uint64_t start = next_map_vpn_;
  start = (start + unit_pages - 1) / unit_pages * unit_pages;

  // Map() is setup-side API (workloads map regions before the access loop);
  // the per-access paths (Translate/FindVma) never reach it.
  vmas_.push_back(std::make_unique<Vma>(start, pages, kind, pid_));  // detlint:allow(hot-path-alloc) mmap-time, not access-time
  total_pages_ += pages;
  vma_page_prefix_.push_back(total_pages_);  // detlint:allow(hot-path-alloc) mmap-time, not access-time
  next_map_vpn_ = start + pages + 0x100;  // Guard gap between regions.
  if (arena_ != nullptr) {
    arena_->RegisterVma(vmas_.back().get());
  }
  return start * kBasePageSize;
}

Vma* AddressSpace::FindVma(uint64_t vpn) {
  // VMAs are few (typically 1-4 per workload); linear scan beats binary search in practice
  // and keeps the code simple.
  for (auto& vma : vmas_) {
    if (vma->Contains(vpn)) {
      return vma.get();
    }
  }
  return nullptr;
}

const Vma* AddressSpace::FindVma(uint64_t vpn) const {
  return const_cast<AddressSpace*>(this)->FindVma(vpn);
}

PageInfo* AddressSpace::FindPage(uint64_t vpn) {
  Vma* vma = FindVma(vpn);
  return vma != nullptr ? &vma->PageAt(vpn) : nullptr;
}

PageInfo* AddressSpace::PageByIndex(uint64_t idx) {
  if (idx >= total_pages_) {
    return nullptr;
  }
  // prefix[i] <= idx < prefix[i+1] picks vmas_[i]; upper_bound lands on prefix[i+1].
  const auto it =
      std::upper_bound(vma_page_prefix_.begin(), vma_page_prefix_.end(), idx);
  const size_t vma_index = static_cast<size_t>(it - vma_page_prefix_.begin()) - 1;
  return &vmas_[vma_index]->pages()[idx - vma_page_prefix_[vma_index]];
}

uint64_t AddressSpace::lowest_vpn() const {
  return vmas_.empty() ? 0 : vmas_.front()->start_vpn();
}

}  // namespace chronotier
