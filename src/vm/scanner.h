// Cyclic address-space range scanner.
//
// All fault-based tiering policies (Linux NUMA balancing, AutoTiering, TPP, Chrono's
// Ticking-scan) walk a process's virtual address space in fixed-size steps, poisoning PTEs
// as they go. RangeScanner provides that walk: it keeps a cursor, visits page-table entries
// in address order, wraps at the end of the space, and understands huge-page units (an
// unsplit 2MB mapping is one PMD entry, visited once).
//
// ScanChunk is a header template: the scan daemons' visitors inline straight into the
// walk over the packed page arrays, with no std::function indirection on the hot path.

#pragma once

#include <algorithm>
#include <cstdint>

#include "src/vm/address_space.h"

namespace chronotier {

class RangeScanner {
 public:
  explicit RangeScanner(AddressSpace* aspace) : aspace_(aspace) {}

  // Result of one chunk scan, for cost accounting.
  struct ChunkResult {
    uint64_t units_visited = 0;  // PTE/PMD entries examined (each costs one walk step).
    uint64_t pages_covered = 0;  // Base pages of address space advanced over.
    bool wrapped = false;        // Cursor wrapped past the end of the space.
  };

  // Scans forward from the cursor covering up to `max_pages` base pages of address space,
  // invoking fn(vma, unit_page) once per hotness unit (base page, or head of an unsplit
  // huge group). Wraps around at most once; an empty address space returns zeroes.
  template <typename Fn>
  ChunkResult ScanChunk(uint64_t max_pages, Fn&& fn) {
    ChunkResult result;
    auto& vmas = aspace_->vmas();
    if (vmas.empty() || max_pages == 0) {
      return result;
    }
    if (vma_index_ >= vmas.size()) {
      vma_index_ = 0;
      offset_ = 0;
    }
    // A single chunk never covers the space more than once.
    max_pages = std::min(max_pages, aspace_->total_pages());

    while (result.pages_covered < max_pages) {
      Vma& vma = *vmas[vma_index_];
      if (offset_ >= vma.num_pages()) {
        offset_ = 0;
        ++vma_index_;
        if (vma_index_ >= vmas.size()) {
          vma_index_ = 0;
          result.wrapped = true;
        }
        continue;
      }

      const uint64_t vpn = vma.start_vpn() + offset_;
      PageInfo& unit = vma.HotnessUnit(vpn);
      const uint64_t unit_pages = vma.UnitPages(vpn);

      fn(vma, unit);
      ++result.units_visited;
      result.pages_covered += unit_pages;
      offset_ += unit_pages;
    }
    // Normalize an exact-boundary finish so the lap is reported on this chunk.
    if (vma_index_ == vmas.size() - 1 && offset_ >= vmas.back()->num_pages()) {
      vma_index_ = 0;
      offset_ = 0;
      result.wrapped = true;
    }
    return result;
  }

  void Reset() {
    vma_index_ = 0;
    offset_ = 0;
  }

 private:
  AddressSpace* aspace_;
  size_t vma_index_ = 0;  // Index into aspace_->vmas().
  uint64_t offset_ = 0;   // Page offset within the current VMA.
};

}  // namespace chronotier
