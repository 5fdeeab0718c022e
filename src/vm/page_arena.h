// Per-machine page arena: the index space behind the SoA page-metadata layout.
//
// Every PageInfo owned by a machine registers here and receives a dense 32-bit index
// (stored back into PageInfo::arena). The index is the one way to address a page by
// number: it resolves through a group table holding one PageInfo* per 64 indices, so
// `page(idx)` is `groups_[idx >> 6] + (idx & 63)` — one load from a table small enough to
// stay in L1 (8 bytes per 64 pages, not 8 bytes per page). Each VMA's range starts on a
// group boundary, so a group never straddles two Vma::pages_ arrays; the indices between
// the end of one VMA and the next boundary are padding that names no page and must never
// be resolved. The arena then backs three things:
//   - the intrusive LRU lists, which link pages by index instead of by pointer
//     (8 bytes per page instead of 16, and indices survive serialization),
//   - the per-process TranslationCache, whose slots hold 4-byte indices,
//   - the cold side-array of ColdPage records (the oracle access count), read only by
//     metrics and tests so the hot record stays 32 bytes. The access path does not touch
//     it: LogAccess appends the page's index to a fixed inline log, and a full log is
//     applied in one tight loop whose increments are independent, so their cache misses
//     overlap instead of sitting on each access's critical path. The machine applies the
//     rest when Run returns; cold() CHECKs that nothing is pending.
//
// Registration is append-only: VMAs never unmap in this model, and Vma::pages_ is sized
// once at construction, so the PageInfo* values in the group table stay stable for the
// machine's lifetime. The table itself grows geometrically as VMAs register.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/vm/page.h"

namespace chronotier {

class Vma;

class PageArena {
 public:
  // Indices per group table entry.
  static constexpr uint32_t kGroupShift = 6;
  static constexpr uint32_t kGroupPages = 1u << kGroupShift;

  // Read-only view of the group table. A registration may reallocate the table, so a
  // view is valid until the next RegisterVma/RegisterPage; the replay loop holds one for
  // a process's run, during which nothing maps.
  class Groups {
   public:
    explicit Groups(PageInfo* const* table) : table_(table) {}
    PageInfo* page(uint32_t idx) const {
      return table_[idx >> kGroupShift] + (idx & (kGroupPages - 1));
    }

   private:
    PageInfo* const* table_;
  };

  PageArena() = default;
  PageArena(const PageArena&) = delete;
  PageArena& operator=(const PageArena&) = delete;

  // Registers every page of `vma` (which must be fully constructed and must not move
  // afterwards), assigning contiguous indices from the next group boundary.
  void RegisterVma(Vma* vma);

  // Registers one standalone page, built loose without a VMA. It takes a group of its
  // own. Only tests build such pages: the machine registers every page through its VMA,
  // and no output can stand in for a page list or TLB slot over a handful of loose pages.
  // detlint:allow(dead-symbol) PageListTest.PushRemovePop needs it
  void RegisterPage(PageInfo* page) { RegisterRun(page, 1); }

  Groups groups() const { return Groups(groups_.data()); }
  PageInfo* page(uint32_t idx) const { return groups().page(idx); }

  // Oracle side-array access. Callers are metrics/tests only — policies never see this.
  // Valid only while no logged access is pending (between Machine::Run calls).
  const ColdPage& cold(uint32_t idx) const {
    CHECK_EQ(log_size_, 0u) << "oracle read with logged accesses still pending";
    return cold_[idx];
  }
  const ColdPage& cold(const PageInfo& page) const { return cold(page.arena); }

  // Records one access to the page at `idx` in the oracle, deferred: the count lands in
  // the cold array at the next full log or ApplyLoggedAccesses().
  void LogAccess(uint32_t idx) {
    log_[log_size_++] = idx;
    if (log_size_ == kAccessLogEntries) {
      ApplyLoggedAccesses();
    }
  }

  // Folds every logged access into the cold array and empties the log.
  void ApplyLoggedAccesses() {
    for (uint32_t i = 0; i < log_size_; ++i) {
      ++cold_[log_[i]].access_count;
    }
    log_size_ = 0;
  }

  // One past the highest assigned index, group padding included: the bound of a table
  // keyed by index. Padding entries of the cold array stay zero.
  uint32_t size() const { return static_cast<uint32_t>(cold_.size()); }

 private:
  // Long enough that a flush's increments overlap many misses, short enough (1 KB) to
  // stay in L1 beside the replay loop's other state.
  static constexpr uint32_t kAccessLogEntries = 256;

  // Assigns pages[0, count) contiguous indices starting on a fresh group.
  void RegisterRun(PageInfo* pages, uint64_t count);

  std::vector<PageInfo*> groups_;
  std::vector<ColdPage> cold_;
  std::array<uint32_t, kAccessLogEntries> log_ = {};
  uint32_t log_size_ = 0;
};

}  // namespace chronotier
