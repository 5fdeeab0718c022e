// Per-machine page arena: the index space behind the SoA page-metadata layout.
//
// Every PageInfo owned by a machine registers here and receives a dense 32-bit index
// (stored back into PageInfo::arena). The arena then backs three things:
//   - the intrusive LRU lists, which link pages by index instead of by pointer
//     (8 bytes per page instead of 16, and indices survive serialization),
//   - the cold side-array of ColdPage records (the oracle access count), read only by
//     metrics and tests so the hot record stays 32 bytes. The access path does not touch
//     it: LogAccess appends the page's index to a fixed inline log, and a full log is
//     applied in one tight loop whose increments are independent, so their cache misses
//     overlap instead of sitting on each access's critical path. The machine applies the
//     rest when Run returns; cold() CHECKs that nothing is pending,
//   - an O(1) index -> owning-Vma map for samplers that hold only a page.
//
// Registration is append-only: VMAs never unmap in this model, and Vma::pages_ is sized
// once at construction, so the PageInfo* values stored here stay stable for the machine's
// lifetime.

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
  PageArena() = default;
  PageArena(const PageArena&) = delete;
  PageArena& operator=(const PageArena&) = delete;

  // Registers every page of `vma` (which must be fully constructed and must not move
  // afterwards), assigning contiguous indices.
  void RegisterVma(Vma* vma);

  // Registers one standalone page (unit tests and micro-benches that build loose pages
  // without a VMA).
  void RegisterPage(PageInfo* page) { Append(page, nullptr); }

  PageInfo* page(uint32_t idx) { return pages_[idx]; }
  const PageInfo* page(uint32_t idx) const { return pages_[idx]; }

  // Owning VMA of the idx-th page; nullptr for standalone pages.
  Vma* vma_of(uint32_t idx) const { return vma_of_[idx]; }  // detlint:allow(dead-symbol) reverse mapping of RegisterVma, kept with it

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

  uint32_t size() const { return static_cast<uint32_t>(pages_.size()); }

 private:
  // Long enough that a flush's increments overlap many misses, short enough (1 KB) to
  // stay in L1 beside the replay loop's other state.
  static constexpr uint32_t kAccessLogEntries = 256;

  void Append(PageInfo* page, Vma* vma);

  std::vector<PageInfo*> pages_;
  std::vector<Vma*> vma_of_;
  std::vector<ColdPage> cold_;
  std::array<uint32_t, kAccessLogEntries> log_ = {};
  uint32_t log_size_ = 0;
};

}  // namespace chronotier
