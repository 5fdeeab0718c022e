// Per-process software translation cache: the access-path fast lane.
//
// Every simulated access used to pay a full FindVma walk + HotnessUnit resolution before it
// could charge device latency. This cache short-circuits that translation the way a
// hardware TLB short-circuits a page-table walk: a small direct-mapped vpn -> arena-index
// array plus a last-hit VMA pointer for the miss path. An entry maps an accessed vpn to its
// *hotness unit* (the group head for an unsplit huge mapping), so a hit skips VMA lookup
// entirely. Slots name units by their PageArena index and resolve through the arena's
// group table, which the caller passes in (the replay loop hoists it).
//
// Validity contract (see DESIGN.md "Hot path & parallel harness"):
//   - PageInfo and Vma storage is pinned for the life of a process (Vma::pages_ never
//     resizes, VMAs are never unmapped), so a cached index always names the same page.
//   - An entry is installed only when the unit is present, not PROT_NONE and not owned by a
//     migration transaction; the machine re-checks that flag mask on every hit (one load +
//     mask on a word the access touches anyway), so a hit can never skip a demand fault, a
//     hint fault or a migration write-generation snapshot.
//   - The vpn -> unit mapping itself goes stale only when a huge group is split (tail vpns
//     stop aggregating to the head). Split therefore *must* invalidate; the machine also
//     invalidates on PROT_NONE poisoning, migration submit and migration commit so entries
//     never linger on units in motion (and so the flag re-check is belt and braces rather
//     than load-bearing for those transitions).

#pragma once

#include <array>
#include <cstdint>

#include "src/vm/page.h"
#include "src/vm/page_arena.h"

namespace chronotier {

class Vma;

class TranslationCache {
 public:
  // Direct-mapped entry count; power of two so the index is a mask. 32768 entries cover a
  // 128 MB base-page working set per process without conflict misses — comfortably above
  // the 96 MB per-process sets the benches sweep — at 128 KB of slots per process. One
  // entry per accessed vpn of a huge group keeps tail lookups O(1) too. (At 1024 entries
  // the bench workloads conflict-missed to a ~9% hit rate and the lane was a net wash.)
  static constexpr size_t kEntries = 32768;

  // Flags that must be exactly kPagePresent for the fast lane to be taken: the unit is
  // backed, not poisoned, and not owned by an in-flight migration transaction.
  static constexpr uint16_t kFastPathMask =
      kPagePresent | kPageProtNone | kPageMigrating;

  // One slot is the whole entry: the cached unit's arena index, kNoPageIndex when empty.
  using Slot = uint32_t;

  TranslationCache() { slots_.fill(kNoPageIndex); }

  // The cached unit for `vpn`, or nullptr on miss. Callers must re-check kFastPathMask
  // before acting on the translation.
  //
  // Slots are bare 4-byte arena indices (not {vpn, unit} pairs): the unit itself records
  // its vpn, and for an unsplit huge group the 512-aligned head covers exactly the vpns
  // within kBasePagesPerHugePage of it, so the tag load lands on the PageInfo line the
  // access is about to touch anyway. The index resolves through the arena's group table,
  // which stays L1-resident, so a slot costs a quarter of a {vpn, pointer} pair's
  // host-cache footprint — the 16 B variant measured as a net wash.
  PageInfo* Lookup(uint64_t vpn, PageArena::Groups groups) {
    const Slot idx = slots_[vpn & (kEntries - 1)];
    if (idx != kNoPageIndex) {
      PageInfo* unit = groups.page(idx);
      if (Covers(unit, vpn)) {
        ++hits_;
        return unit;
      }
    }
    ++misses_;
    return nullptr;
  }

  void Insert(uint64_t vpn, const PageInfo& unit) { slots_[vpn & (kEntries - 1)] = unit.arena; }

  // Host-cache hints for an access a few ops ahead, issued in two stages: first the slot
  // `vpn` maps to, then (once that line has arrived) the unit the slot names. Pure
  // __builtin_prefetch — no hit/miss/invalidation counter moves and no state changes, so
  // a hint cannot alter any simulated outcome; a stale or aliased slot only warms a line.
  void PrefetchSlot(uint64_t vpn) const { __builtin_prefetch(&slots_[vpn & (kEntries - 1)]); }
  void PrefetchUnit(uint64_t vpn, PageArena::Groups groups) const {
    const Slot idx = slots_[vpn & (kEntries - 1)];
    if (idx != kNoPageIndex) {
      __builtin_prefetch(groups.page(idx), /*rw=*/1);
    }
  }

  // Drops the entry translating `vpn` (if cached). An aliased entry for a different vpn
  // in the same slot is left alone — Lookup's Covers() check already rejects it for this
  // vpn, so it is not a stale translation of anything in the invalidated range.
  void Invalidate(uint64_t vpn, PageArena::Groups groups) {
    Slot& idx = slots_[vpn & (kEntries - 1)];
    if (idx != kNoPageIndex && Covers(groups.page(idx), vpn)) {
      idx = kNoPageIndex;
      ++invalidations_;
    }
  }

  // Drops every entry covering vpns [first_vpn, first_vpn + pages): the invalidation shape
  // for a hotness unit (pages = 512 for an unsplit huge group, 1 for a base page).
  void InvalidateRange(uint64_t first_vpn, uint64_t pages, PageArena::Groups groups) {
    if (pages >= kEntries) {
      Clear();
      return;
    }
    for (uint64_t vpn = first_vpn; vpn != first_vpn + pages; ++vpn) {
      Invalidate(vpn, groups);
    }
  }

  void Clear() {
    for (Slot& idx : slots_) {
      if (idx != kNoPageIndex) {
        ++invalidations_;
      }
      idx = kNoPageIndex;
    }
  }

  // The most recently resolved VMA, consulted by the miss path before a full FindVma walk.
  // Vma objects are pinned and never unmapped, so this pointer is always safe to probe.
  Vma* last_vma() const { return last_vma_; }
  void set_last_vma(Vma* vma) { last_vma_ = vma; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t invalidations() const { return invalidations_; }

 private:
  // True when `unit` is the hotness unit translating `vpn`: the unit's own page, or an
  // unsplit huge group head covering it (heads are 512-aligned, so the range test is
  // exact group membership). Split must invalidate before this could go stale — see the
  // validity contract above.
  static bool Covers(const PageInfo* unit, uint64_t vpn) {
    return unit->vpn == vpn ||
           (unit->huge_head() && vpn - unit->vpn < kBasePagesPerHugePage);
  }

  std::array<Slot, kEntries> slots_;
  Vma* last_vma_ = nullptr;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace chronotier
