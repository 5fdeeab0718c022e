// Per-page metadata: the model's `struct page`.
//
// Every policy in the paper observes memory through page flags (present, PROT_NONE,
// accessed/dirty bits, PG_probed, the demoted marker) plus small per-page scratch words
// (Chrono's 4-byte CIT timestamp, AutoTiering's 8-bit LAP vector, Multi-Clock's level,
// Memtis's PEBS counter). This struct carries all of them in a 32-byte hot record: the
// fields the scan/access/migration paths touch every tick, packed so a 64-byte cache line
// holds two pages. The oracle access count lives in a parallel cold side-array owned by the
// PageArena (src/vm/page_arena.h) and is read only by metrics/tests — never by a
// TieringPolicy. The access path logs the page's arena index and the arena applies the
// counts in batches, so the cold record is never on an access's own critical path.

#pragma once

#include <cstdint>

#include "src/mem/tier.h"

namespace chronotier {

// Page flag bits.
enum PageFlag : uint16_t {
  kPagePresent = 1u << 0,   // Backed by a physical frame.
  kPageProtNone = 1u << 1,  // PTE poisoned; next access takes a hint fault.
  kPageAccessed = 1u << 2,  // Hardware accessed (young) bit.
  kPageDirty = 1u << 3,     // Hardware dirty bit.
  kPageHugeHead = 1u << 4,  // First base page of a mapped 2MB huge page.
  kPageHugeTail = 1u << 5,  // Non-head member of a mapped 2MB huge page.
  kPageProbed = 1u << 6,    // PG_probed: DCSC victim (Section 3.2.2).
  kPageDemoted = 1u << 7,   // Recently demoted; thrashing-monitor marker (Section 3.3.2).
  kPageCandidate = 1u << 8, // In Chrono's promotion-candidate set (mirrors the XArray).
  kPageQueued = 1u << 9,    // In a policy's promotion queue (prevents double enqueue).
  kPageUnevictable = 1u << 10,
  // Oracle flag (harness/metrics only, never read by policies): the page was accessed while
  // resident in the slow tier. Denominator of the paper's page promotion ratio (PPR).
  kPageOracleTouchedSlow = 1u << 11,
  // Owned by an in-flight migration transaction (non-exclusive copy in progress). The page
  // stays mapped, resident and writable; reclaim skips it and a second submission is
  // refused until the transaction commits or aborts.
  kPageMigrating = 1u << 12,
  // Bits 13-14 encode LruMembership (see lru_state()); bit 15 is spare. Every existing
  // flags consumer reads through a mask that excludes them.
};

// Which LRU list a page currently sits on. Stored in flags bits 13-14.
enum class LruMembership : uint8_t {
  kNone = 0,
  kActive,
  kInactive,
};

// Sentinel for "never scanned" in the 32-bit millisecond CIT timestamp field.
inline constexpr uint32_t kNoScanTimestamp = 0xFFFFFFFFu;

// Null link / "not registered" sentinel for 32-bit page-arena indices.
inline constexpr uint32_t kNoPageIndex = 0xFFFFFFFFu;

// 1-byte packed owning-process id. Converts implicitly to/from int32_t so call sites keep
// reading as plain integers; pids are capped at 127 (CHECKed where processes are created).
struct PackedPid {
  constexpr PackedPid() = default;
  constexpr PackedPid(int32_t pid) : v(static_cast<int8_t>(pid)) {}
  constexpr operator int32_t() const { return v; }
  int8_t v = -1;
};

// 1-byte packed NUMA node id. kMaxNodes is 16, so int8_t covers every topology plus the
// kInvalidNode (-1) sentinel.
struct PackedNode {
  constexpr PackedNode() = default;
  constexpr PackedNode(NodeId node) : v(static_cast<int8_t>(node)) {}
  constexpr operator NodeId() const { return v; }
  int8_t v = static_cast<int8_t>(kInvalidNode);
};

struct PageInfo {
  // Virtual page number within the owning address space. 32 bits covers 16 TB of mapped
  // virtual space per process at 4 KB pages; MapRegion CHECKs the bound.
  uint32_t vpn = 0;

  // This page's own index in the owning machine's PageArena (kNoPageIndex until
  // registered). Lets the access path reach the cold side-array and the LRU lists link
  // pages by index without a lookup.
  uint32_t arena = kNoPageIndex;

  // Intrusive LRU linkage: 32-bit arena indices instead of 16 bytes of pointers.
  uint32_t lru_prev = kNoPageIndex;
  uint32_t lru_next = kNoPageIndex;

  // Chrono's CIT metadata: the Ticking-scan timestamp in *milliseconds* of simulated time,
  // deliberately 4 bytes wide to honour the paper's space budget (Section 3.1.1: "the
  // metadata required for CIT occupies only 4 bytes per page").
  uint32_t scan_ts_ms = kNoScanTimestamp;

  // Per-policy scratch word: AutoTiering LAP vector, Multi-Clock level, Memtis/PEBS access
  // counter, Chrono candidate round count. Policies must treat it as their own.
  uint32_t policy_word = 0;

  // Store generation, bumped by the machine on every write to the unit. The migration
  // engine's model of the hardware dirty-bit re-check: a generation change across a copy
  // window means the copy is stale and the transaction must abort. Harness-maintained;
  // never read by policies.
  uint32_t write_gen = 0;

  uint16_t flags = 0;
  PackedPid owner;   // Owning process id.
  PackedNode node;   // NUMA node currently backing the page.

  bool Has(PageFlag f) const { return (flags & f) != 0; }
  void Set(PageFlag f) { flags = static_cast<uint16_t>(flags | f); }
  void ClearFlag(PageFlag f) { flags = static_cast<uint16_t>(flags & ~f); }

  // LRU membership tag, packed into flags bits 13-14 (maintained by NodeLru/PageList).
  static constexpr uint16_t kLruShift = 13;
  static constexpr uint16_t kLruMask = uint16_t{3} << kLruShift;
  LruMembership lru_state() const {
    return static_cast<LruMembership>((flags & kLruMask) >> kLruShift);
  }
  void set_lru_state(LruMembership m) {
    flags = static_cast<uint16_t>((flags & ~kLruMask) |
                                  (static_cast<uint16_t>(m) << kLruShift));
  }

  bool present() const { return Has(kPagePresent); }
  bool prot_none() const { return Has(kPageProtNone); }
  bool accessed() const { return Has(kPageAccessed); }
  bool huge_head() const { return Has(kPageHugeHead); }
};

// The hot record must stay within the 32-byte budget (two per cache line) and keep natural
// alignment so per-Vma arrays never straddle fields across lines.
static_assert(sizeof(PageInfo) == 32, "hot page record must stay 32 bytes");
static_assert(alignof(PageInfo) == 4, "hot page record is uint32-aligned");
static_assert(sizeof(PackedPid) == 1 && sizeof(PackedNode) == 1);

// Oracle metadata, split off the hot record: harness/test use only, invisible to policies
// and kept off the scan path's cache lines. Indexed by PageInfo::arena in the PageArena's
// cold side-array.
struct ColdPage {
  uint64_t access_count = 0;
};

}  // namespace chronotier
