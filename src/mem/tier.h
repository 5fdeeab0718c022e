// Physical memory tier model.
//
// A tier corresponds to one NUMA memory node of the paper's testbed: node 0 is local DRAM
// ("fast memory"), node 1 is the CPU-less Optane-PM/CXL node ("slow memory"). A tier carries
// capacity accounting, asymmetric load/store latencies, and the Linux-style reclaim
// watermarks extended with Chrono's promotion-aware `pro` watermark (Section 3.3.1).

#pragma once

#include <cstdint>
#include <string>

#include "src/common/time.h"

namespace chronotier {

inline constexpr uint64_t kBasePageSize = 4096;
inline constexpr uint64_t kHugePageSize = 2 * 1024 * 1024;
inline constexpr uint64_t kBasePagesPerHugePage = kHugePageSize / kBasePageSize;  // 512

// NUMA node id; node 0 (the topology tree's root) is always the fast tier.
using NodeId = int;
inline constexpr NodeId kFastNode = 0;
inline constexpr NodeId kSlowNode = 1;
inline constexpr NodeId kInvalidNode = -1;

// Static description of a tier's hardware characteristics.
struct TierSpec {
  std::string name = "dram";
  uint64_t capacity_pages = 0;  // In base pages.
  SimDuration load_latency = 80 * kNanosecond;
  SimDuration store_latency = 80 * kNanosecond;
  // Sustainable page-copy bandwidth for migrations in/out of this tier.
  double migration_bandwidth_bytes_per_sec = 8.0e9;

  static TierSpec Dram(uint64_t capacity_pages);
  static TierSpec OptanePmem(uint64_t capacity_pages);
};

// Linux-style per-node watermarks, in free pages. Demotion triggers when free < high and
// refills to `pro` (Chrono) or `high` (baselines); allocation fails below `min`.
struct Watermarks {
  uint64_t min = 0;
  uint64_t low = 0;
  uint64_t high = 0;
  uint64_t pro = 0;  // Chrono's promotion-aware watermark; >= high.
};

class MemoryTier {
 public:
  explicit MemoryTier(TierSpec spec);

  // Reserves `pages` frames. Fails (returns false) when it would push free below the `min`
  // watermark; pass allow_below_min for migration targets, which may dip to zero. While an
  // injected allocation-failure window holds the strict-min floor, allow_below_min is
  // ignored and every allocation honours `min`.
  bool TryAllocate(uint64_t pages = 1, bool allow_below_min = false);
  void Release(uint64_t pages = 1);

  // Default watermark derivation: min = 0.4% of capacity, low = 2x min, high = 3x min
  // (mirrors the kernel's watermark_scale heuristics closely enough for the model).
  void SetDefaultWatermarks();
  void SetProWatermarkGap(uint64_t gap_pages);  // pro = high + gap.

  const TierSpec& spec() const { return spec_; }
  const Watermarks& watermarks() const { return watermarks_; }

  uint64_t capacity_pages() const { return spec_.capacity_pages; }
  uint64_t free_pages() const { return free_pages_; }
  uint64_t used_pages() const { return spec_.capacity_pages - free_pages_; }

  bool BelowHighWatermark() const { return free_pages_ < watermarks_.high; }

  SimDuration AccessLatency(bool is_store) const {
    return is_store ? spec_.store_latency : spec_.load_latency;
  }

  // Time to copy `bytes` through this tier's migration path.
  SimDuration MigrationCopyTime(uint64_t bytes) const;

  // --- fault & degradation surface (src/fault) ---

  // Moves already-allocated frames onto the quarantined list (persistent copy fault on a
  // reserved migration target). Quarantined frames stay unusable for the rest of the run.
  void QuarantineAllocated(uint64_t pages);
  uint64_t quarantined_pages() const { return quarantined_pages_; }

  // Degraded mode: the migration engine pauses new promotions into a degraded tier while
  // demotion keeps draining it.
  bool degraded() const { return degraded_; }
  void set_degraded(bool degraded) { degraded_ = degraded; }

  // Pressure spike: steals up to `pages` free frames (shrinking effective capacity) and
  // returns the number stolen; ReturnStolenPages gives them back when the spike ends.
  uint64_t StealFreePages(uint64_t pages);
  void ReturnStolenPages(uint64_t pages);
  uint64_t pressure_stolen_pages() const { return pressure_stolen_pages_; }

  // Injected allocation-failure window: every allocation honours the `min` floor, even
  // ALLOC_HARDER-style allow_below_min callers.
  void set_strict_min_floor(bool strict) { strict_min_floor_ = strict; }
  bool strict_min_floor() const { return strict_min_floor_; }

  // Frames live for page data right now: capacity minus free, quarantined and stolen.
  uint64_t allocated_pages() const {
    return spec_.capacity_pages - free_pages_ - quarantined_pages_ - pressure_stolen_pages_;
  }

 private:
  TierSpec spec_;
  Watermarks watermarks_;
  uint64_t free_pages_;
  uint64_t quarantined_pages_ = 0;
  uint64_t pressure_stolen_pages_ = 0;
  bool degraded_ = false;
  bool strict_min_floor_ = false;
};

}  // namespace chronotier
