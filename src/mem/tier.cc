#include "src/mem/tier.h"

#include <algorithm>

#include "src/common/check.h"

namespace chronotier {

TierSpec TierSpec::Dram(uint64_t capacity_pages) {
  TierSpec spec;
  spec.name = "dram";
  spec.capacity_pages = capacity_pages;
  spec.load_latency = 80 * kNanosecond;
  spec.store_latency = 80 * kNanosecond;
  spec.migration_bandwidth_bytes_per_sec = 12.0e9;
  return spec;
}

TierSpec TierSpec::OptanePmem(uint64_t capacity_pages) {
  TierSpec spec;
  spec.name = "optane-pm";
  spec.capacity_pages = capacity_pages;
  // ~200ns average load latency per the paper's testbed; Optane stores are notably more
  // expensive than loads (on-DIMM write buffering), which drives the paper's observation
  // that Chrono helps most on write-intensive mixes.
  spec.load_latency = 250 * kNanosecond;
  spec.store_latency = 450 * kNanosecond;
  spec.migration_bandwidth_bytes_per_sec = 4.0e9;
  return spec;
}

TierSpec TierSpec::CxlMemory(uint64_t capacity_pages) {
  TierSpec spec;
  spec.name = "cxl-mem";
  spec.capacity_pages = capacity_pages;
  spec.load_latency = 210 * kNanosecond;
  spec.store_latency = 230 * kNanosecond;
  spec.migration_bandwidth_bytes_per_sec = 6.0e9;
  return spec;
}

MemoryTier::MemoryTier(TierSpec spec) : spec_(std::move(spec)), free_pages_(spec_.capacity_pages) {
  SetDefaultWatermarks();
}

void MemoryTier::SetDefaultWatermarks() {
  const uint64_t min = std::max<uint64_t>(spec_.capacity_pages / 250, 4);
  watermarks_.min = min;
  watermarks_.low = 2 * min;
  watermarks_.high = 3 * min;
  watermarks_.pro = watermarks_.high;
}

void MemoryTier::SetProWatermarkGap(uint64_t gap_pages) {
  // Never let pro exceed half the tier: a runaway rate limit must not evict everything.
  const uint64_t cap = spec_.capacity_pages / 2;
  watermarks_.pro = std::min(watermarks_.high + gap_pages, std::max(watermarks_.high, cap));
}

bool MemoryTier::TryAllocate(uint64_t pages, bool allow_below_min) {
  const uint64_t floor = (allow_below_min && !strict_min_floor_) ? 0 : watermarks_.min;
  if (free_pages_ < pages || free_pages_ - pages < floor) {
    ++failed_allocations_;
    return false;
  }
  free_pages_ -= pages;
  return true;
}

void MemoryTier::Release(uint64_t pages) {
  CHECK_LE(free_pages_ + quarantined_pages_ + pressure_stolen_pages_ + pages,
           spec_.capacity_pages)
      << "tier=" << spec_.name << " double free of " << pages << " pages";
  free_pages_ += pages;
}

void MemoryTier::QuarantineAllocated(uint64_t pages) {
  // The frames being quarantined are allocated (a migration target reservation), so free
  // is untouched; they move from the allocated population to the quarantined list.
  CHECK_LE(pages, allocated_pages())
      << "tier=" << spec_.name << " quarantining more frames than are allocated";
  quarantined_pages_ += pages;
}

uint64_t MemoryTier::StealFreePages(uint64_t pages) {
  const uint64_t stolen = std::min(pages, free_pages_);
  free_pages_ -= stolen;
  pressure_stolen_pages_ += stolen;
  return stolen;
}

void MemoryTier::ReturnStolenPages(uint64_t pages) {
  CHECK_LE(pages, pressure_stolen_pages_)
      << "tier=" << spec_.name << " returning more pressure-stolen pages than were stolen";
  pressure_stolen_pages_ -= pages;
  free_pages_ += pages;
}

SimDuration MemoryTier::MigrationCopyTime(uint64_t bytes) const {
  if (spec_.migration_bandwidth_bytes_per_sec <= 0) {
    return 0;
  }
  const double seconds = static_cast<double>(bytes) / spec_.migration_bandwidth_bytes_per_sec;
  return static_cast<SimDuration>(seconds * kSecond);
}

}  // namespace chronotier
