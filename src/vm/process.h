// A simulated process: one address space plus a local virtual CPU clock.
//
// Processes execute concurrently (the testbed has enough cores for the paper's workloads);
// each advances its own clock by the charged latency of its accesses, and the machine aligns
// process clocks with kernel-event horizons.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/time.h"
#include "src/vm/address_space.h"
#include "src/vm/translation_cache.h"

namespace chronotier {

// Upper bound on memory nodes a machine can have (per-process residency counters are a
// fixed array). Two-tier machines use 2; topology sweeps go up to a root plus 8 endpoints.
inline constexpr int kMaxNodes = 16;

class Process {
 public:
  // detlint:allow(hot-path-alloc) by-value sink at process creation; moved, never copied per access
  Process(int32_t pid, std::string name) : pid_(pid), name_(std::move(name)), aspace_(pid) {}

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  int32_t pid() const { return pid_; }
  const std::string& name() const { return name_; }

  AddressSpace& aspace() { return aspace_; }
  const AddressSpace& aspace() const { return aspace_; }

  // Software translation cache (the access-path fast lane). Maintained by the machine:
  // consulted per op by Machine::RunProcessUntil, invalidated wherever unit state changes.
  TranslationCache& tlb() { return tlb_; }
  const TranslationCache& tlb() const { return tlb_; }

  SimTime clock() const { return clock_; }
  void AdvanceClock(SimDuration d) { clock_ += d; }
  void SyncClockTo(SimTime t) { clock_ = std::max(clock_, t); }

  // Extra stall inserted before every access. Experiments set it per tenant: the machine
  // folds the owning tenant's TenantSpec::access_delay into this field at assignment.
  // Code that drives a Machine directly may also set it per process.
  SimDuration access_delay() const { return access_delay_; }
  void set_access_delay(SimDuration d) { access_delay_ = d; }

  // Owning tenant index (TenantRegistry id). 0 — the implicit default tenant — unless the
  // machine assigns otherwise. Cached here for O(1) lookup on the access path.
  int tenant() const { return tenant_; }
  void set_tenant(int t) { tenant_ = t; }

  uint64_t completed_accesses() const { return completed_accesses_; }
  void CountAccess() { ++completed_accesses_; }

  // numa_stat analogue: resident base pages per node, maintained by the machine on
  // allocation, migration and teardown.
  uint64_t resident_pages(int node) const { return resident_pages_[static_cast<size_t>(node)]; }
  void AddResident(int node, int64_t delta) {
    resident_pages_[static_cast<size_t>(node)] =
        static_cast<uint64_t>(static_cast<int64_t>(resident_pages_[static_cast<size_t>(node)]) +
                              delta);
  }

  // DRAM-page percentage as plotted in Fig. 9.
  double FastTierResidencyPercent() const {
    uint64_t total = 0;
    for (uint64_t count : resident_pages_) {
      total += count;
    }
    if (total == 0) {
      return 0.0;
    }
    return 100.0 * static_cast<double>(resident_pages_[0]) / static_cast<double>(total);
  }

  // Set by the machine when the workload stream is exhausted.
  bool finished() const { return finished_; }
  void set_finished(bool f) { finished_ = f; }

  // Page size used by workloads when mapping regions (set by the harness from the policy's
  // preference or the experiment's pinned setting before workload Init runs).
  PageSizeKind default_page_kind() const { return default_page_kind_; }
  void set_default_page_kind(PageSizeKind kind) { default_page_kind_ = kind; }

 private:
  int32_t pid_;
  std::string name_;  // detlint:allow(hot-path-alloc) constructed once per process, read-only afterwards
  AddressSpace aspace_;
  TranslationCache tlb_;
  SimTime clock_ = 0;
  SimDuration access_delay_ = 0;
  int tenant_ = 0;
  uint64_t completed_accesses_ = 0;
  std::array<uint64_t, kMaxNodes> resident_pages_ = {};
  bool finished_ = false;
  PageSizeKind default_page_kind_ = PageSizeKind::kBase;
};

}  // namespace chronotier
