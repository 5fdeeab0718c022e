// Shared infrastructure for scan-daemon-based policies.
//
// Linux NUMA balancing, AutoTiering, TPP, Multi-Clock and Chrono's Ticking-scan all walk
// process address spaces periodically in fixed-size steps. ScanPolicyBase owns the
// per-process scanners and tick scheduling; subclasses implement what a scan visit does.

#pragma once

#include <memory>
#include <vector>

#include "src/harness/machine.h"
#include "src/harness/policy.h"

namespace chronotier {

// Default scan geometry (Table 2 in the paper): the scanner covers the whole address space
// once per `scan_period`, in chunks of `scan_step_pages`.
struct ScanGeometry {
  SimDuration scan_period = 60 * kSecond;
  uint64_t scan_step_pages = (256ull * 1024 * 1024) / kBasePageSize;  // 256 MB.
};

class ScanPolicyBase : public TieringPolicy {
 public:
  explicit ScanPolicyBase(ScanGeometry geometry = {}) : geometry_(geometry) {}

  void Attach(Machine& machine) override;
  void OnProcessCreated(Process& process) override;

  const ScanGeometry& geometry() const { return geometry_; }

 protected:
  // One scan-daemon visit to a hotness unit. `lap_complete` is true when this tick finished
  // a full lap over the process's address space.
  virtual void ScanVisit(Process& process, Vma& vma, PageInfo& unit, SimTime now) = 0;

  // Called after each per-process scan tick (subclasses hook per-lap logic here).
  virtual void AfterScanTick(Process& process, SimTime now, bool lap_wrapped) {
    (void)process;
    (void)now;
    (void)lap_wrapped;
  }

  Machine* machine() { return machine_; }

  // Scan-tick interval for an address space of `total_pages`: one step per tick, so a lap
  // over the whole space takes scan_period; never below 1 ms.
  SimDuration TickInterval(uint64_t total_pages) const;

  // Per-visit extra kernel cost beyond the PTE walk (e.g. AutoTiering LAP-list upkeep).
  void set_extra_visit_cost(SimDuration d) { extra_visit_cost_ = d; }

 private:
  struct ProcessScanner {
    Process* process;
    std::unique_ptr<RangeScanner> scanner;
  };

  void StartDaemonFor(Process& process);
  void ScanTick(ProcessScanner& ps, SimTime now);

  ScanGeometry geometry_;
  Machine* machine_ = nullptr;
  std::vector<ProcessScanner> scanners_;
  SimDuration extra_visit_cost_ = 0;
};

}  // namespace chronotier
