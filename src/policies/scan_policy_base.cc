#include "src/policies/scan_policy_base.h"

#include <algorithm>

namespace chronotier {

void ScanPolicyBase::Attach(Machine& machine) {
  machine_ = &machine;
  for (auto& process : machine.processes()) {
    StartDaemonFor(*process);
  }
}

void ScanPolicyBase::OnProcessCreated(Process& process) {
  if (machine_ != nullptr) {
    StartDaemonFor(process);
  }
}

void ScanPolicyBase::StartDaemonFor(Process& process) {
  scanners_.push_back(
      ProcessScanner{&process, std::make_unique<RangeScanner>(&process.aspace())});
  // scanners_ may reallocate as processes arrive; capture the index, not a pointer.
  const size_t index = scanners_.size() - 1;

  machine_->queue().SchedulePeriodic(TickInterval(process.aspace().total_pages()),
                                     [this, index](SimTime now) {
                                       ScanTick(scanners_[index], now);
                                     });
}

SimDuration ScanPolicyBase::TickInterval(uint64_t total_pages) const {
  const uint64_t total = std::max<uint64_t>(total_pages, 1);
  const uint64_t steps_per_lap =
      std::max<uint64_t>((total + geometry_.scan_step_pages - 1) / geometry_.scan_step_pages, 1);
  return std::max<SimDuration>(
      geometry_.scan_period / static_cast<SimDuration>(steps_per_lap), kMillisecond);
}

void ScanPolicyBase::ScanTick(ProcessScanner& ps, SimTime now) {
  uint64_t visited = 0;
  const RangeScanner::ChunkResult result = ps.scanner->ScanChunk(
      geometry_.scan_step_pages, [this, &ps, now, &visited](Vma& vma, PageInfo& unit) {
        ScanVisit(*ps.process, vma, unit, now);
        ++visited;
      });
  machine_->ChargeScanCost(result.units_visited);
  if (extra_visit_cost_ > 0) {
    machine_->ChargeKernel(KernelWork::kScan,
                           static_cast<SimDuration>(visited) * extra_visit_cost_);
  }
  if (Tracer* tracer = machine_->tracer()) {
    tracer->Poll(now);  // Scan ticks are periodic: a cheap telemetry heartbeat.
    if (result.wrapped) {
      EmitTrace(tracer, TraceCategory::kScan, TraceEventType::kScanLap, now,
                ps.process->pid(), kTraceNoVpn, kInvalidNode, kInvalidNode,
                result.units_visited);
    }
  }
  AfterScanTick(*ps.process, now, result.wrapped);
}

}  // namespace chronotier
