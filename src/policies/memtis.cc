#include "src/policies/memtis.h"

#include <algorithm>
#include <bit>

namespace chronotier {

void MemtisPolicy::Attach(Machine& machine) {
  machine_ = &machine;
  // The machine's sampler runs at the PebsConfig defaults (sample period, rate cap and
  // per-sample cost); Memtis only subscribes to it.
  machine.pebs().set_handler([this](const PebsSample& sample) { OnSample(sample); });
  machine.set_pebs_active(true);
  machine.queue().SchedulePeriodic(kAdjustPeriod, [this](SimTime now) { AdjustTick(now); });
  machine.queue().SchedulePeriodic(kCoolingPeriod,
                                   [this](SimTime now) { CoolingTick(now); });
}

void MemtisPolicy::OnDemandAllocation(Process& /*process*/, Vma& vma, PageInfo& unit,
                                      SimTime /*now*/) {
  // New units enter the histogram with a zero counter.
  histogram_.Add(0, vma.UnitPages(unit.vpn));
}

void MemtisPolicy::OnSample(const PebsSample& sample) {
  Process* process = machine_->ProcessByPid(sample.pid);
  if (process == nullptr) {
    return;
  }
  Vma* vma = process->aspace().FindVma(sample.vpn);
  if (vma == nullptr) {
    return;
  }
  PageInfo& unit = vma->HotnessUnit(sample.vpn);
  if (!unit.present()) {
    return;
  }

  const uint64_t old_count = unit.policy_word;
  unit.policy_word = static_cast<uint32_t>(
      std::min<uint64_t>(old_count + 1, 0x00FFFFFFull));
  // One bucket move per base page of the unit (512 for an unsplit huge group), done as a
  // single bulk transfer instead of 512 identical calls.
  histogram_.TransferValues(old_count, unit.policy_word, vma->UnitPages(unit.vpn));

  if (enable_splitting_ && unit.huge_head()) {
    MaybeTrackSplit(*vma, unit, sample.vpn);
  }

  if (unit.node != kFastNode && unit.policy_word >= hot_threshold_ &&
      !unit.Has(kPageQueued)) {
    unit.Set(kPageQueued);
    promote_queue_.push_back(&unit);
    EmitTrace(machine_->tracer(), TraceCategory::kPolicy, TraceEventType::kPolicyEnqueue,
              sample.time, unit.owner, unit.vpn, unit.node, kFastNode, unit.policy_word,
              hot_threshold_);
  }
}

void MemtisPolicy::MaybeTrackSplit(Vma& vma, PageInfo& unit, uint64_t vpn) {
  SplitStats& stats = split_candidates_[&unit];
  ++stats.samples;
  const uint64_t subpage = (vpn - unit.vpn) % kBasePagesPerHugePage;
  stats.subpage_bitmap |= 1ull << (subpage % 64);
  if (stats.samples < kSplitMinSamples) {
    return;
  }
  const int distinct = std::popcount(stats.subpage_bitmap);
  if (distinct <= kSplitMaxDistinctSubpages) {
    // Hot but sparse: split so the few hot 4K pages can migrate alone. The head keeps its
    // counter; the cold split-out pages join the histogram at zero.
    const uint64_t unit_pages = vma.UnitPages(unit.vpn);
    if (machine_->SplitHugeUnit(vma, unit)) {
      histogram_.RemoveValue(unit.policy_word, unit_pages - 1);
      for (uint64_t i = 1; i < unit_pages; ++i) {
        histogram_.Add(0, 1);
      }
    }
  }
  split_candidates_.erase(&unit);
}

void MemtisPolicy::AdjustTick(SimTime now) {
  RecomputeHotThreshold();
  EmitTrace(machine_->tracer(), TraceCategory::kTuning, TraceEventType::kTuningUpdate, now,
            kTraceNoPid, kTraceNoVpn, kInvalidNode, kInvalidNode, hot_threshold_,
            static_cast<uint64_t>(promote_queue_.size()));

  uint64_t promoted = 0;
  // Drain in FIFO order up to the batch limit; pages that cooled below the threshold since
  // enqueueing are skipped.
  std::vector<PageInfo*> retry;
  for (PageInfo* unit : promote_queue_) {
    unit->ClearFlag(kPageQueued);
    if (unit->node == kFastNode || unit->policy_word < hot_threshold_) {
      continue;
    }
    if (promoted >= kPromoteBatchUnits) {
      unit->Set(kPageQueued);
      retry.push_back(unit);
      continue;
    }
    Vma* vma = machine_->ResolveVma(*unit);
    if (vma == nullptr) {
      continue;
    }
    EmitTrace(machine_->tracer(), TraceCategory::kPolicy, TraceEventType::kPolicyPromote,
              now, unit->owner, unit->vpn, unit->node, kFastNode, unit->policy_word);
    if (machine_->migration()
            .Submit(*vma, *unit, kFastNode, MigrationClass::kAsync,
                    MigrationSource::kPolicyDaemon)
            .admitted) {
      ++promoted;
    }
  }
  promote_queue_ = std::move(retry);

  // Bookkeeping cost: one histogram scan.
  machine_->ChargeKernel(KernelWork::kPolicy, 2 * kMicrosecond);
}

void MemtisPolicy::CoolingTick(SimTime /*now*/) {
  // Halve every unit counter; in bucket space the histogram shifts down one level.
  uint64_t units = 0;
  for (auto& process : machine_->processes()) {
    for (auto& vma : process->aspace().vmas()) {
      vma->ForEachUnit([&units](PageInfo& unit) {
        unit.policy_word >>= 1;
        ++units;
      });
    }
  }
  histogram_.ShiftDownOne();
  split_candidates_.clear();
  // Cooling walks unit metadata (not PTEs): cheaper than a scan but not free.
  machine_->ChargeKernel(KernelWork::kPolicy,
                         static_cast<SimDuration>(units) * 20 * kNanosecond);
}

void MemtisPolicy::RecomputeHotThreshold() {
  // Find the smallest counter value such that units at or above it fit in the fast tier.
  const uint64_t fast_capacity = machine_->memory().node(kFastNode).capacity_pages();
  uint64_t cumulative = 0;
  int bucket = histogram_.num_buckets() - 1;
  for (; bucket > 0; --bucket) {
    cumulative += histogram_.bucket_count(bucket);
    if (cumulative > fast_capacity) {
      ++bucket;  // This bucket overflows the fast tier; hot set starts one above.
      break;
    }
  }
  bucket = std::clamp(bucket, 1, histogram_.num_buckets() - 1);
  hot_threshold_ = std::max<uint64_t>(Log2Histogram::BucketLowerBound(bucket), 2);
}

SimDuration MemtisPolicy::OnHintFault(Process& /*process*/, Vma& /*vma*/, PageInfo& /*unit*/,
                                      bool /*is_store*/, SimTime /*now*/) {
  // Memtis does not poison PTEs; nothing to do.
  return 0;
}

}  // namespace chronotier
