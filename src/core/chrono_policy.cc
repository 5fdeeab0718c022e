#include "src/core/chrono_policy.h"

#include <algorithm>

#include "src/core/cit.h"

namespace chronotier {

ChronoPolicy::ChronoPolicy(ChronoConfig config, std::string label)
    : ScanPolicyBase(config.geometry),
      config_(config),
      label_(std::move(label)),
      filter_(config.filter_rounds),
      controller_(config.delta_step,
                  static_cast<uint32_t>(config.min_cit_threshold / kMillisecond),
                  static_cast<uint32_t>(config.max_cit_threshold / kMillisecond)),
      dcsc_(config.b_buckets, config.geometry.scan_period),
      thrash_(config.thrash_ratio_threshold, config.geometry.scan_period),
      rng_(SplitMix64(0xC17C17C17ull)),
      threshold_ms_(static_cast<uint32_t>(config.initial_cit_threshold / kMillisecond)),
      rate_limit_mbps_(config.initial_rate_limit_mbps) {}

void ChronoPolicy::Attach(Machine& machine) {
  ScanPolicyBase::Attach(machine);

  machine.queue().SchedulePeriodic(config_.geometry.scan_period,
                                   [this](SimTime now) { PeriodTick(now); });
  machine.queue().SchedulePeriodic(config_.queue_drain_period,
                                   [this](SimTime now) { DrainTick(now); });
  if (config_.tuning == ChronoTuningMode::kDcsc) {
    machine.queue().SchedulePeriodic(config_.dcsc_period,
                                     [this](SimTime now) { DcscTick(now); });
  }

  // The largest process's scan-tick interval sizes the pro-watermark gap (2 x interval x
  // rate).
  uint64_t largest = 0;
  for (auto& process : machine.processes()) {
    largest = std::max(largest, process->aspace().total_pages());
  }
  nominal_tick_interval_ = TickInterval(largest);
  UpdateProWatermark();
}

void ChronoPolicy::ScanVisit(Process& /*process*/, Vma& /*vma*/, PageInfo& unit, SimTime now) {
  if (!unit.present()) {
    return;
  }
  machine()->PoisonUnit(unit);
  if (unit.node != kFastNode && !unit.Has(kPageProbed)) {
    // Slow-tier pages get a fresh Ticking-scan timestamp each visit; DCSC victims keep
    // their probe clock (their fault is routed to the collector instead).
    StampScanTimestamp(unit, now);
  }
}

SimDuration ChronoPolicy::OnHintFault(Process& /*process*/, Vma& vma, PageInfo& unit,
                                      bool /*is_store*/, SimTime now) {
  if (unit.Has(kPageProbed)) {
    // DCSC victim: feed the statistics subsystem; a second measurement round re-poisons.
    if (dcsc_.OnProbedFault(unit, now)) {
      machine()->PoisonUnit(unit);
    } else {
      unit.ClearFlag(kPageProbed);
    }
    return 0;
  }
  if (unit.node == kFastNode || !HasScanTimestamp(unit)) {
    return 0;
  }

  const uint32_t cit_ms = ComputeCitMillis(unit, now);
  if (cit_observer_) {
    cit_observer_(unit, cit_ms);
  }

  const uint64_t unit_pages = vma.UnitPages(unit.vpn);
  const uint32_t threshold = EffectiveThresholdMillis(threshold_ms_, unit_pages);

  if (cit_ms < threshold) {
    const CandidateFilter::Outcome outcome = filter_.RecordQualifyingCit(unit, cit_ms);
    if (outcome == CandidateFilter::Outcome::kBecameCandidate ||
        outcome == CandidateFilter::Outcome::kReadyToPromote) {
      if (thrash_.CheckRequalification(unit, now)) {
        machine()->metrics().CountThrashEvent();
      }
    }
    if (outcome == CandidateFilter::Outcome::kReadyToPromote) {
      queue_.Enqueue(unit);
      EmitTrace(machine()->tracer(), TraceCategory::kPolicy, TraceEventType::kPolicyEnqueue,
                now, unit.owner, unit.vpn, unit.node, kFastNode, cit_ms, threshold);
    }
  } else {
    filter_.RecordDisqualifyingCit(unit);
  }
  return 0;  // All Chrono promotions are asynchronous.
}

void ChronoPolicy::OnDemotion(Vma& /*vma*/, PageInfo& unit, SimTime now) {
  // Thrashing monitor: demoted pages are immediately poisoned with the demotion time as
  // their scan timestamp, so they re-enter CIT evaluation at once (Section 3.3.2).
  thrash_.MarkDemoted(unit, now);
  machine()->PoisonUnit(unit);
  // A demoted page cannot stay queued/candidate for promotion.
  PromotionQueue::Invalidate(unit);
  filter_.RecordDisqualifyingCit(unit);
}

uint64_t ChronoPolicy::DemotionRefillTarget(const MemoryTier& fast_tier) const {
  return fast_tier.watermarks().pro;
}

void ChronoPolicy::OverrideCitThreshold(uint32_t threshold_ms) {
  threshold_ms_ = std::clamp<uint32_t>(
      threshold_ms, static_cast<uint32_t>(config_.min_cit_threshold / kMillisecond),
      static_cast<uint32_t>(config_.max_cit_threshold / kMillisecond));
}

void ChronoPolicy::OverrideRateLimit(double mbps) { SetRateLimit(mbps); }

void ChronoPolicy::PeriodTick(SimTime now) {
  const double window_seconds = ToSeconds(config_.geometry.scan_period);
  const double limit_pages = RatePagesPerSecond() * window_seconds;

  if (config_.tuning == ChronoTuningMode::kSemiAuto) {
    threshold_ms_ = controller_.Adjust(
        threshold_ms_, limit_pages, static_cast<double>(queue_.enqueued_in_window()));
    EmitTrace(machine()->tracer(), TraceCategory::kTuning, TraceEventType::kTuningUpdate,
              now, kTraceNoPid, kTraceNoVpn, kInvalidNode, kInvalidNode, threshold_ms_,
              static_cast<uint64_t>(rate_limit_mbps_));
  }

  if (thrash_.EvaluateWindow(queue_.dequeued_in_window())) {
    SetRateLimit(rate_limit_mbps_ / 2.0);
  }
  queue_.ResetWindow();
}

void ChronoPolicy::DrainTick(SimTime now) {
  const double budget =
      RatePagesPerSecond() * ToSeconds(config_.queue_drain_period);
  drain_tokens_ = std::min(drain_tokens_ + budget, RatePagesPerSecond());

  while (drain_tokens_ >= 1.0) {
    PageInfo* unit = queue_.Pop();
    if (unit == nullptr) {
      break;
    }
    if (unit->node == kFastNode || !unit->present()) {
      continue;
    }
    Vma* vma = machine()->ResolveVma(*unit);
    if (vma == nullptr) {
      continue;
    }
    const uint64_t unit_pages = vma->UnitPages(unit->vpn);
    EmitTrace(machine()->tracer(), TraceCategory::kPolicy, TraceEventType::kPolicyPromote,
              now, unit->owner, unit->vpn, unit->node, kFastNode, unit_pages);
    // Tokens are consumed whether or not the engine admits: the rate limit models the
    // daemon's submission budget, and a refusal still spent that budget slot.
    machine()->migration().Submit(*vma, *unit, kFastNode, MigrationClass::kAsync,
                                  MigrationSource::kPolicyDaemon);
    drain_tokens_ -= static_cast<double>(unit_pages);
  }
}

void ChronoPolicy::DcscTick(SimTime now) {
  // Finish off victims that never faulted (cold); their censored idle time still counts.
  const SimDuration max_age =
      config_.dcsc_period * std::max(config_.dcsc_aggregate_ticks, 1);
  dcsc_.ExpireStale(now, max_age, [](PageInfo& page) { page.ClearFlag(kPageProbed); });

  for (auto& process : machine()->processes()) {
    SelectVictims(*process, now);
  }

  ++dcsc_tick_count_;
  if (dcsc_tick_count_ % std::max(config_.dcsc_aggregate_ticks, 1) == 0) {
    const uint64_t fast_used = machine()->memory().node(kFastNode).used_pages();
    const uint64_t slow_used = machine()->memory().node(kSlowNode).used_pages();
    const DcscOutputs out = dcsc_.Aggregate(fast_used, slow_used);
    if (out.valid) {
      // Exponential smoothing keeps single-window noise from whipsawing the parameters.
      threshold_ms_ = static_cast<uint32_t>(std::clamp<double>(
          0.5 * threshold_ms_ + 0.5 * out.cit_threshold_ms,
          static_cast<double>(config_.min_cit_threshold / kMillisecond),
          static_cast<double>(config_.max_cit_threshold / kMillisecond)));
      SetRateLimit(0.5 * rate_limit_mbps_ + 0.5 * out.rate_limit_mbps);
      EmitTrace(machine()->tracer(), TraceCategory::kTuning, TraceEventType::kTuningUpdate,
                now, kTraceNoPid, kTraceNoVpn, kInvalidNode, kInvalidNode, threshold_ms_,
                static_cast<uint64_t>(rate_limit_mbps_));
    }
    machine()->ChargeKernel(KernelWork::kPolicy, 5 * kMicrosecond);
  }
}

void ChronoPolicy::SelectVictims(Process& process, SimTime now) {
  AddressSpace& aspace = process.aspace();
  const uint64_t total = aspace.total_pages();
  if (total == 0) {
    return;
  }
  const auto target = std::max<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(total) * config_.p_victim),
      config_.min_victims_per_process);

  uint64_t probed = 0;
  // Random-order probing; a few collisions/misses are fine, bound the attempts.
  for (uint64_t attempt = 0; attempt < target * 2 && probed < target; ++attempt) {
    PageInfo* page = aspace.PageByIndex(rng_.NextBelow(total));
    if (page == nullptr) {
      continue;
    }
    Vma* vma = aspace.FindVma(page->vpn);
    PageInfo& unit = vma->HotnessUnit(page->vpn);
    if (!unit.present() || unit.Has(kPageProbed)) {
      continue;
    }
    unit.Set(kPageProbed);
    machine()->PoisonUnit(unit);
    dcsc_.AddVictim(unit, unit.node, now, vma->UnitPages(unit.vpn));
    ++probed;
  }
  machine()->ChargeKernel(
      KernelWork::kPolicy,
      static_cast<SimDuration>(probed) * Machine::kPteVisitCost * 2);
}

void ChronoPolicy::SetRateLimit(double mbps) {
  rate_limit_mbps_ = std::clamp(mbps, config_.min_rate_limit_mbps, config_.max_rate_limit_mbps);
  UpdateProWatermark();
}

void ChronoPolicy::UpdateProWatermark() {
  if (machine() == nullptr) {
    return;
  }
  MemoryTier& fast = machine()->memory().node(kFastNode);
  // Gap = 2 x scan interval x promotion rate (Section 3.3.1), bounded to an eighth of the
  // tier so a transient rate spike cannot evict the working set.
  const double gap_pages = 2.0 * ToSeconds(nominal_tick_interval_) * RatePagesPerSecond();
  const auto cap = static_cast<double>(fast.capacity_pages()) / 8.0;
  fast.SetProWatermarkGap(static_cast<uint64_t>(std::min(gap_pages, cap)));
}

}  // namespace chronotier
