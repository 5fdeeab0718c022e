// Chrono: the paper's tiering system (Section 3).
//
// Assembles the Ticking-scan (via ScanPolicyBase), CIT measurement, the N-round candidate
// filter, the rate-limited promotion queue, the semi-auto and DCSC tuners, the
// promotion-aware `pro` watermark demotion, and the thrashing monitor. The Fig. 13 design
// variants (basic / twice / thrice / full / manual) are configuration points, not separate
// classes.

#pragma once

#include <functional>
#include <string>

#include "src/common/rng.h"
#include "src/core/candidate_filter.h"
#include "src/core/chrono_config.h"
#include "src/core/dcsc.h"
#include "src/core/promotion_queue.h"
#include "src/core/thrash_monitor.h"
#include "src/core/tuning.h"
#include "src/policies/scan_policy_base.h"

namespace chronotier {

class ChronoPolicy : public ScanPolicyBase {
 public:
  explicit ChronoPolicy(ChronoConfig config = ChronoConfig::Full(),
                        std::string label = "Chrono");

  std::string_view name() const override { return label_; }

  void Attach(Machine& machine) override;
  SimDuration OnHintFault(Process& process, Vma& vma, PageInfo& unit, bool is_store,
                          SimTime now) override;
  void OnDemotion(Vma& vma, PageInfo& unit, SimTime now) override;
  uint64_t DemotionRefillTarget(const MemoryTier& fast_tier) const override;

  // --- observability (Fig. 10 benches, tests) ---
  uint32_t cit_threshold_ms() const { return threshold_ms_; }
  double rate_limit_mbps() const { return rate_limit_mbps_; }
  const CandidateFilter& candidate_filter() const { return filter_; }
  const ThrashMonitor& thrash_monitor() const { return thrash_; }

  // Instrumentation hook: invoked for every CIT measurement (page, cit_ms). Used by the
  // Fig. 10a correlation bench; zero-cost when unset.
  using CitObserver = std::function<void(const PageInfo&, uint32_t)>;
  void set_cit_observer(CitObserver observer) { cit_observer_ = std::move(observer); }

 protected:
  void ScanVisit(Process& process, Vma& vma, PageInfo& unit, SimTime now) override;

 private:
  void PeriodTick(SimTime now);  // Once per Ticking-scan period.
  void DrainTick(SimTime now);   // Promotion-queue drain at the rate limit.
  void DcscTick(SimTime now);    // Victim probing + periodic aggregation.
  void SelectVictims(Process& process, SimTime now);
  void SetRateLimit(double mbps);
  void UpdateProWatermark();
  double RatePagesPerSecond() const { return ChronoConfig::PagesPerSecond(rate_limit_mbps_); }

  ChronoConfig config_;
  std::string label_;

  CandidateFilter filter_;
  PromotionQueue queue_;
  SemiAutoThresholdController controller_;
  DcscCollector dcsc_;
  ThrashMonitor thrash_;
  Rng rng_;

  uint32_t threshold_ms_;
  double rate_limit_mbps_;
  double drain_tokens_ = 0;  // Fractional page budget for the drain tick.
  int dcsc_tick_count_ = 0;
  SimDuration nominal_tick_interval_ = kSecond;  // For the pro-watermark gap.

  CitObserver cit_observer_;
};

}  // namespace chronotier
