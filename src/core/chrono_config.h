// Chrono configuration: the Table 2 parameters plus the design-variant knobs used by the
// Fig. 13 ablation (basic / twice / thrice / full / manual).

#pragma once

#include <cstdint>

#include "src/common/time.h"
#include "src/mem/tier.h"
#include "src/policies/scan_policy_base.h"

namespace chronotier {

enum class ChronoTuningMode {
  kSemiAuto,  // User-provided rate limit; CIT threshold auto-adjusted (Section 3.2.1).
  kDcsc,      // Fully automatic: DCSC tunes both threshold and rate limit (Section 3.2.2).
};

struct ChronoConfig {
  // --- Table 2 settings the benches sweep (Figs. 10-11) ---
  ScanGeometry geometry;      // Scan step 256 MB, scan period 60 s.
  double p_victim = 0.00003;  // 0.003% of the VM space per DCSC probe.
  double delta_step = 0.5;    // Threshold adaption step δ.
  // Small-simulation floor: P% of a small space can round to zero pages.
  uint64_t min_victims_per_process = 64;

  // --- design variants (Fig. 13) ---
  int filter_rounds = 2;  // Candidate-filter rounds (basic=1, twice=2, thrice=3).
  ChronoTuningMode tuning = ChronoTuningMode::kDcsc;
  // Auto-tuned afterwards in DCSC mode; fixed (user-provided) in semi-auto mode.
  double initial_rate_limit_mbps = 100.0;

  // --- Table 2 defaults no caller varies ---
  static constexpr int kBBuckets = 28;  // CIT heat-map levels.
  static constexpr SimDuration kInitialCitThreshold = 1000 * kMillisecond;  // Auto-tuned.

  // --- secondary timing ---
  static constexpr SimDuration kDcscPeriod = 1 * kSecond;  // Probe cadence ("per-second").
  static constexpr int kDcscAggregateTicks = 5;  // Ticks between heat-map aggregations.
  static constexpr SimDuration kQueueDrainPeriod = 100 * kMillisecond;

  // --- thrashing monitor (Section 3.3.2) ---
  static constexpr double kThrashRatioThreshold = 0.2;

  // --- bounds ---
  static constexpr SimDuration kMinCitThreshold = 1 * kMillisecond;
  // ~37.3 h, per Section 4.
  static constexpr SimDuration kMaxCitThreshold = (1ll << 27) * kMillisecond;
  static constexpr double kMinRateLimitMbps = 4.0;
  static constexpr double kMaxRateLimitMbps = 4096.0;

  // Named variants from the design-choice analysis (Section 5.4).
  static ChronoConfig Basic();                     // 1-round filter, semi-auto @120 MB/s.
  static ChronoConfig Twice();                     // 2-round filter, semi-auto @120 MB/s.
  static ChronoConfig Thrice();                    // 3-round filter, semi-auto @120 MB/s.
  static ChronoConfig Full();                      // 2-round + DCSC (the default Chrono).
  static ChronoConfig Manual(double rate_mbps);    // Semi-auto with a user rate limit.

  // Pages per second implied by a MB/s rate limit.
  static double PagesPerSecond(double mbps) {
    return mbps * 1024.0 * 1024.0 / static_cast<double>(kBasePageSize);
  }
};

}  // namespace chronotier
