// Processor Event-Based Sampling (PEBS) model.
//
// Memtis/HeMem-style policies and the paper's own measurement methodology (Figures 1 and 2b)
// consume memory-access samples from the PMU. The defining constraints the paper leans on are
// reproduced here: (1) samples are taken every Nth eligible access (the sampling period),
// (2) the end-to-end sample rate is hard-capped (the kernel refuses to log more than
// ~100k samples/s), and (3) every delivered sample costs CPU time. Under a base-page working
// set these caps starve per-page counters, which is exactly the Fig. 2b effect.

#pragma once

#include <cstdint>
#include <functional>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/mem/tier.h"

namespace chronotier {

struct PebsSample {
  SimTime time = 0;
  int32_t pid = -1;
  uint64_t vpn = 0;
  NodeId node = kInvalidNode;
  bool is_store = false;
};

struct PebsConfig {
  // One sample per `period` eligible accesses on average (perf's sample_period). The gap is
  // jittered uniformly in [period/2, 3*period/2] like real PEBS randomization, so periodic
  // access patterns cannot alias with the sampling phase.
  uint64_t period = 199;
  // Hard cap on delivered samples per simulated second (kernel's
  // perf_event_max_sample_rate); samples beyond the cap are throttled (dropped).
  uint64_t max_samples_per_sec = 100000;
  // CPU cost charged to the running process for each delivered sample.
  SimDuration per_sample_overhead = 400 * kNanosecond;
};

class PebsSampler {
 public:
  using SampleFn = std::function<void(const PebsSample&)>;

  explicit PebsSampler(PebsConfig config = {}) : config_(config) {}

  void set_handler(SampleFn fn) { handler_ = std::move(fn); }
  const PebsConfig& config() const { return config_; }

  // Called on every memory access. Returns the overhead to charge to the accessing process
  // (zero when the access is not sampled or the sample was throttled). The common case — the
  // jittered countdown has not expired — is inline so the access fast lane pays one
  // decrement, not an out-of-line call per access.
  SimDuration OnAccess(SimTime now, int32_t pid, uint64_t vpn, NodeId node, bool is_store) {
    if (until_next_sample_ > 0) {
      --until_next_sample_;
      return 0;
    }
    return TakeSample(now, pid, vpn, node, is_store);
  }

  uint64_t samples_delivered() const { return samples_delivered_; }

 private:
  // Slow path of OnAccess: re-arm the gap, apply the per-second throttle, deliver.
  SimDuration TakeSample(SimTime now, int32_t pid, uint64_t vpn, NodeId node, bool is_store);

  uint64_t NextGap() {
    const uint64_t period = config_.period;
    if (period < 4) {
      return period;
    }
    // Uniform over [period - half, period + half]: mean is exactly `period`.
    const uint64_t half = period / 2;
    return (period - half) + gap_rng_.NextBelow(2 * half + 1);
  }

  PebsConfig config_;
  SampleFn handler_;
  Rng gap_rng_{0x9EB5u};
  uint64_t until_next_sample_ = 0;
  uint64_t samples_delivered_ = 0;
  // Throttling window.
  SimTime window_start_ = 0;
  uint64_t window_samples_ = 0;
};

}  // namespace chronotier
