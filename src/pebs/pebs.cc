#include "src/pebs/pebs.h"

namespace chronotier {

SimDuration PebsSampler::TakeSample(SimTime now, int32_t pid, uint64_t vpn, NodeId node,
                                    bool is_store) {
  until_next_sample_ = NextGap();

  // Throttle: at most max_samples_per_sec per simulated second.
  if (now - window_start_ >= kSecond) {
    window_start_ = now - (now - window_start_) % kSecond;
    window_samples_ = 0;
  }
  if (window_samples_ >= config_.max_samples_per_sec) {
    return 0;
  }
  ++window_samples_;
  ++samples_delivered_;

  if (handler_) {
    handler_(PebsSample{now, pid, vpn, node, is_store});
  }
  return config_.per_sample_overhead;
}

}  // namespace chronotier
