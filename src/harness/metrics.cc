#include "src/harness/metrics.h"

namespace chronotier {

double Metrics::LatencyPercentile(double p) const {
  // Percentile over the pooled read+write distribution, approximated by weighting the two
  // reservoirs by their observed op counts.
  const uint64_t total = reads_ + writes_;
  if (total == 0) {
    return 0.0;
  }
  if (reads_ == 0) {
    return write_latency_.Percentile(p);
  }
  if (writes_ == 0) {
    return read_latency_.Percentile(p);
  }
  const double read_weight = static_cast<double>(reads_) / static_cast<double>(total);
  return read_weight * read_latency_.Percentile(p) +
         (1.0 - read_weight) * write_latency_.Percentile(p);
}

double Metrics::MeanLatency() const {
  const uint64_t total = reads_ + writes_;
  if (total == 0) {
    return 0.0;
  }
  const double read_weight = static_cast<double>(reads_) / static_cast<double>(total);
  return read_weight * read_latency_.Mean() + (1.0 - read_weight) * write_latency_.Mean();
}

void Metrics::Reset() {
  total_ops_ = 0;
  reads_ = 0;
  writes_ = 0;
  fast_accesses_ = 0;
  slow_accesses_ = 0;
  context_switches_ = 0;
  demand_faults_ = 0;
  hint_faults_ = 0;
  promoted_pages_ = 0;
  demoted_pages_ = 0;
  promotion_events_ = 0;
  thrash_events_ = 0;
  app_time_ = 0;
  trace_events_dropped_ = 0;
  kernel_time_.fill(0);
  read_latency_.Clear();
  write_latency_.Clear();
  migration_.Reset();
  fault_.Reset();
  for (TenantStats& tenant : tenant_stats_) {
    tenant.Reset();
  }
}

}  // namespace chronotier
