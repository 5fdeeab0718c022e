// Per-endpoint congestion: deterministic queuing on a memory node's link.
//
// Every node in a parsed topology owns one link of finite bandwidth that both its demand
// accesses and the migration traffic routed through it share. The model is the same
// virtual-cursor FIFO the migration CopyChannel uses: each byte booked advances a cursor
// at the link's service rate, and the cursor's lead over simulated time is the backlog.
// An access arriving while the link is saturated is charged min(backlog, cap) of queuing
// delay — capped so a deep migration burst degrades the access path rather than stalling
// an application behind megabytes of copy traffic (real CXL ports backpressure reads for
// microseconds, not milliseconds).
//
// Determinism: state advances only from OnAccess/OnMigrationBytes calls, which the
// simulation makes in a deterministic order; no wall clock, no RNG. Backlog() and the
// counters are pure reads, so telemetry sampling never perturbs outcomes.

#pragma once

#include <algorithm>
#include <cstdint>

#include "src/common/time.h"

namespace chronotier {

class EndpointCongestion {
 public:
  EndpointCongestion() = default;
  EndpointCongestion(double bandwidth_bytes_per_sec, SimDuration access_delay_cap,
                     uint64_t access_bytes)
      : bandwidth_(bandwidth_bytes_per_sec),
        access_delay_cap_(access_delay_cap),
        access_bytes_(access_bytes) {}

  // Queuing delay traffic arriving at `now` would wait before its bytes move.
  SimDuration Backlog(SimTime now) const { return cursor_ > now ? cursor_ - now : 0; }

  // Books one demand access through the link; returns the (capped) queuing delay to
  // charge to the access.
  SimDuration OnAccess(SimTime now) {
    ++accesses_;
    const SimDuration delay = std::min(Backlog(now), access_delay_cap_);
    if (delay > 0) {
      ++congested_accesses_;
      access_queued_time_ += delay;
    }
    Advance(now, access_bytes_);
    return delay;
  }

  // Books `bytes` of migration traffic traversing the link at `now` (the engine calls this
  // for every node on a booked copy route).
  void OnMigrationBytes(SimTime now, uint64_t bytes) {
    migration_bytes_ += bytes;
    Advance(now, bytes);
  }

  // Cumulative counters (monotonic; surfaced in telemetry and bench reports).
  uint64_t accesses() const { return accesses_; }
  uint64_t congested_accesses() const { return congested_accesses_; }
  SimDuration access_queued_time() const { return access_queued_time_; }
  uint64_t migration_bytes() const { return migration_bytes_; }

 private:
  void Advance(SimTime now, uint64_t bytes) {
    if (bandwidth_ <= 0.0) return;
    const auto service = static_cast<SimDuration>(
        static_cast<double>(bytes) / bandwidth_ * 1e9);
    cursor_ = std::max(cursor_, now) + service;
  }

  double bandwidth_ = 0.0;  // Bytes/sec; 0 disables (Backlog stays 0, delays stay 0).
  SimDuration access_delay_cap_ = 4 * kMicrosecond;
  uint64_t access_bytes_ = 64;

  SimTime cursor_ = 0;  // When the last booked byte drains.
  uint64_t accesses_ = 0;
  uint64_t congested_accesses_ = 0;
  SimDuration access_queued_time_ = 0;
  uint64_t migration_bytes_ = 0;
};

}  // namespace chronotier
