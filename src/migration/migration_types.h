// Shared vocabulary of the migration subsystem: request classes, admission verdicts,
// engine configuration, and the counters the harness surfaces.
//
// A migration is a *transaction* (Nomad-style, non-exclusive): the page stays mapped and
// writable while its bytes are copied, and the remap commits only if no store landed during
// the copy window. Requests enter through an admission controller (TierBPF-style) that
// refuses work per class (sync / async / reclaim) and per source before it can pile onto a
// copy channel.

#pragma once

#include <cstdint>

#include "src/common/time.h"
#include "src/mem/tier.h"

namespace chronotier {

// How a request behaves when the engine is busy and when its copy completes.
//   kSync:    fault-inline (NUMA-balancing-style). The faulting access stalls for queueing +
//             copy + remap; a busy channel refuses almost immediately (the kernel skips the
//             migration rather than stall a fault).
//   kAsync:   daemon-batched. Admitted work copies in the background and commits via an
//             event; concurrent stores abort the commit and the copy retries with backoff.
//   kReclaim: demotion in reclaim context (kswapd). Executes inline like kSync but never
//             stalls an application access; it tolerates the full async backlog because
//             reclaim must make forward progress.
enum class MigrationClass : uint8_t { kSync = 0, kAsync = 1, kReclaim = 2 };
inline constexpr int kNumMigrationClasses = 3;

// Who asked. Admission throttles each source independently so one misbehaving submitter
// (e.g. an over-eager policy daemon) cannot starve the fault path or reclaim.
enum class MigrationSource : uint8_t {
  kFaultPath = 0,      // Inline promotion from a hint fault.
  kPolicyDaemon = 1,   // Promotion queues / scan-batch drains.
  kReclaimDaemon = 2,  // Watermark demotion.
  kEvacuation = 3,     // Fabric fault domain: drain of a failing endpoint.
};
inline constexpr int kNumMigrationSources = 4;

// Why a submission was not admitted.
enum class MigrationRefusal : uint8_t {
  kNone = 0,
  kBacklog = 1,          // Channel queueing delay beyond the class limit.
  kSourceThrottled = 2,  // Per-source in-flight page cap reached.
  kNoCapacity = 3,       // Target tier cannot hold the unit (even after reclaim).
  kAlreadyInFlight = 4,  // The unit is owned by another transaction.
  kInvalid = 5,          // Not present, or already resident on the target node.
  kTierDegraded = 6,     // Target tier is in degraded mode; promotions are paused.
  kEndpointSaturated = 7,  // Target endpoint's in-flight page budget is exhausted.
  kEndpointFailing = 8,  // Target endpoint is failing/offline (fabric fault domain).
  kNoRoute = 9,          // Down links partition the source from the target.
  kTenantQos = 10,       // Refused by the owner tenant's admission QoS program.
};
inline constexpr int kNumMigrationRefusals = 11;

// How a transaction ended. kParked is the graceful-degradation terminal: injected copy
// faults exhausted their retries (or were persistent), the unit stays mapped at its source,
// and no commit cost was charged.
enum class MigrationOutcome : uint8_t {
  kRefused = 0,    // Never admitted.
  kPending = 1,    // Async transaction still in flight.
  kCommitted = 2,  // Remapped onto the target tier.
  kAborted = 3,    // Dirty retries exhausted; stayed at source.
  kParked = 4,     // Injected fault terminal; stayed at source.
};

// Verdict an injected fault oracle renders on one completed copy pass. Transient faults
// (ECC-style correctable errors) reuse the engine's dirty-abort retry/backoff machinery;
// persistent faults quarantine the reserved target frames and park the transaction.
enum class CopyFault : uint8_t { kNone = 0, kTransient = 1, kPersistent = 2 };

// The migration engine's view of a fault injector (implemented by fault::FaultInjector;
// defined here so src/migration does not depend on src/fault). Consulted once per finished
// copy pass, before the dirty-generation check.
class CopyFaultOracle {
 public:
  virtual ~CopyFaultOracle() = default;
  virtual CopyFault OnCopyPassDone(NodeId from, NodeId to, uint64_t pages, int attempt,
                                   SimTime now) = 0;
};

// Owner when a submission has no process behind it (tests driving the controller bare).
inline constexpr int32_t kQosNoOwner = -1;

// The admission controller's view of per-tenant QoS (implemented by tenant::TenantRegistry;
// defined here so src/migration does not depend on src/tenant). QosCheck renders a verdict
// for one submission by `owner`'s tenant — it must be side-effect-free with respect to
// admission state because a submission can be re-checked after a reclaim retry. QosAdmit
// charges an admitted submission against the tenant's migration-bandwidth budget.
class AdmissionQosHook {
 public:
  virtual ~AdmissionQosHook() = default;
  virtual MigrationRefusal QosCheck(int32_t owner, MigrationSource source, NodeId from,
                                    NodeId to, uint64_t pages, SimTime now) = 0;
  virtual void QosAdmit(int32_t owner, MigrationSource source, NodeId to, uint64_t pages,
                        SimTime now) = 0;
};

struct MigrationEngineConfig {
  // Sync (fault-inline) migrations tolerate very little queueing before being refused.
  SimDuration sync_slack = 2 * kMillisecond;
  // Async (daemon) migrations are refused when the channel backlog exceeds this.
  SimDuration async_backlog_limit = 250 * kMillisecond;
  // Reclaim demotions get the same generous limit: kswapd must make progress.
  SimDuration reclaim_backlog_limit = 250 * kMillisecond;
  // Endpoint evacuation (fabric fault domains) tolerates a much deeper backlog: policy
  // traffic self-throttles at the limits above, so a hot-remove drain — finite, bounded by
  // the endpoint's residency — wins the contended bandwidth instead of starving behind a
  // fabric the policies keep saturated at exactly their own refusal point. Capacity and
  // per-source throttles still apply; this is not an unbounded queue.
  SimDuration evac_backlog_limit = 1 * kSecond;
  // Per-source cap on async in-flight pages (TierBPF-style admission). The default is
  // generous; the backlog limits bind first unless a test tightens it.
  uint64_t source_inflight_page_limit = 1u << 16;
  // Per-*endpoint* cap on async in-flight pages reserved on one target node. The default
  // never binds (legacy behaviour); N-endpoint topologies tighten it so one saturated
  // endpoint refuses (kEndpointSaturated) instead of queueing unboundedly.
  uint64_t endpoint_inflight_page_limit = ~0ull;
  // Re-booking attempts after a copy pass is invalidated by a link going down mid-flight
  // (fabric faults). Each re-route re-books the same tree path; when the budget is
  // exhausted (or a down link still cuts the path) the transaction parks at its source.
  int max_reroute_attempts = 3;
};

// Histogram of copy attempts needed to commit: bucket k counts transactions that committed
// on attempt k (bucket 0 is unused; the last bucket absorbs overflow).
inline constexpr int kMigrationRetryBuckets = 8;

// Cumulative engine counters. Owned by harness Metrics so a warmup Reset() discards them
// together with every other run counter; live gauges (in-flight work) stay on the engine.
struct MigrationStats {
  uint64_t submitted[kNumMigrationClasses] = {};
  uint64_t committed[kNumMigrationClasses] = {};
  uint64_t aborted[kNumMigrationClasses] = {};  // Final aborts (retries exhausted).
  uint64_t parked[kNumMigrationClasses] = {};   // Fault-injected terminal parks.
  uint64_t refused[kNumMigrationRefusals] = {};
  uint64_t committed_pages = 0;
  uint64_t copy_attempts = 0;         // Every copy pass, including retries.
  uint64_t dirty_aborted_copies = 0;  // Copy passes invalidated by a concurrent store.
  uint64_t injected_transient_faults = 0;   // Copy passes failed by the fault injector.
  uint64_t injected_persistent_faults = 0;  // Copy passes failed persistently.
  uint64_t quarantined_pages = 0;           // Target frames quarantined by those faults.
  uint64_t retry_histogram[kMigrationRetryBuckets] = {};
  uint64_t copied_bytes = 0;          // Includes bytes of aborted copies.
  SimDuration channel_busy = 0;       // Copy time booked across all channels (every leg).
  // Routed (multi-hop) copy passes: passes whose tier pair is not directly connected in
  // the topology, and the per-link legs those passes booked (>= 2 * multi_hop_copies).
  uint64_t multi_hop_copies = 0;
  uint64_t multi_hop_legs = 0;
  // Fabric faults: copy passes invalidated by a link going down mid-flight and re-booked
  // on their tree path, and transactions parked at their source because the re-route
  // budget ran out or a down link still cut the path.
  uint64_t reroutes = 0;
  uint64_t reroute_parks = 0;
  // FNV-1a over (owner, vpn, target, commit time) in commit order; two runs of the same
  // seed must produce the same hash (deterministic replay).
  uint64_t commit_sequence_hash = 14695981039346656037ull;

  uint64_t TotalSubmitted() const {
    uint64_t total = 0;
    for (uint64_t v : submitted) total += v;
    return total;
  }
  uint64_t TotalCommitted() const {
    uint64_t total = 0;
    for (uint64_t v : committed) total += v;
    return total;
  }
  uint64_t TotalAborted() const {
    uint64_t total = 0;
    for (uint64_t v : aborted) total += v;
    return total;
  }
  uint64_t TotalRefused() const {
    uint64_t total = 0;
    for (uint64_t v : refused) total += v;
    return total;
  }
  uint64_t TotalParked() const {
    uint64_t total = 0;
    for (uint64_t v : parked) total += v;
    return total;
  }

  // Mean copy passes per committed transaction (1.0 = no retries).
  double MeanAttemptsPerCommit() const {
    const uint64_t commits = TotalCommitted();
    return commits == 0 ? 0.0
                        : static_cast<double>(copy_attempts) / static_cast<double>(commits);
  }

  // Fraction of aggregate channel time spent copying over `elapsed`, across `num_channels`.
  double CopyBandwidthUtilization(SimDuration elapsed, int num_channels) const {
    if (elapsed <= 0 || num_channels <= 0) return 0.0;
    return static_cast<double>(channel_busy) /
           (static_cast<double>(elapsed) * static_cast<double>(num_channels));
  }

  void MixIntoCommitHash(uint64_t value) {
    commit_sequence_hash ^= value;
    commit_sequence_hash *= 1099511628211ull;
  }

  void Reset() { *this = MigrationStats(); }
};

// Submission outcome handed back to the caller.
struct MigrationTicket {
  bool admitted = false;
  MigrationRefusal refusal = MigrationRefusal::kNone;
  // Terminal state for sync/reclaim submissions (kCommitted or kParked); kPending for
  // admitted async work, kRefused otherwise.
  MigrationOutcome outcome = MigrationOutcome::kRefused;
  // For kSync: the stall to charge to the faulting access (queueing + copy + remap).
  SimDuration sync_latency = 0;
  // Transaction id (0 when refused). Sync/reclaim transactions are already committed when
  // Submit returns; async ids identify the in-flight transaction until commit/abort.
  uint64_t txn_id = 0;
};

}  // namespace chronotier
