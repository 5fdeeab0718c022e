// Typed trace events for the observability subsystem.
//
// Every instrumented site in the simulator emits one of these compact records into the
// Tracer's ring buffer. The taxonomy mirrors the subsystems of the machine (DESIGN.md §6):
// access/fault events carry the faulting process and page, migration events follow a
// transaction through submit → copy → commit/abort/park, reclaim and injector events mark
// daemon activity windows, and policy/tuning events capture per-decision telemetry.
//
// This header deliberately depends only on common/ and mem/ (for NodeId): the migration
// engine, fault injector, harness, and policies all emit events, so trace/ must sit below
// them in the dependency graph.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/time.h"
#include "src/mem/tier.h"

namespace chronotier {

// Category bitmask. A Tracer only records events whose category bit is set in its
// configured mask, so e.g. `--trace-categories migration,fault` keeps access events (by
// far the highest-volume class) out of the ring entirely.
enum class TraceCategory : uint32_t {
  kAccess = 1u << 0,     // Memory accesses (fast + slow path).
  kFault = 1u << 1,      // Demand/hint faults, alloc refusals, injected fault windows.
  kScan = 1u << 2,       // Page-table scan laps and per-page poisoning.
  kMigration = 1u << 3,  // Engine transactions: submit/copy/commit/abort/park/refuse.
  kReclaim = 1u << 4,    // Reclaim daemon wake/done.
  kPolicy = 1u << 5,     // Policy decision points (promote/demote/enqueue).
  kTuning = 1u << 6,     // Threshold / rate-limit / watermark adjustments.
};

inline constexpr int kNumTraceCategories = 7;
inline constexpr uint32_t kTraceAllCategories = (1u << kNumTraceCategories) - 1;

constexpr uint32_t TraceCategoryBit(TraceCategory c) { return static_cast<uint32_t>(c); }

// Index 0..6 of a single-bit category (log2 of the bit).
constexpr uint8_t TraceCategoryIndex(TraceCategory c) {
  uint32_t bit = static_cast<uint32_t>(c);
  uint8_t index = 0;
  while (bit > 1) {
    bit >>= 1;
    ++index;
  }
  return index;
}

const char* TraceCategoryName(TraceCategory c);

// Parses a comma-separated category list ("migration,fault", "all") into a bitmask.
// Returns false (mask untouched) on an unknown token.
bool ParseTraceCategoryList(std::string_view list, uint32_t* mask);

// Renders a mask back to the comma-separated form ("all" when every bit is set).
std::string FormatTraceCategoryMask(uint32_t mask);

enum class TraceEventType : uint16_t {
  // kAccess
  kAccess,  // a = 1 if store, b = 1 if fast-lane (TLB) hit.

  // kFault (page-level)
  kDemandFault,   // First touch: a = pages allocated, to = node placed on.
  kHintFault,     // NUMA-hint minor fault on a poisoned page.
  kAllocRefused,  // Demand allocation failed; a = retry attempt count so far.
  kHugeSplit,     // Huge page split into base pages; a = base pages produced.

  // kFault (injector windows; pid/vpn unused)
  kFaultStall,          // Channel stall: a = stall ns, b = slowdown x1000.
  kFaultPressureBegin,  // Pressure spike begins: a = frames stolen.
  kFaultPressureEnd,    // Spike ends: a = frames returned.
  kFaultAllocBegin,     // Strict-min-floor window begins.
  kFaultAllocEnd,       // Strict-min-floor window ends.

  // kFault (fabric fault domains; from/to = the edge for link events, from = the endpoint
  // for endpoint events; pid/vpn unused)
  kFaultLinkDown,           // Link-down window begins: a = duration ns.
  kFaultLinkDegraded,       // Bandwidth-collapse window begins: a = ns, b = factor x1000.
  kFaultLinkRestored,       // Link returns to service.
  kFaultEndpointFailing,    // Endpoint failure: a = resident pages to evacuate.
  kFaultEndpointOffline,    // Drain complete, endpoint hot-removed: a = pages evacuated.
  kFaultEndpointRecovered,  // Endpoint returns to service.
  kFaultEvacuationStalled,  // Drain gave up (survivors full / deadline): a = pages left.

  // kScan
  kScanPoison,  // Page poisoned (PROT_NONE) by a scan; from = resident node.
  kScanLap,     // One scan tick finished: a = units visited, b = lap number.

  // kMigration (a = transaction id unless noted)
  kMigrationSubmit,     // b = pages; from/to = tier pair.
  kMigrationRefused,    // a = refusal reason enum, b = admission class enum.
  kMigrationCopy,       // Copy leg booked: b = copy duration ns, c = link queue wait ns
                        // (ts = booking start; routed passes emit one event per leg).
  kMigrationDirtyAbort, // Dirty re-copy needed: b = attempt number.
  kMigrationCopyFault,  // Injected copy fault: b = 1 transient, 2 persistent.
  kMigrationCommit,     // b = pages; ts = commit time.
  kMigrationAbort,      // Final abort after retries: b = attempts used.
  kMigrationPark,       // Stayed at source after a fault or failed link: b = attempts used.
  kMigrationReroute,    // Pass crossed a link that went down and is re-booked on its tree
                        // path: b = that re-route's number (from 1).
  kTenantQosVerdict,    // Tenant QoS consult: a = tenant id, b = refusal reason enum
                        // (0 = admitted); from/to = tier pair, pid = submitting owner.

  // kReclaim
  kReclaimWake,  // Reclaim pass starts: a = free pages, b = refill target.
  kReclaimDone,  // Pass ends: a = pages demoted (submitted), b = pages scanned.

  // kPolicy
  kPolicyPromote,  // Policy decided to promote: a = decision detail (policy-specific).
  kPolicyDemote,   // Policy decided to demote.
  kPolicyEnqueue,  // Candidate entered a policy queue (Chrono promotion queue etc.).

  // kTuning
  kTuningUpdate,  // a = parameter id (policy-specific), b = new value (scaled x1000).
};

const char* TraceEventTypeName(TraceEventType t);

// Sentinel for events not tied to a page.
inline constexpr uint64_t kTraceNoVpn = ~0ull;
inline constexpr int32_t kTraceNoPid = -1;

// 48-byte POD record. `a`/`b` are type-specific payloads (documented per type above);
// keeping them generic keeps the ring compact and the header dependency-free. `c` carries
// the queueing delay (ns) the event waited on a congested endpoint link: the access-path
// congestion charge for kAccess, the per-leg link wait for kMigrationCopy; 0 elsewhere
// and on machines without a congestion model.
struct TraceEvent {
  SimTime ts = 0;          // Simulated nanoseconds.
  uint64_t vpn = kTraceNoVpn;
  uint64_t a = 0;
  uint64_t b = 0;
  int32_t pid = kTraceNoPid;
  uint32_t c = 0;          // Endpoint-congestion queueing delay, ns (saturating).
  TraceEventType type = TraceEventType::kAccess;
  uint8_t category = 0;    // TraceCategoryIndex of the emitting category.
  int16_t from = kInvalidNode;
  int16_t to = kInvalidNode;
};

static_assert(sizeof(TraceEvent) <= 48, "TraceEvent should stay compact");

}  // namespace chronotier
