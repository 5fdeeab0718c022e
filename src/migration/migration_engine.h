// The asynchronous transactional migration engine (the "flexible page migration" half of
// the system as a first-class subsystem).
//
// Every page movement — inline fault promotion, daemon-batched promotion, reclaim
// demotion — is a *transaction* submitted through this engine:
//
//   Submit ──admission──> copy pass ──ResolvePass──┬─ commit ──────> kCommitted
//      │                     ▲                     ├─ park ────────> kParked (frames freed)
//      │ refused             │                     ├─ quarantine ──> kParked (quarantined)
//      ▼                     │                     ├─ abort ───────> kAborted
//   kRefused                 └───── retry ─────────┘
//
// ResolvePass decides every finished pass, inline or async (retry, or a spent budget's
// park/abort); Finish is the one terminal step behind every outcome but kRefused.
//
// Nomad-style non-exclusive copy: the unit stays mapped, resident and *writable* on its
// source node for the whole copy phase (target frames are reserved up front, so both copies
// exist transiently). At commit the engine re-checks the unit's write generation; a store
// that landed mid-copy invalidates the copy, which retries with exponential backoff up to a
// bounded attempt count. TLB-shootdown and remap costs are charged at commit only — an
// aborted copy wastes bandwidth, never a shootdown.
//
// Copies are booked on per-tier-pair CopyChannels with finite bandwidth (distinct tier
// pairs no longer serialize against each other; both directions between the same two tiers
// still contend, since each copy consumes both devices' bandwidth), and an
// AdmissionController refuses work per class and per source before it can queue.
//
// The engine is host-agnostic: it sees the world through MigrationEnv, which the harness
// Machine implements (LRU/residency bookkeeping, direct reclaim, kernel-time charging).

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/slab.h"
#include "src/common/time.h"
#include "src/mem/tiered_memory.h"
#include "src/migration/admission.h"
#include "src/migration/copy_channel.h"
#include "src/migration/migration_types.h"
#include "src/sim/event_queue.h"
#include "src/trace/tracer.h"
#include "src/vm/address_space.h"
#include "src/vm/page.h"

namespace chronotier {

// Services the engine needs from its host. Frame accounting (reserve/free) is the engine's
// own job; the host applies the VM-visible side of a committed move and supplies reclaim.
class MigrationEnv {
 public:
  virtual ~MigrationEnv() = default;

  virtual EventQueue& queue() = 0;
  virtual TieredMemory& memory() = 0;

  // Best-effort direct reclaim so a promotion of `pages` can reserve fast-tier frames.
  virtual void ReclaimForPromotion(uint64_t pages) = 0;

  // Applies a committed move: unit.node, LRU lists, per-process residency, harness
  // promotion/demotion counters. Frames have already been re-pointed by the engine.
  virtual void ApplyMigration(Vma& vma, PageInfo& unit, NodeId from, NodeId to) = 0;

  // Charges migration work (copy CPU, commit-time shootdown + remap) as kernel time.
  virtual void ChargeMigrationKernelTime(SimDuration d) = 0;

  // The unit's kPageMigrating ownership just changed (set at admission). Hosts that cache
  // virtual -> unit translations (the machine's access-path TLB) drop entries covering the
  // unit here; hosts without such caches can ignore it.
  virtual void OnUnitMigrationStateChanged(Vma& vma, PageInfo& unit) {
    (void)vma;
    (void)unit;
  }
};

class MigrationEngine {
 public:
  // `stats` outlives the engine (it lives in harness Metrics so warmup resets cover it).
  MigrationEngine(MigrationEngineConfig config, MigrationEnv* env, MigrationStats* stats);

  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  // Copy passes per transaction (1 initial + retries) before a dirty copy or a transient
  // fault becomes final.
  static constexpr int kMaxCopyAttempts = 3;
  // An async retry after counted attempt k books no earlier than kRetryBackoff << (k - 1)
  // after the pass finished. A re-routed pass spends only the re-route budget, not an
  // attempt, so k never exceeds kMaxCopyAttempts.
  static constexpr SimDuration kRetryBackoff = 100 * kMicrosecond;
  static_assert(kRetryBackoff <=
                    std::numeric_limits<SimDuration>::max() >> (kMaxCopyAttempts - 1),
                "the deepest retry backoff must fit SimDuration");

  // Submits one unit for migration to `target`. `now` lets fault-path callers pass their
  // process clock (which runs ahead of the event queue); kNeverTime means the queue clock.
  // kSync/kReclaim transactions are complete when this returns; kAsync transactions commit
  // (or abort) later via the event queue.
  MigrationTicket Submit(Vma& vma, PageInfo& unit, NodeId target, MigrationClass klass,
                         MigrationSource source, SimTime now = kNeverTime);

  // Installs a copy-fault oracle (the fault injector). nullptr (default) = no injection.
  // A transient fault retries like a dirty copy (async: after the retry backoff; inline:
  // back-to-back) and parks once kMaxCopyAttempts passes failed, freeing the target frames;
  // a persistent fault parks at once and quarantines them. A parked unit stays mapped at
  // its source and no commit cost is charged.
  void set_fault_oracle(CopyFaultOracle* oracle) { fault_oracle_ = oracle; }

  // Installs the per-tenant admission QoS hook (the tenant registry). nullptr (default) =
  // no tenant QoS: admission runs exactly the global per-class/per-source checks.
  void set_qos_hook(AdmissionQosHook* hook) { admission_.set_qos_hook(hook); }

  // Installs the tracer (null = no tracing). Strictly observational: emission never
  // changes admission, booking, or retry decisions.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  const MigrationEngineConfig& config() const { return config_; }
  const MigrationStats& stats() const { return *stats_; }

  // Live gauges (not part of the resettable stats): async transactions still copying, and
  // the target frames they hold reserved. total_used_pages() exceeds the sum of present
  // pages by exactly `inflight_reserved_pages` while copies are in flight.
  uint64_t inflight_transactions() const { return static_cast<uint64_t>(inflight_.size()); }
  uint64_t inflight_reserved_pages() const { return inflight_reserved_pages_; }
  // Target frames reserved on `node` by in-flight transactions (invariant auditing).
  uint64_t inflight_reserved_pages_on(NodeId node) const;

  // Channels are per *unordered* topology edge: channel(a, b) == channel(b, a), and the
  // pair must be directly connected (a tree link).
  int num_channels() const { return static_cast<int>(channels_.size()); }
  const CopyChannel& channel(NodeId from, NodeId to) const;
  // Mutable access for the fault injector (stall / bandwidth-collapse injection).
  CopyChannel& mutable_channel(NodeId from, NodeId to) { return channel_mutable(from, to); }
  // Indexed channel access (the fault injector picks uniformly over existing edges).
  CopyChannel& channel_at(int index) { return channels_[static_cast<size_t>(index)]; }
  const CopyChannel& channel_at(int index) const {
    return channels_[static_cast<size_t>(index)];
  }

  // Worst queueing delay over the links a copy from -> to traverses (== the single
  // channel's backlog when the pair is directly connected). Routes around down links.
  SimDuration RouteBacklog(NodeId from, NodeId to, SimTime now) const;

  // Fabric fault notification: the edge {lo, hi} just went down. Every in-flight
  // transaction whose current copy pass crosses that edge is marked; its copy-done event
  // dirty-aborts the pass and re-routes over the surviving fabric (bounded re-route
  // budget, park-at-source fallback). Booking-time avoidance is automatic — BookCopy
  // consults TopologyHealth — so this only handles passes already in flight.
  void OnLinkDown(NodeId lo, NodeId hi, SimTime now);

 private:
  struct Transaction {
    uint64_t id = 0;        // Monotonic trace/ticket id (stable across runs).
    uint64_t slab_key = 0;  // Generational inflight_ handle (async only; 0 for inline).
    Vma* vma = nullptr;
    PageInfo* unit = nullptr;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    uint64_t pages = 0;
    MigrationClass klass = MigrationClass::kAsync;
    MigrationSource source = MigrationSource::kPolicyDaemon;
    int attempt = 0;                 // Copy passes started, re-routes excluded.
    uint32_t write_gen_at_copy = 0;  // Snapshot taken when the current pass started.
    std::vector<NodeId> route;       // Node path of the current pass (set by BookCopy).
    int reroute_attempts = 0;        // Passes invalidated by a link-down, re-booked.
    bool leg_failed = false;  // Current pass crossed a link that went down; the next
                              // booking re-routes it.
  };

  size_t ChannelIndex(NodeId from, NodeId to) const;
  CopyChannel& channel_mutable(NodeId from, NodeId to);

  // The node path a copy from -> to would take over surviving links: the direct edge or
  // tree route when no link is down, a recomputed detour otherwise. Empty when down links
  // partition the pair.
  std::vector<NodeId> HealthyRoute(NodeId from, NodeId to) const;

  // Books one copy pass for `txn` (charging copy CPU) into *booking. A pass whose tier
  // pair is not directly connected books one leg per link of the topology route,
  // store-and-forward (leg k+1 starts no earlier than leg k finishes); the returned
  // booking spans first-leg start to last-leg finish. Returns false — with no side
  // effects — when down links leave no surviving path between the pair.
  bool BookCopy(Transaction& txn, SimTime now, SimTime earliest,
                CopyChannel::Booking* booking);
  // Books an async pass and schedules its copy-start snapshot + copy-done events.
  // Returns false (nothing booked or scheduled) when no surviving path exists.
  bool ScheduleAsyncPass(Transaction& txn, SimTime now, SimTime earliest);
  // Async copy-done event: resolves the pass, then re-books it after the retry backoff or
  // finishes the transaction. `key` is the slab handle captured by the event; stale keys
  // (transaction already finished) resolve to nothing and the event is a no-op.
  void OnCopyDone(uint64_t key, SimTime now);

  // What a finished copy pass leads to.
  enum class PassVerdict : uint8_t {
    kCommit,      // Clean copy: remap onto the target.
    kRetry,       // Re-book another pass (budget left).
    kPark,        // Stay at the source, target frames freed.
    kQuarantine,  // Stay at the source, target frames quarantined (persistent fault).
    kAbort,       // Stay at the source: the last allowed pass was dirty.
  };
  // The one decision site for a finished pass. Checks, in order, a leg that crossed a link
  // gone down, the injected fault, then the dirty check; counts and traces the pass.
  PassVerdict ResolvePass(Transaction& txn, SimTime now);
  // The one terminal step: commits or leaves the unit at its source, clears kPageMigrating,
  // retires admission and frees an async transaction's slot (destroying `txn`).
  MigrationOutcome Finish(Transaction& txn, PassVerdict verdict, SimTime now);

  MigrationEngineConfig config_;
  MigrationEnv* env_;
  MigrationStats* stats_;
  CopyFaultOracle* fault_oracle_ = nullptr;
  Tracer* tracer_ = nullptr;
  AdmissionController admission_;
  std::vector<CopyChannel> channels_;  // One per topology edge, in topology edge order.
  std::vector<int> edge_channel_;      // Dense num_nodes^2 pair -> channel index (-1: none).
  int num_nodes_ = 0;

  // Async transactions, in a generational slot arena: O(1) insert/lookup/erase with no
  // per-transaction heap node (the old unordered_map allocated one per Submit), and
  // deterministic slot-order iteration for OnLinkDown.
  SlotArena<Transaction> inflight_;
  uint64_t next_txn_id_ = 1;
  uint64_t inflight_reserved_pages_ = 0;
  std::vector<uint64_t> inflight_pages_by_node_;  // Reserved target pages per node (async).
};

}  // namespace chronotier
