// The machine's physical memory: the nodes of a parsed topology tree (one tier per NUMA
// node, the root being the fast tier) plus allocation and migration-cost plumbing shared
// by all tiering policies.

#pragma once

#include <cstdint>
#include <vector>

#include "src/common/time.h"
#include "src/mem/tier.h"
#include "src/topology/congestion.h"
#include "src/topology/health.h"
#include "src/topology/topology.h"

namespace chronotier {

// Result of one page-migration cost computation.
struct MigrationCost {
  // Time the copying CPU/DMA engine is busy (charged to kernel time).
  SimDuration copy_time = 0;
  // Fixed software overhead: unmap, TLB shootdown, remap, LRU bookkeeping.
  SimDuration software_overhead = 0;
  SimDuration total() const { return copy_time + software_overhead; }
};

class TieredMemory {
 public:
  // Parses `spec` (CHECK-fatal if invalid), divides its link bandwidths by
  // `bandwidth_scale` once, and derives one tier per node from the scaled topology, so the
  // tiers' copy bandwidth and the congestion links read the same value. The topology also
  // supplies hop penalties on the access path and the edge set the migration engine builds
  // its routed CopyChannel graph from.
  explicit TieredMemory(const TopologySpec& spec, double bandwidth_scale = 1.0);

  // Convenience for the paper's 25%-DRAM configuration: the star "(1,2)" with a DRAM root
  // holding `total_pages * fast_fraction` pages and an Optane endpoint holding the rest.
  static TieredMemory DramOptane(uint64_t total_pages, double fast_fraction = 0.25);

  MemoryTier& node(NodeId id) { return tiers_[static_cast<size_t>(id)]; }
  const MemoryTier& node(NodeId id) const { return tiers_[static_cast<size_t>(id)]; }
  int num_nodes() const { return static_cast<int>(tiers_.size()); }

  const Topology& topology() const { return topology_; }
  // The factor the link bandwidths were divided by.
  double bandwidth_scale() const { return bandwidth_scale_; }

  // Live fabric fault-domain state (per-edge link health, per-endpoint availability).
  // All-healthy unless a fabric fault injector mutates it; queries are O(1) when healthy.
  const TopologyHealth& health() const { return health_; }
  TopologyHealth& mutable_health() { return health_; }

  // Device access latency including the topology hop penalty (0 at depth <= 1, so star
  // machines see exactly node(id).AccessLatency()).
  SimDuration AccessLatency(NodeId id, bool is_store) const {
    return node(id).AccessLatency(is_store) + topology_.HopPenalty(id);
  }

  // --- per-endpoint congestion (parsed topologies with model_congestion only) ---
  bool congestion_enabled() const { return congestion_enabled_; }

  // Books one demand access on the node's link; returns the queuing delay to charge to
  // the access (always 0 when congestion is off). Called from both the fast and slow
  // access paths with identical arguments, preserving TLB-on/off equivalence.
  SimDuration ChargeAccessCongestion(NodeId id, SimTime now) {
    if (!congestion_enabled_) return 0;
    return congestion_[static_cast<size_t>(id)].OnAccess(now);
  }

  // Books migration traffic traversing the node's link (the engine calls this for every
  // node on a booked copy route). No-op when congestion is off.
  void NoteMigrationTraffic(NodeId id, SimTime now, uint64_t bytes) {
    if (!congestion_enabled_) return;
    congestion_[static_cast<size_t>(id)].OnMigrationBytes(now, bytes);
  }

  // Read-only congestion state (telemetry, policies). Valid only when congestion_enabled().
  const EndpointCongestion& congestion(NodeId id) const {
    return congestion_[static_cast<size_t>(id)];
  }

  // Allocates `pages` contiguous-equivalent base pages on one node (1 for a base page, 512
  // for a huge page) preferring `preferred`, falling back to successively slower nodes
  // (the kernel's default zonelist order). Returns the node allocated from, or
  // kInvalidNode if physical memory is exhausted.
  NodeId AllocatePages(NodeId preferred, uint64_t pages);

  void FreePages(NodeId node, uint64_t pages);

  // *Uncontended* device cost of migrating `bytes` from `from` to `to`: the copy time an
  // otherwise-idle channel would take (bounded by the slower side's bandwidth) plus the
  // fixed software overhead. Contention is NOT modelled here — concurrent in-flight
  // migrations on the same tier pair share bandwidth through the migration engine's
  // CopyChannel (src/migration), which books copies FIFO on a finite-bandwidth cursor.
  // Nothing on the promotion/demotion paths may charge this cost directly; submit through
  // MigrationEngine instead.
  MigrationCost CostOfMigration(NodeId from, NodeId to, uint64_t bytes) const;

  // Fixed per-migration software overhead: unmap, TLB shootdown, remap, LRU bookkeeping.
  static constexpr SimDuration kMigrationSoftwareOverhead = 3 * kMicrosecond;

 private:
  std::vector<MemoryTier> tiers_;
  Topology topology_;
  TopologyHealth health_;
  std::vector<EndpointCongestion> congestion_;  // Indexed by node; empty when disabled.
  bool congestion_enabled_ = false;
  double bandwidth_scale_ = 1.0;
};

}  // namespace chronotier
