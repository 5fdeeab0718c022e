// The tiering-policy interface.
//
// A TieringPolicy is the model's equivalent of a kernel memory-tiering patch set: it hooks
// NUMA hint faults and demand allocations, may register periodic daemons on the machine's
// event queue, and drives page migration through the machine's promote/demote services.
// Six implementations exist — Linux-NB, AutoTiering, Multi-Clock, TPP, Memtis (baselines,
// src/policies) and Chrono (src/core).

#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "src/common/time.h"
#include "src/mem/tier.h"
#include "src/mem/tiered_memory.h"
#include "src/vm/address_space.h"
#include "src/vm/page.h"
#include "src/vm/process.h"

namespace chronotier {

class Machine;

class TieringPolicy {
 public:
  virtual ~TieringPolicy() = default;

  virtual std::string_view name() const = 0;

  // Called once after the machine is fully assembled (tiers + processes exist). Policies
  // register their scan daemons and configure watermarks here.
  virtual void Attach(Machine& machine) = 0;

  // Called when a process is created after Attach (policies that keep per-process scanners
  // must handle late arrivals).
  virtual void OnProcessCreated(Process& process) { (void)process; }

  // NUMA hint fault: `unit` was PROT_NONE and has just been touched (the machine has already
  // cleared the poison bit and charged the base fault cost). Returns any *additional*
  // synchronous latency to charge to the faulting access (e.g. an inline migration).
  virtual SimDuration OnHintFault(Process& process, Vma& vma, PageInfo& unit, bool is_store,
                                  SimTime now) = 0;

  // A page was just demand-allocated (first touch).
  virtual void OnDemandAllocation(Process& process, Vma& vma, PageInfo& unit, SimTime now) {
    (void)process;
    (void)vma;
    (void)unit;
    (void)now;
  }

  // A committed demotion: `unit` left the fast tier through Machine::DemoteUnit (the
  // shared reclaim daemon, or a policy's own daemon). A parked demotion is not reported.
  // Policies use this to stamp thrash-detection state (Chrono) or update bookkeeping.
  virtual void OnDemotion(Vma& vma, PageInfo& unit, SimTime now) {
    (void)vma;
    (void)unit;
    (void)now;
  }

  // Where reclaim demotes `unit` to. Default: the next node id (the kernel's demotion path
  // over NUMA node order, and the only sensible answer on two tiers). Topology-
  // aware policies override this to weigh endpoint distance and live link congestion.
  // Must return a node != unit.node with spare capacity, or unit.node to veto demotion.
  virtual NodeId DemotionTarget(const TieredMemory& memory, const PageInfo& unit,
                                SimTime now) const {
    (void)now;
    return static_cast<NodeId>(std::min(unit.node + 1, memory.num_nodes() - 1));
  }

  // When reclaim runs on the fast tier, it frees pages until free_pages reaches this target.
  // Default: the high watermark (vanilla kernel). Chrono returns the `pro` watermark.
  virtual uint64_t DemotionRefillTarget(const MemoryTier& fast_tier) const {
    return fast_tier.watermarks().high;
  }

  // Whether the machine's shared reclaim daemon should run (policies with bespoke demotion
  // logic, e.g. Multi-Clock, return false and demote from their own daemons).
  virtual bool WantsSharedReclaim() const { return true; }

  // Page size the policy is designed for; experiments honour it unless they pin a size
  // (Memtis defaults to huge pages per its recommended configuration).
  virtual PageSizeKind PreferredPageSize() const { return PageSizeKind::kBase; }
};

}  // namespace chronotier
