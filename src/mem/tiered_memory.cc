#include "src/mem/tiered_memory.h"

#include <algorithm>
#include <string>

#include "src/common/check.h"

namespace chronotier {

TieredMemory::TieredMemory(const TopologySpec& spec, double bandwidth_scale)
    : bandwidth_scale_(bandwidth_scale) {
  std::string error;
  CHECK(Topology::Build(spec, &topology_, &error)) << "invalid topology: " << error;
  topology_.ScaleBandwidth(bandwidth_scale);
  for (TierSpec& tier : topology_.TierSpecs()) {
    tiers_.emplace_back(std::move(tier));
  }
  health_ = TopologyHealth(num_nodes(), static_cast<int>(topology_.edges().size()));
  congestion_enabled_ = topology_.congestion_enabled();
  if (congestion_enabled_) {
    const TopologySpec& scaled = topology_.spec();
    congestion_.reserve(tiers_.size());
    for (NodeId id = 0; id < num_nodes(); ++id) {
      congestion_.emplace_back(topology_.link_bandwidth(id),
                               scaled.congestion_access_delay_cap, scaled.access_bytes);
    }
  }
}

TieredMemory TieredMemory::DramOptane(uint64_t total_pages, double fast_fraction) {
  const auto fast_pages =
      static_cast<uint64_t>(static_cast<double>(total_pages) * fast_fraction);
  const uint64_t slow_pages = total_pages - fast_pages;
  return TieredMemory(
      TopologySpec::Star({TierSpec::Dram(fast_pages), TierSpec::OptanePmem(slow_pages)}));
}

NodeId TieredMemory::AllocatePage(NodeId preferred) { return AllocatePages(preferred, 1); }

NodeId TieredMemory::AllocatePages(NodeId preferred, uint64_t pages) {
  if (preferred < 0 || preferred >= num_nodes()) {
    preferred = kFastNode;
  }
  // Failing/offline endpoints take no new allocations: a failing endpoint is being
  // evacuated (new pages would race the drain) and an offline one must stay empty. The
  // gate is O(1)-false on healthy fabrics, so fault-free machines see no change.
  const bool faulted = health_.any_fault();
  // Zonelist order: preferred node, then every node after it, then nodes before it. In the
  // two-tier case this is fast-then-slow for default allocations.
  for (int offset = 0; offset < num_nodes(); ++offset) {
    const NodeId id = (preferred + offset) % num_nodes();
    if (faulted && !health_.endpoint_available(id)) {
      continue;
    }
    if (tiers_[static_cast<size_t>(id)].TryAllocate(pages)) {
      return id;
    }
  }
  // Last resort: allow dipping below the min watermark anywhere (the model's equivalent of
  // ALLOC_HARDER) so demand paging does not spuriously OOM while reclaim catches up.
  for (int offset = 0; offset < num_nodes(); ++offset) {
    const NodeId id = (preferred + offset) % num_nodes();
    if (faulted && !health_.endpoint_available(id)) {
      continue;
    }
    if (tiers_[static_cast<size_t>(id)].TryAllocate(pages, /*allow_below_min=*/true)) {
      return id;
    }
  }
  return kInvalidNode;
}

void TieredMemory::FreePages(NodeId node, uint64_t pages) {
  CHECK(node >= 0 && node < num_nodes()) << "node=" << node;
  tiers_[static_cast<size_t>(node)].Release(pages);
}

MigrationCost TieredMemory::CostOfMigration(NodeId from, NodeId to, uint64_t bytes) const {
  MigrationCost cost;
  const SimDuration read_side = node(from).MigrationCopyTime(bytes);
  const SimDuration write_side = node(to).MigrationCopyTime(bytes);
  cost.copy_time = std::max(read_side, write_side);
  cost.software_overhead = kMigrationSoftwareOverhead;
  return cost;
}

uint64_t TieredMemory::total_capacity_pages() const {
  uint64_t total = 0;
  for (const auto& tier : tiers_) {
    total += tier.capacity_pages();
  }
  return total;
}

uint64_t TieredMemory::total_used_pages() const {
  uint64_t total = 0;
  for (const auto& tier : tiers_) {
    total += tier.used_pages();
  }
  return total;
}

}  // namespace chronotier
