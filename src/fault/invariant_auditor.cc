#include "src/fault/invariant_auditor.h"

#include <array>
#include <cstdint>
#include <utility>

#include "src/common/check.h"
#include "src/vm/address_space.h"

namespace chronotier {

namespace {

const char* MembershipName(LruMembership m) {
  switch (m) {
    case LruMembership::kNone:
      return "none";
    case LruMembership::kActive:
      return "active";
    case LruMembership::kInactive:
      return "inactive";
  }
  return "?";
}

}  // namespace

std::string AuditReport::Summary() const {
  if (clean()) {
    return "clean";
  }
  std::string out = "audit found " + std::to_string(violations.size()) + " violation(s):";
  for (const std::string& v : violations) {
    out += "\n  ";
    out += v;
  }
  return out;
}

AuditReport InvariantAuditor::Audit(SimTime now, const TieredMemory& memory,
                                    const std::vector<std::unique_ptr<Process>>& processes,
                                    const std::deque<NodeLru>& lrus,
                                    const MigrationEngine* engine,
                                    const TenantRegistry* tenants) {
  AuditReport report;
  report.tick = now;
  const auto violate = [&report](const SimError& err) {
    report.violations.push_back(err.Format());
  };
  const int num_nodes = memory.num_nodes();

  // (5) Watermark ordering.
  for (NodeId node = 0; node < num_nodes; ++node) {
    const MemoryTier& tier = memory.node(node);
    const Watermarks& wm = tier.watermarks();
    if (!(wm.min <= wm.low && wm.low <= wm.high && wm.high <= wm.pro &&
          wm.pro <= tier.capacity_pages())) {
      violate(SimError("watermark ordering violated", now)
                  .Add("tier", tier.spec().name)
                  .Add("min", wm.min)
                  .Add("low", wm.low)
                  .Add("high", wm.high)
                  .Add("pro", wm.pro)
                  .Add("capacity", tier.capacity_pages()));
    }
  }

  // (3) Walk every LRU list, recording which node each page claims to be on (node + 1 in
  // a flat table keyed by the page's arena index; 0 = not on a list). Duplicates across
  // or within lists are violations; entries the page-table walk below does not cross off
  // are stale. Every list links pages of the one machine-wide arena.
  const PageArena* arena = lrus.empty() ? nullptr : lrus.front().active().arena();
  std::vector<uint8_t> on_lru(arena != nullptr ? arena->size() : 0, 0);
  uint64_t listed = 0;
  for (NodeId node = 0; node < num_nodes && static_cast<size_t>(node) < lrus.size(); ++node) {
    const NodeLru& lru = lrus[static_cast<size_t>(node)];
    for (const LruMembership membership : {LruMembership::kActive, LruMembership::kInactive}) {
      const PageList& list =
          membership == LruMembership::kActive ? lru.active() : lru.inactive();
      CHECK(list.arena() == arena) << "LRU lists link pages of different arenas";
      for (const PageInfo* page = list.Head(); page != nullptr; page = list.Next(page)) {
        uint8_t& entry = on_lru[page->arena];
        if (entry != 0) {
          violate(SimError("page on more than one LRU position", now)
                      .Add("owner", page->owner)
                      .Add("vpn", page->vpn)
                      .Add("node", node)
                      .Add("list", MembershipName(membership)));
          continue;
        }
        entry = static_cast<uint8_t>(node + 1);
        ++listed;
        if (!page->present()) {
          violate(SimError("non-present page on LRU list", now)
                      .Add("owner", page->owner)
                      .Add("vpn", page->vpn)
                      .Add("node", node)
                      .Add("list", MembershipName(membership)));
        }
        if (page->node != node) {
          violate(SimError("page on wrong node's LRU list", now)
                      .Add("owner", page->owner)
                      .Add("vpn", page->vpn)
                      .Add("page_node", page->node)
                      .Add("list_node", node));
        }
        if (page->lru_state() != membership) {
          violate(SimError("LRU membership tag disagrees with list", now)
                      .Add("owner", page->owner)
                      .Add("vpn", page->vpn)
                      .Add("tag", MembershipName(page->lru_state()))
                      .Add("list", MembershipName(membership)));
        }
      }
    }
  }

  // (2) + (4) Page-table walk: classify every PTE as a hotness unit or an unsplit-group
  // shadow tail, accumulate per-node residency, and cross off LRU entries.
  std::vector<uint64_t> resident(static_cast<size_t>(num_nodes), 0);
  uint64_t migrating_units = 0;
  for (const std::unique_ptr<Process>& process : processes) {
    std::array<uint64_t, kMaxNodes> proc_resident = {};
    for (const std::unique_ptr<Vma>& vma : process->aspace().vmas()) {
      for (PageInfo& page : vma->pages()) {
        const bool shadow_tail = vma->page_kind() == PageSizeKind::kHuge &&
                                 !vma->IsGroupSplit(vma->GroupIndex(page.vpn)) &&
                                 !page.huge_head();
        if (shadow_tail) {
          if (page.present() || page.lru_state() != LruMembership::kNone) {
            violate(SimError("shadow tail of unsplit huge group has state", now)
                        .Add("owner", page.owner)
                        .Add("vpn", page.vpn)
                        .Add("present", page.present() ? 1 : 0)
                        .Add("lru", MembershipName(page.lru_state())));
          }
          continue;
        }
        if (!page.present()) {
          if (page.lru_state() != LruMembership::kNone) {
            violate(SimError("absent unit carries an LRU tag", now)
                        .Add("owner", page.owner)
                        .Add("vpn", page.vpn)
                        .Add("lru", MembershipName(page.lru_state())));
          }
          continue;
        }
        if (page.node < 0 || page.node >= num_nodes) {
          violate(SimError("present unit on invalid node", now)
                      .Add("owner", page.owner)
                      .Add("vpn", page.vpn)
                      .Add("node", page.node));
          continue;
        }
        const uint64_t pages = vma->UnitPages(page.vpn);
        resident[static_cast<size_t>(page.node)] += pages;
        proc_resident[static_cast<size_t>(page.node)] += pages;
        if (page.Has(kPageMigrating)) {
          ++migrating_units;
        }
        uint8_t* entry = page.arena < on_lru.size() ? &on_lru[page.arena] : nullptr;
        if (entry == nullptr || *entry == 0) {
          violate(SimError("present unit missing from every LRU list", now)
                      .Add("owner", page.owner)
                      .Add("vpn", page.vpn)
                      .Add("node", page.node));
        } else {
          *entry = 0;
          --listed;
        }
      }
    }
    for (int node = 0; node < num_nodes && node < kMaxNodes; ++node) {
      if (process->resident_pages(node) != proc_resident[static_cast<size_t>(node)]) {
        violate(SimError("process residency counter disagrees with page table", now)
                    .Add("pid", process->pid())
                    .Add("node", node)
                    .Add("counter", process->resident_pages(node))
                    .Add("walked", proc_resident[static_cast<size_t>(node)]));
      }
    }
  }
  if (listed > 0) {
    // Report the stale entry with the smallest (owner, vpn), so the message does not
    // depend on arena registration order. Only listed entries are resolved: the padding
    // indices between the arena's VMA groups name no page.
    const PageInfo* first = nullptr;
    for (uint32_t idx = 0; idx < on_lru.size(); ++idx) {
      if (on_lru[idx] == 0) {
        continue;
      }
      const PageInfo* page = arena->page(idx);
      if (first == nullptr || std::make_pair(page->owner, page->vpn) <
                                  std::make_pair(first->owner, first->vpn)) {
        first = page;
      }
    }
    violate(SimError("stale LRU entries (pages not in any page table walk)", now)
                .Add("count", listed)
                .Add("first_owner", first->owner)
                .Add("first_vpn", first->vpn)
                .Add("node", on_lru[first->arena] - 1));
  }

  // (1) Frame accounting: what the tier thinks is handed out must equal walked residency
  // plus target frames reserved by in-flight migration transactions.
  for (NodeId node = 0; node < num_nodes; ++node) {
    const MemoryTier& tier = memory.node(node);
    const uint64_t reserved =
        engine != nullptr ? engine->inflight_reserved_pages_on(node) : 0;
    const uint64_t expected = resident[static_cast<size_t>(node)] + reserved;
    if (tier.allocated_pages() != expected) {
      violate(SimError("tier frame accounting mismatch", now)
                  .Add("tier", tier.spec().name)
                  .Add("allocated", tier.allocated_pages())
                  .Add("resident", resident[static_cast<size_t>(node)])
                  .Add("inflight_reserved", reserved)
                  .Add("free", tier.free_pages())
                  .Add("quarantined", tier.quarantined_pages())
                  .Add("pressure_stolen", tier.pressure_stolen_pages())
                  .Add("capacity", tier.capacity_pages()));
    }
  }

  // (6) kPageMigrating is set iff an async transaction owns the unit.
  if (engine != nullptr && migrating_units != engine->inflight_transactions()) {
    violate(SimError("migrating-flag population disagrees with engine in-flight set", now)
                .Add("flagged_units", migrating_units)
                .Add("inflight_transactions", engine->inflight_transactions()));
  }

  // (7) Fabric fault domains: an endpoint only transitions to kOffline once its drain
  // completes, so an offline endpoint must hold no resident pages and no in-flight target
  // reservations — hot-removing it loses nothing.
  if (memory.health().endpoints_unavailable() > 0) {
    for (NodeId node = 0; node < num_nodes; ++node) {
      if (memory.health().endpoint(node) != EndpointHealth::kOffline) {
        continue;
      }
      const uint64_t reserved =
          engine != nullptr ? engine->inflight_reserved_pages_on(node) : 0;
      if (resident[static_cast<size_t>(node)] != 0 || reserved != 0) {
        violate(SimError("resident pages on an offline endpoint", now)
                    .Add("node", node)
                    .Add("resident", resident[static_cast<size_t>(node)])
                    .Add("inflight_reserved", reserved));
      }
    }
  }

  // (8) No bytes are ever booked on a down link: the engine must route around or park, so
  // any CopyChannel::Book() landing inside a down window is a routing bug.
  if (engine != nullptr) {
    for (int i = 0; i < engine->num_channels(); ++i) {
      const CopyChannel& channel = engine->channel_at(i);
      if (channel.books_while_down() != 0) {
        violate(SimError("copy booked on a down link", now)
                    .Add("lo", channel.lo())
                    .Add("hi", channel.hi())
                    .Add("bookings_while_down", channel.books_while_down()));
      }
    }
  }

  // (9) Tenant residency mirror: per node, the registry's per-tenant resident frames must
  // sum to the walked residency. A mismatch means the QoS budget accounting double-charged
  // or leaked frames somewhere between the alloc/migrate-commit/reclaim sites.
  if (tenants != nullptr && tenants->num_tenants() > 0) {
    for (NodeId node = 0; node < num_nodes; ++node) {
      uint64_t tenant_sum = 0;
      for (int t = 0; t < tenants->num_tenants(); ++t) {
        tenant_sum += tenants->resident_pages(t, node);
      }
      if (tenant_sum != resident[static_cast<size_t>(node)]) {
        violate(SimError("tenant residency sum disagrees with page-table walk", now)
                    .Add("node", node)
                    .Add("tenant_sum", tenant_sum)
                    .Add("walked", resident[static_cast<size_t>(node)])
                    .Add("tenants", tenants->num_tenants()));
      }
    }
  }

  return report;
}

}  // namespace chronotier
