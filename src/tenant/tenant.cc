#include "src/tenant/tenant.h"

#include <algorithm>

#include "src/common/check.h"

namespace chronotier {

bool ParseQosProgram(const std::string& name, QosProgram* out) {
  static constexpr struct {
    const char* name;
    QosProgram program;
  } kPrograms[] = {{"", QosProgram::kNone},
                   {"strict-budget", QosProgram::kStrictBudget},
                   {"borrow", QosProgram::kBorrow},
                   {"fair-share", QosProgram::kFairShare}};
  for (const auto& entry : kPrograms) {
    if (name == entry.name) {
      *out = entry.program;
      return true;
    }
  }
  return false;
}

void TenantRegistry::Configure(const std::vector<TenantSpec>& specs,
                               const TieredMemory* memory) {
  CHECK(memory != nullptr);
  CHECK(accounts_.empty()) << "TenantRegistry configured twice";
  memory_ = memory;
  const int num_nodes = memory->num_nodes();

  std::vector<TenantSpec> effective = specs;
  if (effective.empty()) {
    effective.emplace_back();  // No tenants declared: one unlimited "default" tenant.
    effective.back().name = "default";
  }

  total_weight_ = 0.0;
  accounts_.resize(effective.size());
  for (size_t t = 0; t < effective.size(); ++t) {
    TenantAccount& account = accounts_[t];
    account.spec = effective[t];
    account.resident_pages.assign(static_cast<size_t>(num_nodes), 0);
    CHECK(account.spec.weight > 0.0)
        << "tenant " << account.spec.name << ": weight must be > 0";
    CHECK(account.spec.migration_budget_bytes_per_sec >= 0.0);
    CHECK(static_cast<int>(account.spec.residency_budget_pages.size()) <= num_nodes)
        << "tenant " << account.spec.name << ": budget entries exceed node count";
    total_weight_ += account.spec.weight;
    CHECK(ParseQosProgram(account.spec.qos_program, &account.program))
        << "unknown QoS program: " << account.spec.qos_program;
    if (account.program != QosProgram::kNone) {
      qos_active_ = true;
    }
    if (account.spec.migration_budget_bytes_per_sec > 0.0) {
      qos_active_ = true;
    }
  }
}

const TenantAccount& TenantRegistry::account(int tenant) const {
  CHECK(tenant >= 0 && tenant < num_tenants()) << "bad tenant id " << tenant;
  return accounts_[static_cast<size_t>(tenant)];
}

TenantAccount& TenantRegistry::mutable_account(int tenant) {
  CHECK(tenant >= 0 && tenant < num_tenants()) << "bad tenant id " << tenant;
  return accounts_[static_cast<size_t>(tenant)];
}

void TenantRegistry::AssignProcess(int32_t pid, int tenant) {
  CHECK(pid >= 0);
  CHECK(tenant >= 0 && tenant < num_tenants())
      << "pid " << pid << " assigned to unknown tenant " << tenant;
  const size_t i = static_cast<size_t>(pid);
  if (i >= tenant_of_pid_.size()) {
    tenant_of_pid_.resize(i + 1, 0);
  }
  tenant_of_pid_[i] = tenant;
}

void TenantRegistry::AddResident(int tenant, NodeId node, int64_t delta) {
  TenantAccount& account = mutable_account(tenant);
  CHECK(node >= 0 && static_cast<size_t>(node) < account.resident_pages.size());
  uint64_t& resident = account.resident_pages[static_cast<size_t>(node)];
  if (delta < 0) {
    const uint64_t drop = static_cast<uint64_t>(-delta);
    CHECK(resident >= drop) << "tenant " << account.spec.name
                            << " residency underflow on node " << node << ": " << resident
                            << " - " << drop;
    resident -= drop;
  } else {
    resident += static_cast<uint64_t>(delta);
  }
}

bool TenantRegistry::OverBudget(int tenant, NodeId node) const {
  const TenantAccount& acct = account(tenant);
  // Budgets only bind through a program.
  return acct.program != QosProgram::kNone && acct.OverBudgetWith(node, 0);
}

// strict-budget caps residency on `to` at the budget. fair-share caps it at the tenant's
// weighted share of the node's capacity (integer floor), tightened by the budget when one
// is set. borrow caps it at the budget but still admits an over-cap request while the node
// keeps free headroom above its high watermark (spare capacity nobody else is reclaiming
// for); once pressure erases the headroom the tenant is refused until reclaim's demotions
// (which always pass: slow-node budgets default unlimited) drain it back under budget.
MigrationRefusal TenantRegistry::ProgramVerdict(const TenantAccount& account, NodeId to,
                                                uint64_t pages) const {
  const MemoryTier& node = memory_->node(to);
  uint64_t cap = account.BudgetFor(to);
  if (account.program == QosProgram::kFairShare) {
    const double fraction = account.spec.weight / total_weight_;
    cap = std::min(cap, static_cast<uint64_t>(
                            static_cast<double>(node.capacity_pages()) * fraction));
  }
  if (cap == kTenantUnlimited || account.ResidentOn(to) + pages <= cap) {
    return MigrationRefusal::kNone;
  }
  if (account.program == QosProgram::kBorrow &&
      node.free_pages() >= node.watermarks().high + pages) {
    return MigrationRefusal::kNone;
  }
  return MigrationRefusal::kTenantQos;
}

MigrationRefusal TenantRegistry::QosCheck(int32_t owner, MigrationSource source,
                                          NodeId from, NodeId to, uint64_t pages,
                                          SimTime now) {
  if (source == MigrationSource::kEvacuation) {
    // Fabric-failure drains are the OOM-safety path; tenant policy never blocks them.
    return MigrationRefusal::kNone;
  }
  const int tenant = owner >= 0 ? TenantOf(owner) : 0;
  TenantAccount& account = mutable_account(tenant);
  MigrationRefusal verdict = MigrationRefusal::kNone;

  if (account.spec.migration_budget_bytes_per_sec > 0.0 &&
      account.bandwidth_cursor > now + account.spec.migration_budget_burst) {
    verdict = MigrationRefusal::kTenantQos;
  }
  if (verdict == MigrationRefusal::kNone && account.program != QosProgram::kNone) {
    verdict = ProgramVerdict(account, to, pages);
  }

  if (TenantStats* stats = StatsFor(tenant)) {
    ++stats->qos_checks;
    if (verdict != MigrationRefusal::kNone) {
      ++stats->qos_refusals;
    }
  }
  EmitTrace(tracer_, TraceCategory::kMigration, TraceEventType::kTenantQosVerdict, now,
            owner, kTraceNoVpn, from, to, static_cast<uint64_t>(tenant),
            static_cast<uint64_t>(verdict));
  return verdict;
}

void TenantRegistry::QosAdmit(int32_t owner, MigrationSource source, NodeId to,
                              uint64_t pages, SimTime now) {
  if (owner < 0) return;
  const int tenant = TenantOf(owner);
  TenantAccount& account = mutable_account(tenant);
  const uint64_t bytes = pages * kBasePageSize;
  TenantStats* stats = StatsFor(tenant);
  if (stats != nullptr) {
    ++stats->qos_admits;
    stats->migration_pages_admitted += pages;
    stats->migration_bytes_admitted += bytes;
    // An admitted "borrow" request over its budget was a headroom grant. Residency does
    // not move between a submission's last consult and its admit, so this re-derives
    // that consult's verdict; evacuations bypassed the consult and never borrow.
    if (account.program == QosProgram::kBorrow && source != MigrationSource::kEvacuation &&
        account.OverBudgetWith(to, pages)) {
      ++stats->borrows;
    }
  }
  if (account.spec.migration_budget_bytes_per_sec > 0.0) {
    const double cost_ns = static_cast<double>(bytes) * 1e9 /
                           account.spec.migration_budget_bytes_per_sec;
    const SimTime base = account.bandwidth_cursor > now ? account.bandwidth_cursor : now;
    account.bandwidth_cursor = base + static_cast<SimDuration>(cost_ns);
  }
}

}  // namespace chronotier
