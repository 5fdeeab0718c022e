#include "src/tenant/tenant.h"

#include <utility>

#include "src/common/check.h"

namespace chronotier {

namespace {

// Registered program factories. A plain vector: lookups are rare (configure/swap) and
// ordered iteration keeps RegisteredQosPrograms() deterministic.
struct ProgramEntry {
  const char* name;
  QosProgramFactory factory;
};

std::vector<ProgramEntry>& ProgramTable() {
  static std::vector<ProgramEntry> table;
  return table;
}

const ProgramEntry* FindProgram(const std::string& name) {
  for (const ProgramEntry& entry : ProgramTable()) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

// "strict-budget": hard residency cap on the target node. The simplest isolation story —
// a tenant's steered footprint can never exceed its budget, even when the node is idle.
class StrictBudgetProgram : public TenantQosProgram {
 public:
  const char* name() const override { return "strict-budget"; }
  MigrationRefusal Check(const QosRequest& request, const TenantAccount& account,
                         const TenantRegistry& registry) override {
    (void)registry;
    const uint64_t budget = account.BudgetFor(request.to);
    if (budget == kTenantUnlimited) return MigrationRefusal::kNone;
    if (account.ResidentOn(request.to) + request.pages > budget) {
      return MigrationRefusal::kTenantQos;
    }
    return MigrationRefusal::kNone;
  }
};

// "borrow": work-conserving budget with repayment. Under budget always admits; over
// budget admits only while the target node keeps free headroom above its high watermark
// (spare capacity nobody else is reclaiming for). Repayment is implicit: once pressure
// erases the headroom, the over-budget tenant is refused until reclaim's demotions (which
// always pass — slow-node budgets default unlimited) drain its surplus back under budget.
class BorrowProgram : public TenantQosProgram {
 public:
  const char* name() const override { return "borrow"; }
  MigrationRefusal Check(const QosRequest& request, const TenantAccount& account,
                         const TenantRegistry& registry) override {
    // Every admit is preceded by its own consult, so re-deriving the flag here keeps a
    // submission refused later in admission (capacity, endpoint) from leaking a stale
    // borrow count into the next one.
    borrowing_ = false;
    const uint64_t budget = account.BudgetFor(request.to);
    if (budget == kTenantUnlimited) return MigrationRefusal::kNone;
    const uint64_t resident = account.ResidentOn(request.to);
    if (resident + request.pages <= budget) return MigrationRefusal::kNone;
    const MemoryTier& node = registry.memory().node(request.to);
    const uint64_t headroom_floor = node.watermarks().high;
    if (node.free_pages() >= headroom_floor + request.pages) {
      borrowing_ = true;
      return MigrationRefusal::kNone;
    }
    return MigrationRefusal::kTenantQos;
  }
  void OnAdmit(const QosRequest& request, const TenantAccount& account,
               TenantStats* stats) override {
    (void)request;
    (void)account;
    // Checked-then-admitted over budget: count the borrow. The flag round-trips through
    // the admit that immediately follows a kNone verdict, so no re-derivation races.
    if (borrowing_ && stats != nullptr) {
      ++stats->borrows;
    }
    borrowing_ = false;
  }

 private:
  bool borrowing_ = false;
};

// "fair-share": priority-weighted share of each node's capacity. Tenant i may hold
// capacity * w_i / sum(w) frames (integer floor), further tightened by an explicit
// residency budget when one is set. With a single tenant the share is the whole node.
class FairShareProgram : public TenantQosProgram {
 public:
  const char* name() const override { return "fair-share"; }
  MigrationRefusal Check(const QosRequest& request, const TenantAccount& account,
                         const TenantRegistry& registry) override {
    const MemoryTier& node = registry.memory().node(request.to);
    const double fraction = account.spec.weight / registry.total_weight();
    uint64_t share = static_cast<uint64_t>(
        static_cast<double>(node.capacity_pages()) * fraction);
    const uint64_t budget = account.BudgetFor(request.to);
    if (budget != kTenantUnlimited && budget < share) {
      share = budget;
    }
    if (account.ResidentOn(request.to) + request.pages > share) {
      return MigrationRefusal::kTenantQos;
    }
    return MigrationRefusal::kNone;
  }
};

std::unique_ptr<TenantQosProgram> MakeStrictBudget() {
  return std::make_unique<StrictBudgetProgram>();
}
std::unique_ptr<TenantQosProgram> MakeBorrow() { return std::make_unique<BorrowProgram>(); }
std::unique_ptr<TenantQosProgram> MakeFairShare() {
  return std::make_unique<FairShareProgram>();
}

// Shipped programs register once, before main (single-threaded static init; the table
// order is the registration order here, so RegisteredQosPrograms() is deterministic).
const bool kShippedProgramsRegistered = [] {
  RegisterQosProgram("strict-budget", &MakeStrictBudget);
  RegisterQosProgram("borrow", &MakeBorrow);
  RegisterQosProgram("fair-share", &MakeFairShare);
  return true;
}();

}  // namespace

void RegisterQosProgram(const char* name, QosProgramFactory factory) {
  CHECK(name != nullptr && factory != nullptr);
  CHECK(FindProgram(name) == nullptr) << "duplicate QoS program: " << name;
  ProgramTable().push_back(ProgramEntry{name, factory});
}

bool IsRegisteredQosProgram(const std::string& name) {
  return FindProgram(name) != nullptr;
}

std::unique_ptr<TenantQosProgram> MakeQosProgram(const std::string& name) {
  const ProgramEntry* entry = FindProgram(name);
  CHECK(entry != nullptr) << "unknown QoS program: " << name;
  return entry->factory();
}

std::vector<std::string> RegisteredQosPrograms() {
  std::vector<std::string> names;
  for (const ProgramEntry& entry : ProgramTable()) {
    names.emplace_back(entry.name);
  }
  return names;
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
    if (!account.spec.qos_program.empty()) {
      account.program = MakeQosProgram(account.spec.qos_program);
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
  if (acct.program == nullptr) {
    return false;  // Budgets only bind through a program.
  }
  const uint64_t budget = acct.BudgetFor(node);
  return budget != kTenantUnlimited && acct.ResidentOn(node) > budget;
}

void TenantRegistry::SetProgram(int tenant, const std::string& program_name) {
  TenantAccount& account = mutable_account(tenant);
  if (program_name.empty()) {
    account.program.reset();
  } else {
    account.program = MakeQosProgram(program_name);
  }
  account.spec.qos_program = program_name;
}

const char* TenantRegistry::program_name(int tenant) const {
  const TenantAccount& acct = account(tenant);
  return acct.program != nullptr ? acct.program->name() : "";
}

MigrationRefusal TenantRegistry::QosCheck(int32_t owner, MigrationClass klass,
                                          MigrationSource source, NodeId from, NodeId to,
                                          uint64_t pages, SimTime now) {
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
  if (verdict == MigrationRefusal::kNone && account.program != nullptr) {
    QosRequest request;
    request.tenant = tenant;
    request.owner_pid = owner;
    request.klass = klass;
    request.source = source;
    request.from = from;
    request.to = to;
    request.pages = pages;
    request.now = now;
    verdict = account.program->Check(request, account, *this);
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

void TenantRegistry::QosAdmit(int32_t owner, NodeId from, NodeId to, uint64_t pages,
                              SimTime now) {
  if (owner < 0) return;
  const int tenant = TenantOf(owner);
  TenantAccount& account = mutable_account(tenant);
  const uint64_t bytes = pages * kBasePageSize;
  TenantStats* stats = StatsFor(tenant);
  if (stats != nullptr) {
    ++stats->qos_admits;
    stats->migration_pages_admitted += pages;
    stats->migration_bytes_admitted += bytes;
  }
  if (account.spec.migration_budget_bytes_per_sec > 0.0) {
    const double cost_ns = static_cast<double>(bytes) * 1e9 /
                           account.spec.migration_budget_bytes_per_sec;
    const SimTime base = account.bandwidth_cursor > now ? account.bandwidth_cursor : now;
    account.bandwidth_cursor = base + static_cast<SimDuration>(cost_ns);
  }
  if (account.program != nullptr) {
    QosRequest request;
    request.tenant = tenant;
    request.owner_pid = owner;
    request.from = from;
    request.to = to;
    request.pages = pages;
    request.now = now;
    account.program->OnAdmit(request, account, stats);
  }
}

}  // namespace chronotier
