// Multi-tenant subsystem: cgroup-style grouping over Processes with per-tenant resource
// accounting and admission QoS.
//
// A Tenant is the unit production tiering actually serves: a cgroup of processes with a
// residency budget on each tier (how many frames of node N this tenant may hold), a
// migration-bandwidth budget (how fast the engine may move its pages), and an optional
// admission QoS *program* (TierBPF-style) the AdmissionController consults per
// submission. A tenant names its program in MachineConfig and keeps it for the whole run;
// there are three, and one registry function renders every verdict:
//
//   "strict-budget"  Hard cap: refuse any migration that would push the tenant's residency
//                    on the target node past its budget.
//   "borrow"         Work-conserving: over-budget migrations are admitted while the target
//                    node has free headroom above its high watermark; the moment headroom
//                    disappears the tenant is refused until reclaim has drained its surplus
//                    back under budget (the repayment path).
//   "fair-share"     Priority-weighted: tenant i may hold capacity * w_i / sum(w) frames
//                    of the target node (tightened further by an explicit budget, if any).
//
// The TenantRegistry (owned by Machine) implements the migration layer's AdmissionQosHook,
// mirrors per-tenant residency from the same alloc/migrate-commit/reclaim sites that keep
// the per-process counters, and feeds per-tenant Metrics counters + telemetry rows. All
// accounting is deterministic: budgets are integers, the bandwidth budget is a virtual
// cursor (no wall clock, no sampling), and verdict counters replay bit-identically.
//
// Determinism contract: a verdict may be consulted twice per submission (initial +
// post-reclaim recheck) and changes no admission state — ledger movement happens only in
// the registry's residency/admit paths.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/time.h"
#include "src/mem/tiered_memory.h"
#include "src/migration/migration_types.h"
#include "src/trace/tracer.h"

namespace chronotier {

// No cap on a residency budget entry.
inline constexpr uint64_t kTenantUnlimited = ~0ull;

// One tenant's static configuration (MachineConfig::tenants). An empty tenants vector
// declares one tenant named "default" with unlimited budgets and no QoS program; every
// process lands there, and it is accounted like any declared tenant.
struct TenantSpec {
  std::string name = "tenant";
  // Residency budget per node, in base pages; entry i caps frames held on node i. Missing
  // entries (or kTenantUnlimited) mean no cap. Binds only through a QoS program, on two
  // paths: migration admission (over-budget promotions refused) and targeted reclaim
  // (while over budget, the tenant's fast-tier pages lose their second chance, so
  // squatters drain). A demand fault still allocates wherever placement says (the kernel
  // cannot refuse a first touch) — like memory.high, the budget bounds steered traffic
  // and biases reclaim rather than capping instantaneous usage.
  std::vector<uint64_t> residency_budget_pages;
  // Migration-bandwidth budget in bytes per simulated second across all this tenant's
  // submissions; 0 = unlimited. Deterministic token model: each admitted transaction
  // advances a virtual cursor by bytes/budget, and admission refuses while the cursor
  // leads `now` by more than `migration_budget_burst`.
  double migration_budget_bytes_per_sec = 0.0;
  SimDuration migration_budget_burst = 50 * kMillisecond;
  // Priority weight for "fair-share". Must be > 0.
  double weight = 1.0;
  // Fig. 9's per-cgroup stall knob: extra delay before every access of every process
  // assigned to this tenant. Zero leaves each process's own delay untouched.
  SimDuration access_delay = 0;
  // QoS program name, one of those ParseQosProgram accepts ("" = no program; the
  // bandwidth budget above still applies, but residency budgets only bind through a
  // program).
  std::string qos_program;
};

// A tenant's admission QoS program (see the header comment).
enum class QosProgram : uint8_t { kNone, kStrictBudget, kBorrow, kFairShare };

// Maps a TenantSpec::qos_program name to its program ("" -> kNone). False on an unknown
// name, leaving *out untouched.
bool ParseQosProgram(const std::string& name, QosProgram* out);

// Per-tenant cumulative counters, owned by harness Metrics (like MigrationStats) so the
// warmup Reset() discards them with every other run counter. Live gauges (residency,
// bandwidth cursor) stay on the registry and survive the reset.
struct TenantStats {
  uint64_t accesses = 0;
  Log2Histogram access_latency;       // ns, same latency CountAccess records globally.
  uint64_t qos_checks = 0;            // QoS consults (a submission may consult twice).
  uint64_t qos_refusals = 0;          // Consults that refused (kTenantQos).
  uint64_t qos_admits = 0;            // Admitted transactions charged to this tenant.
  uint64_t borrows = 0;               // Over-budget grants by the "borrow" program.
  uint64_t migration_pages_admitted = 0;
  uint64_t migration_bytes_admitted = 0;

  void Reset() { *this = TenantStats(); }
};

// Live per-tenant account: spec + gauges the QoS verdict reads.
struct TenantAccount {
  TenantSpec spec;
  std::vector<uint64_t> resident_pages;  // Per node, mirrors Process::AddResident sites.
  SimTime bandwidth_cursor = 0;          // Virtual time through which the budget is spent.
  QosProgram program = QosProgram::kNone;  // Parsed from spec.qos_program by Configure.

  // Budget for `node` (kTenantUnlimited when unset).
  uint64_t BudgetFor(NodeId node) const {
    const size_t i = static_cast<size_t>(node);
    if (i >= spec.residency_budget_pages.size()) return kTenantUnlimited;
    return spec.residency_budget_pages[i];
  }
  uint64_t ResidentOn(NodeId node) const {
    const size_t i = static_cast<size_t>(node);
    return i < resident_pages.size() ? resident_pages[i] : 0;
  }
  // True when holding `extra` more pages on `node` would exceed a budget set there.
  bool OverBudgetWith(NodeId node, uint64_t extra) const {
    const uint64_t budget = BudgetFor(node);
    return budget != kTenantUnlimited && ResidentOn(node) + extra > budget;
  }
};

// Cgroup-style tenant registry: pid -> tenant mapping, per-tenant residency mirror, and
// the AdmissionQosHook the migration engine's admission controller consults. Owned by
// Machine; configured once at machine construction.
class TenantRegistry : public AdmissionQosHook {
 public:
  TenantRegistry() = default;

  // `specs` empty = one unlimited tenant named "default". `memory` provides the
  // capacity/headroom view the verdict reads; must outlive the registry.
  void Configure(const std::vector<TenantSpec>& specs, const TieredMemory* memory);

  // True when any tenant has a QoS program or bandwidth budget — the condition for
  // installing the admission hook. False keeps admission free of tenant verdicts.
  bool qos_active() const { return qos_active_; }

  int num_tenants() const { return static_cast<int>(accounts_.size()); }
  const TenantAccount& account(int tenant) const;
  const TenantSpec& spec(int tenant) const { return account(tenant).spec; }
  double total_weight() const { return total_weight_; }

  // Process membership. Pids index a dense vector (Machine allocates them densely).
  void AssignProcess(int32_t pid, int tenant);
  int TenantOf(int32_t pid) const {
    const size_t i = static_cast<size_t>(pid);
    return i < tenant_of_pid_.size() ? tenant_of_pid_[i] : 0;
  }

  // Residency mirror, called from the same sites that maintain Process::AddResident
  // (demand-fault allocation and migration commit; reclaim/evacuation are commits too).
  void AddResident(int tenant, NodeId node, int64_t delta);
  uint64_t resident_pages(int tenant, NodeId node) const {
    return account(tenant).ResidentOn(node);
  }

  // Cumulative counters live on Metrics; the machine wires them in after construction.
  void set_stats(std::vector<TenantStats>* stats) { stats_ = stats; }
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Per-access accounting, called on every completed access.
  void CountAccess(int tenant, SimDuration latency) {
    TenantStats& stats = (*stats_)[static_cast<size_t>(tenant)];
    ++stats.accesses;
    stats.access_latency.Add(static_cast<uint64_t>(latency));
  }

  // True while `tenant` holds more pages on `node` than its declared residency budget
  // *and* runs a QoS program (budgets only bind through a program, at admission and
  // here). The reclaim daemon consults this to demote an over-budget tenant's pages
  // first, even when recently referenced — the memory.high analogue of targeted reclaim,
  // and the path that actually drains a squatter whose pages arrived via first touch.
  bool OverBudget(int tenant, NodeId node) const;

  // AdmissionQosHook. QosCheck renders the verdict (evacuation drains bypass tenant QoS:
  // the OOM-safety path outranks tenant policy); QosAdmit charges the bandwidth cursor
  // and counts a "borrow" grant.
  MigrationRefusal QosCheck(int32_t owner, MigrationSource source, NodeId from, NodeId to,
                            uint64_t pages, SimTime now) override;
  void QosAdmit(int32_t owner, MigrationSource source, NodeId to, uint64_t pages,
                SimTime now) override;

 private:
  TenantAccount& mutable_account(int tenant);
  // The program's verdict on moving `pages` more of `account`'s pages onto `to`.
  MigrationRefusal ProgramVerdict(const TenantAccount& account, NodeId to,
                                  uint64_t pages) const;
  TenantStats* StatsFor(int tenant) {
    if (stats_ == nullptr) return nullptr;
    const size_t i = static_cast<size_t>(tenant);
    return i < stats_->size() ? &(*stats_)[i] : nullptr;
  }

  bool qos_active_ = false;
  double total_weight_ = 1.0;
  const TieredMemory* memory_ = nullptr;
  std::vector<TenantAccount> accounts_;
  std::vector<int> tenant_of_pid_;
  std::vector<TenantStats>* stats_ = nullptr;
  Tracer* tracer_ = nullptr;
};

}  // namespace chronotier
