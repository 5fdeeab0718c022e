// Multi-tenant subsystem: cgroup-style grouping over Processes with per-tenant resource
// accounting and runtime-pluggable admission QoS.
//
// A Tenant is the unit production tiering actually serves: a cgroup of processes with a
// residency budget on each tier (how many frames of node N this tenant may hold), a
// migration-bandwidth budget (how fast the engine may move its pages), and an optional
// admission QoS *program* — a small registered C++ policy object (TierBPF-style) the
// AdmissionController consults per submission. Programs are registered by name, selected
// per tenant via MachineConfig, and swappable mid-experiment; three ship with the tree:
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
// Determinism contract for QoS programs: Check() may be consulted twice per submission
// (initial + post-reclaim recheck) and must not mutate admission state — ledger movement
// happens only in the registry's residency/admit paths.

#pragma once

#include <cstdint>
#include <memory>
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
  // Priority weight for "fair-share" (and any custom program that reads it). Must be > 0.
  double weight = 1.0;
  // Fig. 9's per-cgroup stall knob: extra delay before every access of every process
  // assigned to this tenant. Zero leaves each process's own delay untouched.
  SimDuration access_delay = 0;
  // Registered QoS program name ("" = no per-tenant program; budgets above still apply
  // to bandwidth, but residency budgets only bind through a program that reads them).
  std::string qos_program;
};

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

class TenantRegistry;

// Live per-tenant account: spec + gauges the QoS programs read.
struct TenantAccount {
  TenantSpec spec;
  std::vector<uint64_t> resident_pages;  // Per node, mirrors Process::AddResident sites.
  SimTime bandwidth_cursor = 0;          // Virtual time through which the budget is spent.
  std::unique_ptr<class TenantQosProgram> program;

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
};

// One admission consult, as seen by a QoS program.
struct QosRequest {
  int tenant = 0;
  int32_t owner_pid = kQosNoOwner;
  MigrationClass klass = MigrationClass::kAsync;
  MigrationSource source = MigrationSource::kPolicyDaemon;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  uint64_t pages = 0;
  SimTime now = 0;
};

// A registered per-tenant admission policy (the TierBPF analogue). Stateless between
// consults except through the account the registry owns; Check must be deterministic and
// side-effect-free w.r.t. admission (see header comment).
class TenantQosProgram {
 public:
  virtual ~TenantQosProgram() = default;
  virtual const char* name() const = 0;
  virtual MigrationRefusal Check(const QosRequest& request, const TenantAccount& account,
                                 const TenantRegistry& registry) = 0;
  // Called after an admitted submission is charged (for programs that keep their own
  // ledgers, e.g. borrow counting). Default: nothing.
  virtual void OnAdmit(const QosRequest& request, const TenantAccount& account,
                       TenantStats* stats) {
    (void)request;
    (void)account;
    (void)stats;
  }
};

// Program factory registration (plain function pointers so headers stay hot-path clean).
// The three shipped programs self-register; tests may register their own.
using QosProgramFactory = std::unique_ptr<TenantQosProgram> (*)();
void RegisterQosProgram(const char* name, QosProgramFactory factory);
bool IsRegisteredQosProgram(const std::string& name);
std::unique_ptr<TenantQosProgram> MakeQosProgram(const std::string& name);
std::vector<std::string> RegisteredQosPrograms();

// Cgroup-style tenant registry: pid -> tenant mapping, per-tenant residency mirror, and
// the AdmissionQosHook the migration engine's admission controller consults. Owned by
// Machine; configured once at machine construction, programs swappable any time after.
class TenantRegistry : public AdmissionQosHook {
 public:
  TenantRegistry() = default;

  // `specs` empty = one unlimited tenant named "default". `memory` provides the
  // capacity/headroom view programs read; must outlive the registry.
  void Configure(const std::vector<TenantSpec>& specs, const TieredMemory* memory);

  // True when any tenant has a QoS program or bandwidth budget — the condition for
  // installing the admission hook. False keeps admission free of tenant verdicts.
  bool qos_active() const { return qos_active_; }

  int num_tenants() const { return static_cast<int>(accounts_.size()); }
  const TenantAccount& account(int tenant) const;
  const TenantSpec& spec(int tenant) const { return account(tenant).spec; }
  const TieredMemory& memory() const { return *memory_; }
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

  // Runtime program swap (mid-experiment). CHECK-fails on an unknown name; "" uninstalls.
  // Swapping re-derives qos_active(), but the admission hook is only installed at machine
  // construction — swapping programs on a machine built with qos_active() == false has no
  // effect on admission (documented limitation; configure at least one program or budget
  // to keep the hook installed, e.g. the "none"-equivalent empty strict budget).
  void SetProgram(int tenant, const std::string& program_name);
  const char* program_name(int tenant) const;

  // AdmissionQosHook. QosCheck renders the verdict (evacuation drains bypass tenant QoS:
  // the OOM-safety path outranks tenant policy); QosAdmit charges the bandwidth cursor.
  MigrationRefusal QosCheck(int32_t owner, MigrationClass klass, MigrationSource source,
                            NodeId from, NodeId to, uint64_t pages, SimTime now) override;
  void QosAdmit(int32_t owner, NodeId from, NodeId to, uint64_t pages,
                SimTime now) override;

 private:
  TenantAccount& mutable_account(int tenant);
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
