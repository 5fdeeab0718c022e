// Tests for the multi-tenant subsystem: registry bookkeeping, the three QoS programs, the
// bandwidth-budget cursor, machine/experiment integration (inertness of a
// declared-but-unlimited tenant, the Fig. 9 access-delay fold, budget enforcement), the
// tenant invariant-audit check, and telemetry.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/standard_policies.h"
#include "src/harness/experiment.h"
#include "src/harness/machine.h"
#include "src/tenant/tenant.h"
#include "src/workloads/pmbench.h"
#include "tests/experiment_result_testutil.h"

namespace chronotier {
namespace {

TieredMemory SmallMemory(uint64_t fast_pages = 1024, uint64_t slow_pages = 4096) {
  return TieredMemory(
      TopologySpec::Star({TierSpec::Dram(fast_pages), TierSpec::OptanePmem(slow_pages)}));
}

TEST(TenantRegistryTest, MembershipAndResidencyMirror) {
  TieredMemory memory = SmallMemory();
  TenantRegistry registry;
  TenantSpec a;
  a.name = "a";
  TenantSpec b;
  b.name = "b";
  registry.Configure({a, b}, &memory);
  EXPECT_FALSE(registry.qos_active());  // No program, no bandwidth budget.
  EXPECT_EQ(registry.num_tenants(), 2);

  registry.AssignProcess(0, 0);
  registry.AssignProcess(1, 1);
  registry.AssignProcess(2, 1);
  EXPECT_EQ(registry.TenantOf(0), 0);
  EXPECT_EQ(registry.TenantOf(1), 1);
  EXPECT_EQ(registry.TenantOf(2), 1);
  EXPECT_EQ(registry.TenantOf(99), 0);  // Unknown pids fall to the first tenant.

  registry.AddResident(1, kFastNode, 5);
  registry.AddResident(1, kFastNode, -2);
  registry.AddResident(1, kSlowNode, 7);
  EXPECT_EQ(registry.resident_pages(1, kFastNode), 3u);
  EXPECT_EQ(registry.resident_pages(1, kSlowNode), 7u);
  EXPECT_EQ(registry.resident_pages(0, kFastNode), 0u);
}

TEST(TenantRegistryTest, ResidencyUnderflowIsFatal) {
  TieredMemory memory = SmallMemory();
  TenantRegistry registry;
  registry.Configure({}, &memory);  // The "default" tenant.
  registry.AddResident(0, kFastNode, 1);
  EXPECT_DEATH({ registry.AddResident(0, kFastNode, -2); }, "residency underflow");
}

TEST(TenantRegistryTest, EmptySpecListConfiguresOneDefaultTenant) {
  TieredMemory memory = SmallMemory();
  TenantRegistry registry;
  registry.Configure({}, &memory);
  EXPECT_FALSE(registry.qos_active());
  EXPECT_EQ(registry.num_tenants(), 1);
  EXPECT_EQ(registry.spec(0).name, "default");
  EXPECT_EQ(registry.account(0).BudgetFor(kFastNode), kTenantUnlimited);
}

TEST(TenantRegistryTest, OverBudgetBindsOnlyThroughAProgram) {
  TieredMemory memory = SmallMemory();
  TenantRegistry registry;
  TenantSpec programmed;
  programmed.name = "programmed";
  programmed.residency_budget_pages = {10};
  programmed.qos_program = "strict-budget";
  TenantSpec unprogrammed;
  unprogrammed.name = "unprogrammed";
  unprogrammed.residency_budget_pages = {10};
  registry.Configure({programmed, unprogrammed}, &memory);

  registry.AddResident(0, kFastNode, 15);
  registry.AddResident(1, kFastNode, 15);
  EXPECT_TRUE(registry.OverBudget(0, kFastNode));
  EXPECT_FALSE(registry.OverBudget(0, kSlowNode));  // No budget entry => unlimited.
  EXPECT_FALSE(registry.OverBudget(1, kFastNode));  // Budget without a program is inert.

  registry.AddResident(0, kFastNode, -5);
  EXPECT_FALSE(registry.OverBudget(0, kFastNode));  // Exactly at budget is not over.
  registry.AddResident(0, kFastNode, 5);
  EXPECT_TRUE(registry.OverBudget(0, kFastNode));
}

TEST(TenantQosProgramTest, StrictBudgetCapsTargetResidency) {
  TieredMemory memory = SmallMemory();
  TenantRegistry registry;
  TenantSpec capped;
  capped.name = "capped";
  capped.residency_budget_pages = {100};  // Fast node only; slow stays unlimited.
  capped.qos_program = "strict-budget";
  registry.Configure({capped}, &memory);
  EXPECT_TRUE(registry.qos_active());
  registry.AssignProcess(0, 0);

  registry.AddResident(0, kFastNode, 90);
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 10, 0),
            MigrationRefusal::kNone);
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 11, 0),
            MigrationRefusal::kTenantQos);
  // Demotions to the un-budgeted slow node always pass (the repayment path).
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kReclaimDaemon,
                              kFastNode, kSlowNode, 64, 0),
            MigrationRefusal::kNone);
  // Evacuation drains bypass tenant QoS entirely, even when over budget.
  registry.AddResident(0, kFastNode, 20);
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kEvacuation, kSlowNode, kFastNode, 64, 0),
            MigrationRefusal::kNone);
}

TEST(TenantQosProgramTest, BorrowGrantsHeadroomAndRepays) {
  TieredMemory memory = SmallMemory(/*fast_pages=*/1024);
  TenantRegistry registry;
  TenantSpec tenant;
  tenant.name = "borrower";
  tenant.residency_budget_pages = {100};
  tenant.qos_program = "borrow";
  registry.Configure({tenant}, &memory);
  registry.AssignProcess(0, 0);
  std::vector<TenantStats> stats(1);
  registry.set_stats(&stats);

  // Over budget but the empty fast node has free headroom above its high watermark:
  // work-conserving admit, counted as a borrow.
  registry.AddResident(0, kFastNode, 100);
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 50, 0),
            MigrationRefusal::kNone);
  registry.QosAdmit(0, MigrationSource::kPolicyDaemon, kFastNode, 50, 0);
  EXPECT_EQ(stats[0].borrows, 1u);
  EXPECT_EQ(stats[0].qos_admits, 1u);

  // Under budget never counts as a borrow.
  registry.AddResident(0, kFastNode, -50);  // Back down to 50 resident.
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 50, 0),
            MigrationRefusal::kNone);
  registry.QosAdmit(0, MigrationSource::kPolicyDaemon, kFastNode, 50, 0);
  EXPECT_EQ(stats[0].borrows, 1u);

  // Exhaust the node's free headroom: over-budget requests are refused (repayment) while
  // under-budget requests still pass.
  const MemoryTier& fast = memory.node(kFastNode);
  ASSERT_TRUE(memory.node(kFastNode).TryAllocate(fast.free_pages() -
                                                 fast.watermarks().high));
  registry.AddResident(0, kFastNode, 60);  // Now at 110 > budget 100.
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 8, 0),
            MigrationRefusal::kTenantQos);
  registry.AddResident(0, kFastNode, -60);
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 8, 0),
            MigrationRefusal::kNone);
}

TEST(TenantQosProgramTest, EvacuationAdmitCountsNoBorrow) {
  // A borrow consult is granted over budget, but its submission is refused later in
  // admission (endpoint or capacity), so no admit follows. The evacuation that comes next
  // bypasses the program; its admit must not count the earlier consult's grant.
  TieredMemory memory = SmallMemory(/*fast_pages=*/1024);
  TenantRegistry registry;
  TenantSpec tenant;
  tenant.name = "borrower";
  tenant.residency_budget_pages = {100};
  tenant.qos_program = "borrow";
  registry.Configure({tenant}, &memory);
  registry.AssignProcess(0, 0);
  std::vector<TenantStats> stats(1);
  registry.set_stats(&stats);

  registry.AddResident(0, kFastNode, 100);
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kPolicyDaemon, kSlowNode, kFastNode, 50,
                              0),
            MigrationRefusal::kNone);
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kEvacuation, kSlowNode, kFastNode, 50, 0),
            MigrationRefusal::kNone);
  registry.QosAdmit(0, MigrationSource::kEvacuation, kFastNode, 50, 0);
  EXPECT_EQ(stats[0].qos_admits, 1u);
  EXPECT_EQ(stats[0].borrows, 0u);
}

TEST(TenantQosProgramTest, FairShareSplitsCapacityByWeight) {
  TieredMemory memory = SmallMemory(/*fast_pages=*/1000);
  TenantRegistry registry;
  TenantSpec heavy;
  heavy.name = "heavy";
  heavy.weight = 3.0;
  heavy.qos_program = "fair-share";
  TenantSpec light;
  light.name = "light";
  light.weight = 1.0;
  light.qos_program = "fair-share";
  registry.Configure({heavy, light}, &memory);
  registry.AssignProcess(0, 0);
  registry.AssignProcess(1, 1);
  EXPECT_DOUBLE_EQ(registry.total_weight(), 4.0);

  // heavy's share of the 1000-page fast node is 750, light's is 250.
  registry.AddResident(0, kFastNode, 740);
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 10, 0),
            MigrationRefusal::kNone);
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 11, 0),
            MigrationRefusal::kTenantQos);
  registry.AddResident(1, kFastNode, 245);
  EXPECT_EQ(registry.QosCheck(1, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 5, 0),
            MigrationRefusal::kNone);
  EXPECT_EQ(registry.QosCheck(1, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 6, 0),
            MigrationRefusal::kTenantQos);
}

TEST(TenantQosProgramTest, FairShareTightenedByExplicitBudget) {
  TieredMemory memory = SmallMemory(/*fast_pages=*/1000);
  TenantRegistry registry;
  TenantSpec tenant;
  tenant.name = "t";
  tenant.weight = 1.0;  // Sole tenant: share would be the whole node.
  tenant.residency_budget_pages = {200};
  tenant.qos_program = "fair-share";
  registry.Configure({tenant}, &memory);
  registry.AssignProcess(0, 0);
  registry.AddResident(0, kFastNode, 195);
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 5, 0),
            MigrationRefusal::kNone);
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 6, 0),
            MigrationRefusal::kTenantQos);
}

TEST(TenantRegistryTest, BandwidthCursorRefusesPastBurst) {
  TieredMemory memory = SmallMemory();
  TenantRegistry registry;
  TenantSpec tenant;
  tenant.name = "slowlane";
  // 1 page per simulated second; a 50 ms burst window.
  tenant.migration_budget_bytes_per_sec = static_cast<double>(kBasePageSize);
  tenant.migration_budget_burst = 50 * kMillisecond;
  registry.Configure({tenant}, &memory);
  EXPECT_TRUE(registry.qos_active());
  registry.AssignProcess(0, 0);

  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 1, /*now=*/0),
            MigrationRefusal::kNone);
  registry.QosAdmit(0, MigrationSource::kPolicyDaemon, kFastNode, 1, /*now=*/0);
  // The admitted page costs one virtual second; the cursor now leads `now` by far more
  // than the burst, so the tenant is refused until simulated time catches up.
  EXPECT_EQ(registry.account(0).bandwidth_cursor, kSecond);
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 1, /*now=*/0),
            MigrationRefusal::kTenantQos);
  EXPECT_EQ(registry.QosCheck(0, MigrationSource::kPolicyDaemon,
                              kSlowNode, kFastNode, 1, /*now=*/kSecond),
            MigrationRefusal::kNone);
}

// ---------------------------------------------------------------------------
// Machine / experiment integration.
// ---------------------------------------------------------------------------

ScanGeometry FastGeometry() {
  ScanGeometry geometry;
  geometry.scan_period = 2 * kSecond;
  geometry.scan_step_pages = 512;
  return geometry;
}

PolicyFactory FindPolicy(const std::string& name) {
  for (auto& named : StandardPolicySet(FastGeometry())) {
    if (named.name == name) {
      return named.make;
    }
  }
  ADD_FAILURE() << "unknown policy " << name;
  return nullptr;
}

ExperimentConfig SmallExperiment() {
  ExperimentConfig config;
  config.total_pages = 16384;  // 64 MB machine, 16 MB DRAM.
  config.bandwidth_scale = 256.0;
  config.warmup = 8 * kSecond;
  config.measure = 8 * kSecond;
  return config;
}

ProcessSpec Pmbench(const std::string& name, int tenant,
                    uint64_t working_set_pages = 5000) {
  PmbenchConfig w;
  w.working_set_bytes = working_set_pages * kBasePageSize;
  w.read_ratio = 0.9;
  w.per_op_delay = kMicrosecond;
  w.sequential_init = true;
  ProcessSpec spec{name, [w] { return std::make_unique<PmbenchStream>(w); }};
  spec.tenant = tenant;
  return spec;
}

TEST(TenantMachineTest, DeclaredUnlimitedTenantIsInert) {
  // Declaring one unlimited tenant named "default" with no program is exactly what an
  // empty tenant list configures: the whole result, tenant row included, replays
  // bit-identically against the run that declares no tenants.
  const ExperimentConfig undeclared = SmallExperiment();
  ExperimentConfig declared = SmallExperiment();
  TenantSpec tenant;
  tenant.name = "default";
  declared.tenants = {tenant};

  const std::vector<ProcessSpec> procs = {Pmbench("a", 0), Pmbench("b", 0)};
  const ExperimentResult without =
      Experiment::Run(undeclared, FindPolicy("Chrono"), procs);
  const ExperimentResult with = Experiment::Run(declared, FindPolicy("Chrono"), procs);
  ExpectResultsIdentical(without, with, "declared default tenant vs none declared");
  ASSERT_EQ(with.tenants.size(), 1u);
  EXPECT_GT(with.tenants[0].accesses, 0u);
  EXPECT_EQ(with.tenants[0].qos_checks, 0u);  // Hook never installed.
}

TEST(TenantMachineTest, RowsSumToTotalAccesses) {
  // Every measured access is charged to exactly one tenant, whether the tenants were
  // declared or the run carries only the "default" one.
  const auto expect_conserved = [](const ExperimentConfig& config,
                                   const std::vector<ProcessSpec>& procs,
                                   size_t expected_rows) {
    Experiment::Run(config, FindPolicy("Chrono"), procs, nullptr,
                    [expected_rows](Machine& machine, ExperimentResult& result) {
                      ASSERT_EQ(result.tenants.size(), expected_rows);
                      uint64_t sum = 0;
                      for (const TenantResult& row : result.tenants) {
                        sum += row.accesses;
                      }
                      EXPECT_GT(sum, 0u);
                      EXPECT_EQ(sum, machine.metrics().total_ops());
                    });
  };

  expect_conserved(SmallExperiment(), {Pmbench("a", 0), Pmbench("b", 0)}, 1);

  ExperimentConfig two = SmallExperiment();
  TenantSpec a;
  a.name = "a";
  TenantSpec b;
  b.name = "b";
  two.tenants = {a, b};
  expect_conserved(two, {Pmbench("a", 0), Pmbench("b", 1)}, 2);
}

TEST(TenantMachineDeathTest, UndeclaredTenantIndexIsFatal) {
  // With no tenants declared only tenant 0 ("default") exists; naming tenant 1 is a
  // config error, not a silent fold into tenant 0.
  EXPECT_DEATH(Experiment::Run(SmallExperiment(), FindPolicy("Chrono"), {Pmbench("a", 1)}),
               "names tenant 1 but only 1 are declared");
}

TEST(TenantMachineTest, TenantAccessDelaySlowsTenant) {
  // Fig. 9's per-cgroup stall knob lives on TenantSpec: the machine folds it onto every
  // member process, so the delayed tenant replays fewer accesses in the same window.
  ExperimentConfig config = SmallExperiment();
  const SimDuration delays[2] = {0, 1200 * kNanosecond};
  std::vector<ProcessSpec> procs;
  for (int i = 0; i < 2; ++i) {
    TenantSpec tenant;
    tenant.name = "cg-" + std::to_string(i);
    tenant.access_delay = delays[i];
    config.tenants.push_back(tenant);
    procs.push_back(Pmbench("cg-" + std::to_string(i), i));
  }

  const ExperimentResult result = Experiment::Run(config, FindPolicy("Chrono"), procs);
  ASSERT_EQ(result.tenants.size(), 2u);
  EXPECT_LT(result.tenants[1].accesses, result.tenants[0].accesses);
}

TEST(TenantMachineTest, StrictBudgetIsolatesAndAuditsClean) {
  // Two identical workloads; tenant 0 capped at 256 fast-tier frames via strict-budget.
  // The budget binds steered traffic only (first-touch still lands anywhere), so assert
  // the *comparative* outcome: refusals happened and the capped tenant ends with fewer
  // fast frames than its uncapped twin.
  ExperimentConfig config = SmallExperiment();
  TenantSpec capped;
  capped.name = "capped";
  capped.residency_budget_pages = {256};
  capped.qos_program = "strict-budget";
  TenantSpec free_rider;
  free_rider.name = "free";
  config.tenants = {capped, free_rider};

  uint64_t audit_clean = 0;
  const ExperimentResult result = Experiment::Run(
      config, FindPolicy("Linux-NB"), {Pmbench("a", 0), Pmbench("b", 1)}, nullptr,
      [&audit_clean](Machine& machine, ExperimentResult&) {
        const AuditReport report = machine.AuditNow();
        EXPECT_TRUE(report.clean()) << report.Summary();
        audit_clean = report.clean() ? 1 : 0;
        EXPECT_LE(machine.tenants().resident_pages(0, kFastNode),
                  machine.tenants().resident_pages(1, kFastNode));
      });
  ASSERT_EQ(result.tenants.size(), 2u);
  EXPECT_GT(result.tenants[0].qos_checks, 0u);
  EXPECT_GT(result.tenants[0].qos_refusals, 0u);
  EXPECT_EQ(result.tenants[1].qos_refusals, 0u);
  EXPECT_LT(result.tenants[0].resident_fast_pages, result.tenants[1].resident_fast_pages);
  EXPECT_EQ(audit_clean, 1u);
}

TEST(TenantMachineTest, TargetedReclaimDrainsFirstTouchSquatter) {
  // A residency budget binds at two sites: admission (refuses steered promotions) and
  // targeted reclaim (drains what admission never saw). This pins the second: one tenant
  // whose entire working set arrived via first touch sits far over budget on an otherwise
  // unpressured machine, so only the budget-pressure reclaim path can drain it — and the
  // identical budget without a program must stay inert.
  ExperimentConfig config = SmallExperiment();
  config.warmup = 4 * kSecond;
  config.measure = 6 * kSecond;

  const auto run = [&](const std::string& program) {
    ExperimentConfig c = config;
    TenantSpec tenant;
    tenant.name = "squatter";
    tenant.residency_budget_pages = {64};
    tenant.qos_program = program;
    c.tenants = {tenant};
    return Experiment::Run(c, FindPolicy("Linux-NB"), {Pmbench("a", 0)}, nullptr,
                           [](Machine& machine, ExperimentResult&) {
                             EXPECT_TRUE(machine.AuditNow().clean());
                           });
  };

  const ExperimentResult unbound = run("");
  const ExperimentResult bound = run("strict-budget");
  ASSERT_EQ(unbound.tenants.size(), 1u);
  ASSERT_EQ(bound.tenants.size(), 1u);
  // 5000-page working set against 4096 fast frames: first touch fills the fast tier, and
  // with no program the budget never binds.
  EXPECT_GT(unbound.tenants[0].resident_fast_pages, 3000u);
  // With strict-budget installed, targeted reclaim drains the squat down to the budget
  // and admission-side refusals keep it there.
  EXPECT_LE(bound.tenants[0].resident_fast_pages, 256u);
  EXPECT_GT(bound.tenants[0].qos_refusals, 0u);
}

TEST(TenantMachineTest, AuditorCatchesResidencyMismatch) {
  // Invariant check 9: tampering with the tenant residency mirror must be reported as a
  // tenant-sum violation, and reverting the tamper restores a clean audit.
  MachineConfig machine_config = MachineConfig::StandardTwoTier(4096, 0.25);
  TenantSpec tenant;
  tenant.name = "t";
  machine_config.tenants = {tenant};
  Machine machine(machine_config, FindPolicy("Linux-NB")());
  Process& process = machine.CreateProcess("app");
  machine.AssignTenant(process, 0);
  PmbenchConfig w;
  w.working_set_bytes = 2000 * kBasePageSize;
  w.sequential_init = true;
  machine.AttachWorkload(process, std::make_unique<PmbenchStream>(w), 1);
  machine.Start();
  machine.Run(kSecond);

  EXPECT_TRUE(machine.AuditNow().clean());
  machine.tenants().AddResident(0, kFastNode, 1);
  const AuditReport tampered = machine.AuditNow();
  ASSERT_FALSE(tampered.clean());
  EXPECT_NE(tampered.Summary().find("tenant residency sum disagrees"), std::string::npos);
  machine.tenants().AddResident(0, kFastNode, -1);
  EXPECT_TRUE(machine.AuditNow().clean());
}

TEST(TenantMachineTest, TelemetryCarriesPerTenantRows) {
  ExperimentConfig config = SmallExperiment();
  config.warmup = 2 * kSecond;
  config.measure = 4 * kSecond;
  TenantSpec a;
  a.name = "a";
  TenantSpec b;
  b.name = "b";
  config.tenants = {a, b};
  config.trace.enabled = true;
  config.trace.telemetry_period = 500 * kMillisecond;
  const std::string csv_path = ::testing::TempDir() + "tenant_telemetry.csv";
  config.trace.timeseries_path = csv_path;

  const ExperimentResult result = Experiment::Run(
      config, FindPolicy("Linux-NB"), {Pmbench("a", 0), Pmbench("b", 1)}, nullptr,
      [](Machine& machine, ExperimentResult&) {
        ASSERT_NE(machine.tracer(), nullptr);
        const auto& samples = machine.tracer()->telemetry().samples();
        ASSERT_FALSE(samples.empty());
        ASSERT_EQ(samples.back().tenants.size(), 2u);
        EXPECT_GT(samples.back().tenants[0].resident_total, 0u);
        EXPECT_GT(samples.back().tenants[0].accesses, 0u);
        EXPECT_GT(samples.back().tenants[0].p50_latency_ns, 0.0);
      });
  ASSERT_EQ(result.tenants.size(), 2u);

  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_NE(header.find("tenant0_resident_fast"), std::string::npos);
  EXPECT_NE(header.find("tenant1_p99_latency_ns"), std::string::npos);
  std::remove(csv_path.c_str());
}

TEST(TenantMachineTest, ConfigValidationRejectsBadTenants) {
  MachineConfig config = MachineConfig::StandardTwoTier(4096, 0.25);
  TenantSpec bad;
  bad.name = "";
  config.tenants = {bad};
  EXPECT_FALSE(config.Validate().empty());

  config.tenants[0].name = "ok";
  config.tenants[0].weight = 0.0;
  EXPECT_FALSE(config.Validate().empty());

  config.tenants[0].weight = 1.0;
  config.tenants[0].qos_program = "no-such-program";
  EXPECT_FALSE(config.Validate().empty());
  config.tenants[0].qos_program = "borrow";
  EXPECT_TRUE(config.Validate().empty());
  config.tenants[0].qos_program = "fair-share";
  EXPECT_TRUE(config.Validate().empty());

  config.tenants[0].qos_program = "strict-budget";
  config.tenants[0].residency_budget_pages = {1, 2, 3};  // Two-tier machine.
  EXPECT_FALSE(config.Validate().empty());

  config.tenants[0].residency_budget_pages = {128};
  EXPECT_TRUE(config.Validate().empty());
}

}  // namespace
}  // namespace chronotier
