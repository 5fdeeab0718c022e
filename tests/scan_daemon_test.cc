// Tests for the shared scan-daemon infrastructure (ScanPolicyBase): tick cadence, lap
// coverage, cost accounting, and late process arrival.

#include <gtest/gtest.h>

#include <memory>

#include "src/harness/machine.h"
#include "src/policies/scan_policy_base.h"
#include "src/workloads/patterns.h"

namespace chronotier {
namespace {

// Instrumented scan policy: counts visits and laps, poisons nothing.
class CountingScanPolicy : public ScanPolicyBase {
 public:
  explicit CountingScanPolicy(ScanGeometry geometry) : ScanPolicyBase(geometry) {}
  std::string_view name() const override { return "counting-scan"; }
  SimDuration OnHintFault(Process&, Vma&, PageInfo&, bool, SimTime) override { return 0; }

  uint64_t visits = 0;
  int laps = 0;

 protected:
  void ScanVisit(Process&, Vma&, PageInfo&, SimTime) override { ++visits; }
  void AfterScanTick(Process&, SimTime, bool lap_wrapped) override {
    laps += lap_wrapped ? 1 : 0;
  }
};

struct ScanRig {
  std::unique_ptr<Machine> machine;
  CountingScanPolicy* policy = nullptr;
  Process* process = nullptr;
};

ScanRig MakeRig(ScanGeometry geometry, uint64_t ws_pages) {
  ScanRig rig;
  auto policy = std::make_unique<CountingScanPolicy>(geometry);
  rig.policy = policy.get();
  rig.machine = std::make_unique<Machine>(MachineConfig::StandardTwoTier(8192, 0.25),
                                          std::move(policy));
  rig.process = &rig.machine->CreateProcess("app");
  UniformConfig w;
  w.working_set_bytes = ws_pages * kBasePageSize;
  rig.machine->AttachWorkload(*rig.process, std::make_unique<UniformStream>(w), 3);
  rig.machine->Start();
  return rig;
}

TEST(ScanDaemonTest, CoversTheSpaceOncePerScanPeriod) {
  ScanGeometry geometry;
  geometry.scan_period = 2 * kSecond;
  geometry.scan_step_pages = 256;
  ScanRig rig = MakeRig(geometry, 2048);  // 8 steps per lap.
  rig.machine->Run(2 * kSecond);
  // One lap: every PTE visited once (+- one chunk of slack for tick alignment).
  EXPECT_GE(rig.policy->visits, 2048u - 256u);
  EXPECT_LE(rig.policy->visits, 2048u + 256u);
  rig.machine->Run(6 * kSecond);
  EXPECT_GE(rig.policy->laps, 3);
  EXPECT_LE(rig.policy->laps, 5);
}

TEST(ScanDaemonTest, SmallSpacesScanInOneTick) {
  ScanGeometry geometry;
  geometry.scan_period = 2 * kSecond;
  geometry.scan_step_pages = 4096;  // Bigger than the space.
  ScanRig rig = MakeRig(geometry, 512);
  rig.machine->Run(2100 * kMillisecond);
  EXPECT_EQ(rig.policy->laps, 1);
  EXPECT_EQ(rig.policy->visits, 512u);
}

TEST(ScanDaemonTest, ScanCostIsCharged) {
  ScanGeometry geometry;
  geometry.scan_period = kSecond;
  geometry.scan_step_pages = 512;
  ScanRig rig = MakeRig(geometry, 1024);
  rig.machine->Run(3 * kSecond);
  const SimDuration scan_time = rig.machine->metrics().kernel_time(KernelWork::kScan);
  // visits * kPteVisitCost.
  EXPECT_EQ(scan_time, static_cast<SimDuration>(rig.policy->visits) *
                           Machine::kPteVisitCost);
  EXPECT_GT(scan_time, 0);
}

TEST(ScanDaemonTest, LateProcessGetsItsOwnScanner) {
  ScanGeometry geometry;
  geometry.scan_period = kSecond;
  geometry.scan_step_pages = 512;
  ScanRig rig = MakeRig(geometry, 512);
  rig.machine->Run(1100 * kMillisecond);
  const uint64_t before = rig.policy->visits;

  // A process created after Start() must also be scanned (OnProcessCreated path).
  Process& late = rig.machine->CreateProcess("late");
  UniformConfig w;
  w.working_set_bytes = 512 * kBasePageSize;
  rig.machine->AttachWorkload(late, std::make_unique<UniformStream>(w), 9);
  rig.machine->Run(2 * kSecond);
  EXPECT_GT(rig.policy->visits, before + 512);
}

TEST(ScanDaemonTest, HugeMappingsVisitHeadsOnly) {
  ScanGeometry geometry;
  geometry.scan_period = kSecond;
  geometry.scan_step_pages = 4096;
  ScanRig rig;
  auto policy = std::make_unique<CountingScanPolicy>(geometry);
  rig.policy = policy.get();
  rig.machine = std::make_unique<Machine>(MachineConfig::StandardTwoTier(8192, 0.25),
                                          std::move(policy));
  rig.process = &rig.machine->CreateProcess("huge");
  rig.process->set_default_page_kind(PageSizeKind::kHuge);
  UniformConfig w;
  w.working_set_bytes = 2 * kHugePageSize;
  rig.machine->AttachWorkload(*rig.process, std::make_unique<UniformStream>(w), 3);
  rig.machine->Start();
  rig.machine->Run(1100 * kMillisecond);
  EXPECT_EQ(rig.policy->visits, 2u);  // Two PMD entries, not 1024 PTEs.
}

}  // namespace
}  // namespace chronotier
