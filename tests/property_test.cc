// Parameterized property tests: invariants that must hold for every policy, page size, and
// seed combination, checked after end-to-end runs. These catch frame leaks, LRU corruption,
// flag leaks and clock regressions that scenario tests can miss.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "src/core/controls.h"
#include "src/core/standard_policies.h"
#include "src/harness/machine.h"
#include "src/workloads/patterns.h"

namespace chronotier {
namespace {

ScanGeometry PropertyGeometry() {
  ScanGeometry geometry;
  geometry.scan_period = 2 * kSecond;
  geometry.scan_step_pages = 512;
  return geometry;
}

using PropertyParam = std::tuple<int /*policy index*/, PageSizeKind, uint64_t /*seed*/>;

class MachineInvariantTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  std::unique_ptr<Machine> RunMachine() {
    const auto [policy_index, page_kind, seed] = GetParam();
    auto policies = StandardPolicySet(PropertyGeometry());
    MachineConfig config = MachineConfig::StandardTwoTier(8192, 0.25);
    config.bandwidth_scale = 64.0;
    auto machine = std::make_unique<Machine>(
        config, policies[static_cast<size_t>(policy_index)].make());

    for (int p = 0; p < 2; ++p) {
      Process& process = machine->CreateProcess("proc");
      process.set_default_page_kind(page_kind);
      HotsetConfig w;
      w.working_set_bytes = 2048 * kBasePageSize;
      w.hot_fraction = 0.2;
      w.hot_access_fraction = 0.9;
      w.per_op_delay = kMicrosecond;
      w.sequential_init = true;
      machine->AttachWorkload(process, std::make_unique<HotsetStream>(w),
                              seed + static_cast<uint64_t>(p));
    }
    machine->Start();
    machine->Run(8 * kSecond);
    return machine;
  }
};

TEST_P(MachineInvariantTest, FrameAccountingBalances) {
  auto machine = RunMachine();
  // Present base pages across all address spaces, plus the target frames reserved by
  // in-flight (non-exclusive copy) migration transactions, == used frames across all tiers.
  uint64_t present = 0;
  for (auto& process : machine->processes()) {
    process->aspace().ForEachPage([&](Vma& vma, PageInfo& page) {
      PageInfo& unit = vma.HotnessUnit(page.vpn);
      if (&unit == &page && unit.present()) {
        present += vma.UnitPages(unit.vpn);
      }
    });
  }
  EXPECT_EQ(present + machine->migration().inflight_reserved_pages(),
            machine->memory().total_used_pages());
}

TEST_P(MachineInvariantTest, ResidencyCountersMatchPageTables) {
  auto machine = RunMachine();
  for (auto& process : machine->processes()) {
    uint64_t fast = 0;
    uint64_t slow = 0;
    process->aspace().ForEachPage([&](Vma& vma, PageInfo& page) {
      PageInfo& unit = vma.HotnessUnit(page.vpn);
      if (&unit == &page && unit.present()) {
        (unit.node == kFastNode ? fast : slow) += vma.UnitPages(unit.vpn);
      }
    });
    EXPECT_EQ(process->resident_pages(kFastNode), fast);
    EXPECT_EQ(process->resident_pages(kSlowNode), slow);
  }
}

TEST_P(MachineInvariantTest, LruListsHoldExactlyTheResidentUnits) {
  auto machine = RunMachine();
  uint64_t units_on_node[2] = {0, 0};
  for (auto& process : machine->processes()) {
    process->aspace().ForEachPage([&](Vma& vma, PageInfo& page) {
      PageInfo& unit = vma.HotnessUnit(page.vpn);
      if (&unit == &page && unit.present()) {
        ASSERT_NE(unit.lru_state(), LruMembership::kNone);
        ++units_on_node[unit.node];
      } else if (&unit != &page) {
        // Tail pages of unsplit huge groups never sit on LRU lists.
        EXPECT_EQ(page.lru_state(), LruMembership::kNone);
      }
    });
  }
  EXPECT_EQ(machine->lru(kFastNode).total(), units_on_node[0]);
  EXPECT_EQ(machine->lru(kSlowNode).total(), units_on_node[1]);
}

TEST_P(MachineInvariantTest, NodeFieldsAreValidForPresentUnits) {
  auto machine = RunMachine();
  for (auto& process : machine->processes()) {
    process->aspace().ForEachPage([&](Vma& vma, PageInfo& page) {
      PageInfo& unit = vma.HotnessUnit(page.vpn);
      if (unit.present()) {
        EXPECT_GE(unit.node, 0);
        EXPECT_LT(unit.node, machine->memory().num_nodes());
      }
    });
  }
}

TEST_P(MachineInvariantTest, MetricsAreInternallyConsistent) {
  auto machine = RunMachine();
  const Metrics& metrics = machine->metrics();
  EXPECT_EQ(metrics.total_ops(), metrics.reads() + metrics.writes());
  EXPECT_EQ(metrics.total_ops(), metrics.fast_accesses() + metrics.slow_accesses());
  EXPECT_GE(metrics.context_switches(), metrics.hint_faults());
  EXPECT_GE(metrics.promoted_pages(), 0u);
  // Process clocks never run behind the global clock at quiescence.
  for (auto& process : machine->processes()) {
    EXPECT_GE(process->clock(), machine->now() - Machine::kProcessQuantum);
  }
}

TEST_P(MachineInvariantTest, QueuedFlagsAreBounded) {
  auto machine = RunMachine();
  // Any page still flagged kPageQueued must be present (policies may hold queued work, but
  // never on torn-down/impossible pages).
  for (auto& process : machine->processes()) {
    process->aspace().ForEachPage([&](Vma& vma, PageInfo& page) {
      PageInfo& unit = vma.HotnessUnit(page.vpn);
      if (unit.Has(kPageQueued)) {
        EXPECT_TRUE(unit.present());
      }
      (void)vma;
    });
  }
}

std::string PropertyParamName(const ::testing::TestParamInfo<PropertyParam>& info) {
  const int policy = std::get<0>(info.param);
  const PageSizeKind kind = std::get<1>(info.param);
  const uint64_t seed = std::get<2>(info.param);
  const char* names[] = {"LinuxNB", "AutoTiering", "MultiClock", "TPP", "Memtis", "Chrono"};
  return std::string(names[policy]) + (kind == PageSizeKind::kHuge ? "_huge_" : "_base_") +
         std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyPageSeedSweep, MachineInvariantTest,
    ::testing::Combine(::testing::Values(0, 2, 4, 5),  // Linux-NB, Multi-Clock, Memtis, Chrono.
                       ::testing::Values(PageSizeKind::kBase, PageSizeKind::kHuge),
                       ::testing::Values(11u, 77u)),
    PropertyParamName);

// --- runtime controls (procfs analogue) ---

TEST(ChronoControlsTest, SetAndShow) {
  ChronoConfig config = ChronoConfig::Manual(64.0);
  config.geometry = PropertyGeometry();
  ChronoPolicy policy(config);
  ChronoControls controls(&policy);

  EXPECT_TRUE(controls.Set("cit_threshold_ms=250"));
  EXPECT_EQ(policy.cit_threshold_ms(), 250u);

  const std::string shown = controls.Show();
  EXPECT_NE(shown.find("cit_threshold_ms=250"), std::string::npos);
  EXPECT_NE(shown.find("rate_limit_mbps="), std::string::npos);
}

TEST(ChronoControlsTest, RateLimitClampsToBounds) {
  ChronoConfig config = ChronoConfig::Manual(64.0);
  ChronoPolicy policy(config);
  ChronoControls controls(&policy);
  EXPECT_TRUE(controls.Set("rate_limit_mbps=999999"));
  EXPECT_LE(policy.rate_limit_mbps(), config.max_rate_limit_mbps);
  EXPECT_TRUE(controls.Set("rate_limit_mbps=0.001"));
  EXPECT_GE(policy.rate_limit_mbps(), config.min_rate_limit_mbps);
}

TEST(ChronoControlsTest, RejectsMalformedInput) {
  ChronoPolicy policy(ChronoConfig::Full());
  ChronoControls controls(&policy);
  EXPECT_FALSE(controls.Set("cit_threshold_ms"));       // No '='.
  EXPECT_FALSE(controls.Set("cit_threshold_ms=abc"));   // Not a number.
  EXPECT_FALSE(controls.Set("rate_limit_mbps=-5"));     // Non-positive.
  EXPECT_FALSE(controls.Set("unknown_param=1"));        // Unknown name.
  EXPECT_FALSE(controls.Set("cit_threshold_ms=12x"));   // Trailing junk.
}

TEST(ChronoControlsTest, SetAllCountsSuccesses) {
  ChronoPolicy policy(ChronoConfig::Full());
  ChronoControls controls(&policy);
  EXPECT_EQ(controls.SetAll({"cit_threshold_ms=100", "bogus=1", "rate_limit_mbps=32"}), 2);
  EXPECT_EQ(policy.cit_threshold_ms(), 100u);
  EXPECT_DOUBLE_EQ(policy.rate_limit_mbps(), 32.0);
}

TEST(ChronoControlsTest, ThresholdOverrideClampsToConfiguredBounds) {
  ChronoConfig config = ChronoConfig::Full();
  ChronoPolicy policy(config);
  policy.OverrideCitThreshold(0);
  EXPECT_GE(policy.cit_threshold_ms(),
            static_cast<uint32_t>(config.min_cit_threshold / kMillisecond));
  policy.OverrideCitThreshold(0xFFFFFFFFu);
  EXPECT_LE(policy.cit_threshold_ms(),
            static_cast<uint32_t>(config.max_cit_threshold / kMillisecond));
}

}  // namespace
}  // namespace chronotier
