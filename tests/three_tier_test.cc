// Three-tier machine tests: DRAM + CXL memory + Optane PM, wired as the star "(1,2,3)". The
// paper evaluates two tiers, but the substrate is N-tier (TieredMemory's zonelist
// allocation and the cascade demotion path); these tests pin that behaviour so the CXL
// configuration stays usable.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/chrono_policy.h"
#include "src/harness/machine.h"
#include "src/policies/linux_nb.h"
#include "src/workloads/patterns.h"

namespace chronotier {
namespace {

TopologySpec ThreeTierSpec(uint64_t dram, uint64_t cxl, uint64_t pm) {
  return TopologySpec::Star(
      {TierSpec::Dram(dram), TierSpec::CxlMemory(cxl), TierSpec::OptanePmem(pm)});
}

MachineConfig ThreeTierConfig() {
  MachineConfig config;
  config.topology = ThreeTierSpec(1024, 2048, 4096);
  config.bandwidth_scale = 64.0;
  return config;
}

TEST(ThreeTierTest, AllocationWalksTheZonelist) {
  TieredMemory memory(ThreeTierSpec(100, 100, 100));
  EXPECT_EQ(memory.num_nodes(), 3);
  // Fill DRAM (to its min watermark), then CXL, then Optane.
  NodeId node = kFastNode;
  int dram = 0;
  int cxl = 0;
  int pm = 0;
  while ((node = memory.AllocatePage(kFastNode)) != kInvalidNode) {
    dram += node == 0 ? 1 : 0;
    cxl += node == 1 ? 1 : 0;
    pm += node == 2 ? 1 : 0;
  }
  EXPECT_EQ(dram + cxl + pm, 300);
  EXPECT_GT(dram, 90);
  EXPECT_GT(cxl, 90);
  EXPECT_GT(pm, 90);
}

TEST(ThreeTierTest, LatencyOrderingAcrossTiers) {
  TieredMemory memory(ThreeTierSpec(10, 10, 10));
  EXPECT_LT(memory.node(0).AccessLatency(false), memory.node(1).AccessLatency(false));
  EXPECT_LT(memory.node(1).AccessLatency(false), memory.node(2).AccessLatency(false));
}

TEST(ThreeTierTest, DemotionCascadesOneTierDown) {
  Machine machine(ThreeTierConfig(), std::make_unique<LinuxNumaBalancingPolicy>());
  Process& process = machine.CreateProcess("app");
  UniformConfig w;
  w.working_set_bytes = 2048 * kBasePageSize;  // DRAM (1024) overflows into CXL.
  w.sequential_init = true;
  machine.AttachWorkload(process, std::make_unique<UniformStream>(w), 1);
  machine.Start();
  machine.Run(5 * kSecond);

  // The star has links DRAM-CXL and DRAM-Optane only: a CXL-to-Optane copy routes through
  // the root.
  const MigrationEngine& engine = machine.migration();
  ASSERT_EQ(engine.num_channels(), 2);
  EXPECT_EQ(engine.channel_at(0).lo(), 0);
  EXPECT_EQ(engine.channel_at(0).hi(), 1);
  EXPECT_EQ(engine.channel_at(1).lo(), 0);
  EXPECT_EQ(engine.channel_at(1).hi(), 2);

  // Pages live on DRAM and CXL; nothing should have skipped to Optane while CXL has room.
  EXPECT_GT(process.resident_pages(0), 0u);
  EXPECT_GT(process.resident_pages(1), 0u);
  EXPECT_EQ(process.resident_pages(0) + process.resident_pages(1) +
                process.resident_pages(2),
            2048u);
  // Demotions from DRAM go to node 1 (the next slower tier), so CXL usage reflects both
  // overflow allocation and reclaim.
  EXPECT_LE(process.resident_pages(2), 64u);
}

TEST(ThreeTierTest, ChronoRunsOnThreeTiers) {
  ChronoConfig chrono_config = ChronoConfig::Full();
  chrono_config.geometry.scan_period = 2 * kSecond;
  chrono_config.geometry.scan_step_pages = 512;
  Machine machine(ThreeTierConfig(), std::make_unique<ChronoPolicy>(chrono_config));
  Process& process = machine.CreateProcess("app");
  HotsetConfig w;
  w.working_set_bytes = 3072 * kBasePageSize;
  w.hot_fraction = 0.2;
  w.hot_access_fraction = 0.9;
  w.per_op_delay = kMicrosecond;
  w.sequential_init = true;
  machine.AttachWorkload(process, std::make_unique<HotsetStream>(w), 5);
  machine.Start();
  machine.Run(12 * kSecond);

  // Promotions still target the fast tier, and total residency stays consistent.
  EXPECT_GT(machine.metrics().promoted_pages(), 0u);
  EXPECT_EQ(process.resident_pages(0) + process.resident_pages(1) +
                process.resident_pages(2),
            3072u);
  EXPECT_EQ(machine.memory().total_used_pages(), 3072u);
  // The fast tier should carry a hot-biased population (cumulative-from-boot FMAR, so the
  // cold-start window drags it below the steady state).
  EXPECT_GT(machine.metrics().Fmar(), 0.25);
}

TEST(ThreeTierTest, CxlSpecIsSymmetricIsh) {
  // CXL memory has a much smaller load/store asymmetry than Optane (its penalty is link
  // latency, not media writes).
  const TierSpec cxl = TierSpec::CxlMemory(10);
  const TierSpec pm = TierSpec::OptanePmem(10);
  const double cxl_ratio =
      static_cast<double>(cxl.store_latency) / static_cast<double>(cxl.load_latency);
  const double pm_ratio =
      static_cast<double>(pm.store_latency) / static_cast<double>(pm.load_latency);
  EXPECT_LT(cxl_ratio, 1.2);
  EXPECT_GT(pm_ratio, 1.5);
}

}  // namespace
}  // namespace chronotier
