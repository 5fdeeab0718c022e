// src/topology tests: tree-string parsing and round-trip, validation rejects, routing and
// hop distances, the deterministic congestion model, and full-machine determinism on an
// N-endpoint topology (two identical runs must agree bit-for-bit).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/standard_policies.h"
#include "src/harness/experiment.h"
#include "src/harness/machine.h"
#include "src/policies/endpoint_aware.h"
#include "src/topology/congestion.h"
#include "src/topology/topology.h"
#include "src/workloads/patterns.h"
#include "tests/experiment_result_testutil.h"

namespace chronotier {
namespace {

TopologySpec Spec(const std::string& tree, size_t nodes) {
  TopologySpec spec;
  spec.tree = tree;
  spec.capacity_pages.assign(nodes, 1024);
  return spec;
}

Topology MustBuild(const TopologySpec& spec) {
  Topology topo;
  std::string error;
  EXPECT_TRUE(Topology::Build(spec, &topo, &error)) << error;
  return topo;
}

std::string BuildError(const TopologySpec& spec) {
  Topology topo;
  std::string error;
  EXPECT_FALSE(Topology::Build(spec, &topo, &error)) << "expected rejection";
  return error;
}

TEST(TopologyParseTest, TwoNodeTree) {
  const Topology topo = MustBuild(Spec("(1,2)", 2));
  EXPECT_EQ(topo.num_nodes(), 2);
  EXPECT_EQ(topo.parent(1), 0);
  EXPECT_EQ(topo.depth(0), 0);
  EXPECT_EQ(topo.depth(1), 1);
  EXPECT_EQ(topo.topo_id(0), 1);
  EXPECT_EQ(topo.topo_id(1), 2);
  EXPECT_EQ(topo.edges().size(), 1u);
}

TEST(TopologyParseTest, NestedTreeAssignsPreOrderIdsAndDepths) {
  // CXLMemSim's example shape: host 1, endpoint 2 below it, 3 and 4 behind 2.
  const Topology topo = MustBuild(Spec("(1,(2,3,4))", 4));
  EXPECT_EQ(topo.num_nodes(), 4);
  // Pre-order: node 0 = id 1, node 1 = id 2, node 2 = id 3, node 3 = id 4.
  EXPECT_EQ(topo.topo_id(1), 2);
  EXPECT_EQ(topo.topo_id(2), 3);
  EXPECT_EQ(topo.parent(1), 0);
  EXPECT_EQ(topo.parent(2), 1);
  EXPECT_EQ(topo.parent(3), 1);
  EXPECT_EQ(topo.depth(2), 2);
  // Edges exist only along parent links: 0-1, 1-2, 1-3.
  EXPECT_EQ(topo.edges().size(), 3u);
  EXPECT_GE(topo.EdgeIndex(0, 1), 0);
  EXPECT_GE(topo.EdgeIndex(1, 2), 0);
  EXPECT_LT(topo.EdgeIndex(0, 2), 0);
  EXPECT_LT(topo.EdgeIndex(2, 3), 0);
}

TEST(TopologyParseTest, WhitespaceIsPermitted) {
  const Topology topo = MustBuild(Spec(" ( 1 , ( 2 , 3 ) , 4 ) ", 4));
  EXPECT_EQ(topo.num_nodes(), 4);
  EXPECT_EQ(topo.ToString(), "(1,(2,3),4)");
}

TEST(TopologyParseTest, ToStringRoundTrips) {
  for (const std::string tree :
       {"(1,2)", "(1,(2,3,4))", "(1,(2,3),(4,5))", "(1,(2,(4,(6,8))),(3,(5,(7,9))))"}) {
    size_t nodes = 0;
    for (char c : tree) {
      nodes += (c >= '0' && c <= '9') ? 1 : 0;  // All ids are single-digit here.
    }
    const Topology topo = MustBuild(Spec(tree, nodes));
    EXPECT_EQ(topo.ToString(), tree);
    // Parsing the canonical form again yields the same structure.
    TopologySpec again = Spec(topo.ToString(), nodes);
    const Topology topo2 = MustBuild(again);
    EXPECT_EQ(topo2.ToString(), tree);
    EXPECT_EQ(topo2.num_nodes(), topo.num_nodes());
    EXPECT_EQ(topo2.edges(), topo.edges());
  }
}

TEST(TopologyParseTest, RejectsMalformedTrees) {
  EXPECT_NE(BuildError(Spec("", 0)).find("empty"), std::string::npos);
  EXPECT_NE(BuildError(Spec("1,2", 2)).find("must start with '('"), std::string::npos);
  EXPECT_NE(BuildError(Spec("(1,2", 2)).find("expected ')'"), std::string::npos);
  EXPECT_NE(BuildError(Spec("(1,2))", 2)).find("trailing"), std::string::npos);
  EXPECT_NE(BuildError(Spec("(1,)", 2)).find("expected a node id"), std::string::npos);
  EXPECT_NE(BuildError(Spec("(1,x)", 2)).find("expected a node id"), std::string::npos);
  EXPECT_NE(BuildError(Spec("(1)", 1)).find("at least two nodes"), std::string::npos);
  EXPECT_NE(BuildError(Spec("(1,1)", 2)).find("duplicate node id 1"), std::string::npos);
  EXPECT_NE(BuildError(Spec("(1,(2,3),2)", 4)).find("duplicate node id 2"),
            std::string::npos);
  EXPECT_NE(BuildError(Spec("(0,2)", 2)).find("positive"), std::string::npos);
}

TEST(TopologyParseTest, RejectsBadArrays) {
  // Missing capacity.
  TopologySpec spec;
  spec.tree = "(1,2)";
  EXPECT_NE(BuildError(spec).find("capacity_pages is required"), std::string::npos);
  // Wrong-size array.
  spec = Spec("(1,2)", 3);
  EXPECT_NE(BuildError(spec).find("capacity_pages must be empty or cover all 2"),
            std::string::npos);
  spec = Spec("(1,2)", 2);
  spec.load_latency = {80 * kNanosecond};
  EXPECT_NE(BuildError(spec).find("load_latency"), std::string::npos);
  // Zero capacity / bandwidth.
  spec = Spec("(1,2)", 2);
  spec.capacity_pages[1] = 0;
  EXPECT_NE(BuildError(spec).find("capacity_pages must be > 0"), std::string::npos);
  spec = Spec("(1,2)", 2);
  spec.bandwidth = {12e9, 0.0};
  EXPECT_NE(BuildError(spec).find("bandwidth must be > 0"), std::string::npos);
  spec = Spec("(1,2)", 2);
  spec.access_bytes = 0;
  EXPECT_NE(BuildError(spec).find("access_bytes"), std::string::npos);
}

TEST(TopologyParseTest, DefaultsFillLatencyAndBandwidth) {
  const Topology topo = MustBuild(Spec("(1,(2,3))", 3));
  const TopologySpec& spec = topo.spec();
  ASSERT_EQ(spec.load_latency.size(), 3u);
  // Root gets DRAM figures, endpoints CXL figures.
  EXPECT_LT(spec.load_latency[0], spec.load_latency[1]);
  EXPECT_EQ(spec.load_latency[1], spec.load_latency[2]);
  EXPECT_GT(spec.bandwidth[0], spec.bandwidth[1]);
}

TEST(TopologyRouteTest, HopDistanceAndRoutes) {
  // 1 - 2 - 3 chain plus 4 under the root: (1,(2,3),4).
  const Topology topo = MustBuild(Spec("(1,(2,3),4)", 4));
  EXPECT_EQ(topo.HopDistance(0, 0), 0);
  EXPECT_EQ(topo.HopDistance(0, 1), 1);
  EXPECT_EQ(topo.HopDistance(0, 2), 2);
  EXPECT_EQ(topo.HopDistance(2, 3), 3);  // 3 -> 2 -> 1(root) -> 4.
  EXPECT_EQ(topo.Route(0, 1), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(topo.Route(2, 0), (std::vector<NodeId>{2, 1, 0}));
  EXPECT_EQ(topo.Route(2, 3), (std::vector<NodeId>{2, 1, 0, 3}));
  EXPECT_EQ(topo.Route(3, 2), (std::vector<NodeId>{3, 0, 1, 2}));
  // Hop penalty: (depth - 1) * hop_latency.
  EXPECT_EQ(topo.HopPenalty(0), 0);
  EXPECT_EQ(topo.HopPenalty(1), 0);
  EXPECT_EQ(topo.HopPenalty(2), topo.spec().hop_latency);
}

TEST(CongestionTest, ChargesCappedBacklogDeterministically) {
  // 1 GB/s link, 4 us cap, 64-byte accesses: 64 bytes take 64 ns of service.
  EndpointCongestion link(1e9, 4 * kMicrosecond, 64);
  EXPECT_EQ(link.OnAccess(0), 0);  // Empty link: no delay...
  EXPECT_EQ(link.Backlog(0), 64);  // ...but the cursor advanced by the service time.
  // A 1 MB migration burst at t=0 books ~1 ms of service.
  link.OnMigrationBytes(0, 1u << 20);
  const SimDuration backlog = link.Backlog(0);
  EXPECT_GT(backlog, 1 * kMillisecond);
  // An access behind the burst is charged the cap, not the full backlog.
  EXPECT_EQ(link.OnAccess(0), 4 * kMicrosecond);
  EXPECT_EQ(link.congested_accesses(), 1u);
  EXPECT_EQ(link.access_queued_time(), 4 * kMicrosecond);
  EXPECT_EQ(link.peak_backlog(), backlog);
  // After the backlog drains, accesses are free again.
  const SimTime later = 10 * kMillisecond;
  EXPECT_EQ(link.Backlog(later), 0);
  EXPECT_EQ(link.OnAccess(later), 0);
  EXPECT_EQ(link.accesses(), 3u);
  EXPECT_EQ(link.congested_accesses(), 1u);

  // Determinism: replaying the same booking sequence yields identical state.
  EndpointCongestion a(1e9, 4 * kMicrosecond, 64);
  EndpointCongestion b(1e9, 4 * kMicrosecond, 64);
  for (EndpointCongestion* c : {&a, &b}) {
    c->OnAccess(0);
    c->OnMigrationBytes(100, 4096);
    c->OnAccess(200);
    c->OnAccess(5000);
  }
  EXPECT_EQ(a.Backlog(5000), b.Backlog(5000));
  EXPECT_EQ(a.access_queued_time(), b.access_queued_time());
  EXPECT_EQ(a.congested_accesses(), b.congested_accesses());
}

TEST(CongestionTest, ZeroBandwidthNeverQueues) {
  EndpointCongestion link(0.0, 4 * kMicrosecond, 64);
  link.OnMigrationBytes(0, 1u << 30);
  EXPECT_EQ(link.Backlog(0), 0);
  EXPECT_EQ(link.OnAccess(0), 0);
}

// Full-machine determinism: the same N-endpoint experiment twice, bit-identical results.
TEST(TopologyMachineTest, NEndpointRunsAreBitIdentical) {
  ExperimentConfig config;
  config.topology.tree = "(1,(2,4),(3,5))";
  config.topology.capacity_pages = {2048, 1536, 1536, 1536, 1536};
  config.bandwidth_scale = 64.0;
  config.warmup = kSecond;
  config.measure = 4 * kSecond;

  HotsetConfig w;
  w.working_set_bytes = 6144 * kBasePageSize;
  w.hot_fraction = 0.2;
  w.hot_access_fraction = 0.9;
  w.per_op_delay = 2 * kMicrosecond;
  w.sequential_init = true;
  const ProcessSpec proc{"hotset", [w] { return std::make_unique<HotsetStream>(w); }};

  for (const NamedPolicyFactory& policy :
       {TopologyPolicySet()[5], TopologyPolicySet()[6]}) {  // Chrono, endpoint_aware.
    const ExperimentResult r1 = Experiment::Run(config, policy.make, {proc});
    const ExperimentResult r2 = Experiment::Run(config, policy.make, {proc});
    ExpectResultsIdentical(r1, r2, policy.name);
  }
}

// The endpoint_aware_hotness policy must run, promote, and keep bookkeeping consistent on
// a deep fabric (and actually exercise its congestion-aware demotion targeting).
TEST(TopologyMachineTest, EndpointAwarePolicyPromotesOnDeepFabric) {
  ExperimentConfig config;
  config.topology.tree = "(1,(2,(4,(6,8))),(3,(5,(7,9))))";
  config.topology.capacity_pages = {2048, 1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024};
  config.bandwidth_scale = 64.0;
  config.warmup = 2 * kSecond;
  config.measure = 8 * kSecond;

  HotsetConfig w;
  w.working_set_bytes = 8192 * kBasePageSize;
  w.hot_fraction = 0.15;
  w.hot_access_fraction = 0.9;
  w.per_op_delay = 2 * kMicrosecond;
  w.sequential_init = true;
  const ProcessSpec proc{"hotset", [w] { return std::make_unique<HotsetStream>(w); }};

  const ExperimentResult result = Experiment::Run(
      config,
      [] {
        EndpointAwareConfig ea;
        ea.geometry.scan_period = 2 * kSecond;
        ea.geometry.scan_step_pages = 2048;
        return std::make_unique<EndpointAwarePolicy>(ea);
      },
      {proc});
  EXPECT_EQ(result.policy_name, "endpoint_aware_hotness");
  EXPECT_GT(result.migrations_committed, 0u);
  EXPECT_GT(result.promoted_pages, 0u);
  // The deep chains force some copies to route multiple links.
  EXPECT_GT(result.multi_hop_legs, result.multi_hop_copies);
}

// MachineConfig validation: parse errors and node counts beyond the per-process residency
// array are surfaced.
TEST(TopologyMachineTest, MachineConfigValidatesTopology) {
  MachineConfig config;
  config.topology.tree = "(1,2)";
  config.topology.capacity_pages = {64, 64};
  EXPECT_TRUE(config.Validate().empty());

  config.topology.tree = "(1,1)";
  std::vector<std::string> errors = config.Validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("duplicate"), std::string::npos);

  // 17 nodes exceeds kMaxNodes = 16.
  config.topology.tree =
      "(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17)";
  config.topology.capacity_pages.assign(17, 64);
  errors = config.Validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("max is"), std::string::npos);
}

// The machine divides each node's link bandwidth by bandwidth_scale exactly once: the
// tiers' copy bandwidth and the topology's link bandwidth both read spec / scale.
TEST(TopologyMachineTest, BandwidthIsScaledOnce) {
  const MachineConfig two_tier = MachineConfig::StandardTwoTier(4096);
  MachineConfig chain = two_tier;
  chain.topology = Spec("(1,(2,3))", 3);
  for (const double scale : {1.0, 256.0}) {
    for (MachineConfig config : {two_tier, chain}) {
      config.bandwidth_scale = scale;
      const Topology unscaled = MustBuild(config.topology);
      Machine machine(config, TopologyPolicySet()[0].make());
      ASSERT_EQ(machine.memory().num_nodes(), unscaled.num_nodes());
      for (NodeId i = 0; i < unscaled.num_nodes(); ++i) {
        const double expected = unscaled.spec().bandwidth[static_cast<size_t>(i)] / scale;
        EXPECT_EQ(machine.memory().node(i).spec().migration_bandwidth_bytes_per_sec, expected)
            << config.topology.tree << " node " << i << " scale " << scale;
        EXPECT_EQ(machine.memory().topology().link_bandwidth(i), expected)
            << config.topology.tree << " node " << i << " scale " << scale;
      }
    }
  }

  // The two-tier box is the star "(1,2)" with the DRAM/Optane presets and no congestion.
  Machine machine(two_tier, TopologyPolicySet()[0].make());
  const TieredMemory& memory = machine.memory();
  const Topology& topo = memory.topology();
  EXPECT_EQ(topo.ToString(), "(1,2)");
  EXPECT_EQ(memory.num_nodes(), 2);
  EXPECT_EQ(topo.edges().size(), 1u);
  EXPECT_FALSE(topo.congestion_enabled());
  EXPECT_FALSE(memory.congestion_enabled());
  const TierSpec presets[] = {TierSpec::Dram(1024), TierSpec::OptanePmem(3072)};
  for (NodeId i = 0; i < 2; ++i) {
    const TierSpec& preset = presets[i];
    EXPECT_EQ(topo.HopPenalty(i), 0);
    EXPECT_EQ(memory.node(i).capacity_pages(), preset.capacity_pages);
    EXPECT_EQ(memory.AccessLatency(i, /*is_store=*/false), preset.load_latency);
    EXPECT_EQ(memory.AccessLatency(i, /*is_store=*/true), preset.store_latency);
  }
}

}  // namespace
}  // namespace chronotier
