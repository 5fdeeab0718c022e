// N-tier CXL topology: the one description of how a machine's memory nodes are wired.
//
// A Topology is a tree parsed from a CXLMemSim-style string such as "(1,(2,3,4))" — host 1
// at the root, endpoint 2 below it, endpoints 3 and 4 behind 2 — with per-node
// latency/bandwidth/capacity arrays and a per-hop latency penalty. The paper's two-tier box
// is the degenerate tree "(1,2)" with congestion off (TopologySpec::Star). The migration
// engine builds one CopyChannel per tree edge and routes multi-hop copies over the tree
// path (src/migration); the access path charges the hop penalty and per-endpoint
// congestion delay (src/mem/tiered_memory.h).
//
// This library sits below src/mem in the link graph (ct_mem depends on ct_topology), so it
// uses tier.h header-only: TierSpecs derived from a parsed topology are built inline here
// rather than through the TierSpec factory functions.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/mem/tier.h"
#include "src/topology/health.h"

namespace chronotier {

// User-facing description, carried in MachineConfig. All per-node arrays are indexed by
// node id in order of first appearance in `tree` (pre-order), so entry 0 always describes
// the root / fast tier — the CXLMemSim convention.
struct TopologySpec {
  // Tree string, e.g. "(1,(2,3,4))": a parenthesized group is "(id, child, child, ...)",
  // a bare integer is a leaf. The first id of the outermost group is the root (the host
  // DRAM node, mapped to NodeId 0). Required: Topology::Build rejects an empty string.
  std::string tree;

  // Physical capacity per node, in base pages. Required (must cover every node).
  std::vector<uint64_t> capacity_pages;

  // Raw device access latencies per node (before hop penalties). Empty = defaults: DRAM
  // figures for the root, CXL-expander figures for every endpoint.
  std::vector<SimDuration> load_latency;
  std::vector<SimDuration> store_latency;

  // Per-node link bandwidth in bytes/sec: the lane the node's upstream port can sustain.
  // Doubles as the node's migration copy bandwidth and its congestion service rate.
  // Empty = defaults (root 12 GB/s, endpoints 8 GB/s).
  std::vector<double> bandwidth;

  // Extra access latency per switch hop past the first: a node at depth d pays
  // (d - 1) * hop_latency on every access (the root pays nothing).
  SimDuration hop_latency = 50 * kNanosecond;

  // Per-endpoint congestion model (deterministic queuing on the node's link — see
  // congestion.h). Off → parsed topologies still get hop penalties and routed migration
  // but accesses never queue.
  bool model_congestion = true;
  // Cap on the queuing delay charged to a single access: saturation degrades the access
  // path, it must not stall an application behind a whole migration backlog.
  SimDuration congestion_access_delay_cap = 4 * kMicrosecond;
  // Bytes one access books against the endpoint's link (a cache line).
  uint64_t access_bytes = 64;

  // True when a tree is set; ExperimentConfig builds MachineConfig::StandardTwoTier when
  // it is not.
  bool enabled() const { return !tree.empty(); }

  // The star "(1,2,...,n)": the root is tiers[0], every other tier is an endpoint directly
  // below it, and each node takes its preset's capacity, latencies and bandwidth. Congestion
  // is off, and no node pays a hop penalty (every endpoint sits at depth 1).
  static TopologySpec Star(const std::vector<TierSpec>& tiers);
};

class Topology {
 public:
  // Parses and validates `spec`. On failure returns false and sets *error (out is left in
  // an unspecified but safe state). On success `out->spec()` keeps a copy of the spec with
  // defaulted arrays filled in.
  static bool Build(const TopologySpec& spec, Topology* out, std::string* error);

  Topology() = default;

  int num_nodes() const { return static_cast<int>(parent_.size()); }
  bool congestion_enabled() const { return spec_.model_congestion; }
  const TopologySpec& spec() const { return spec_; }

  // Tree accessors (the root has depth 0 and parent kInvalidNode).
  NodeId parent(NodeId node) const { return parent_[static_cast<size_t>(node)]; }
  int depth(NodeId node) const { return depth_[static_cast<size_t>(node)]; }

  // Edges as unordered (lo, hi) pairs in the engine's channel order.
  const std::vector<std::pair<NodeId, NodeId>>& edges() const { return edges_; }
  // Dense adjacency: index into edges() for {a, b}, or -1 when not directly connected.
  int EdgeIndex(NodeId a, NodeId b) const {
    return edge_index_[static_cast<size_t>(a) * static_cast<size_t>(num_nodes()) +
                       static_cast<size_t>(b)];
  }

  // Inclusive node path a -> ... -> b (through the tree LCA); {a, b} when adjacent.
  std::vector<NodeId> Route(NodeId a, NodeId b) const;
  // Whether no link along `path` (a Route()) is kDown; a degraded link still carries
  // traffic. Every edge is a child-parent link, so Route() is the only path between two
  // nodes: when this is false the pair is partitioned, and there is no detour to take.
  bool PathIsUp(const std::vector<NodeId>& path,
                const std::vector<LinkHealth>& links) const;

  // Extra access latency for a node behind more than one link: (depth - 1) * hop_latency.
  SimDuration HopPenalty(NodeId node) const {
    return hop_penalty_[static_cast<size_t>(node)];
  }

  // The node's link bandwidth (congestion service rate and copy bandwidth), bytes/sec.
  double link_bandwidth(NodeId node) const { return spec_.bandwidth[static_cast<size_t>(node)]; }

  // TierSpecs derived from the per-node arrays: the root is "dram", endpoint k "cxl<k>".
  std::vector<TierSpec> TierSpecs() const;

  // Miniature-machine scaling: divides every node's link bandwidth by `scale`
  // (MachineConfig::bandwidth_scale). TieredMemory calls it once, before deriving its tiers.
  void ScaleBandwidth(double scale);

 private:
  TopologySpec spec_;
  std::vector<NodeId> parent_;   // kInvalidNode for the root.
  std::vector<int> depth_;
  std::vector<int> topo_id_;    // The id each node has in the tree string.
  std::vector<SimDuration> hop_penalty_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::vector<int> edge_index_;  // num_nodes * num_nodes, -1 when not adjacent.

  void BuildEdgeIndex();
};

}  // namespace chronotier
