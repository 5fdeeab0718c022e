#include "src/topology/topology.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "src/common/check.h"

namespace chronotier {

namespace {

// Recursive-descent parser over the tree grammar:
//   node  := INT | '(' INT (',' node)* ')'
// The outermost form must be a group (the root must exist even for two nodes: "(1,2)").
// Whitespace is permitted anywhere; the canonical ToString form emits none.
struct Parser {
  const std::string& text;
  size_t pos = 0;
  std::string error;

  explicit Parser(const std::string& t) : text(t) {}

  void SkipSpace() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  }

  bool Fail(const std::string& what) {
    std::ostringstream os;
    os << what << " at offset " << pos << " in \"" << text << "\"";
    error = os.str();
    return false;
  }

  bool ParseInt(int64_t* out) {
    SkipSpace();
    const size_t start = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    if (pos == start) return Fail("expected a node id");
    if (pos - start > 9) return Fail("node id too long");
    *out = 0;
    for (size_t i = start; i < pos; ++i) *out = *out * 10 + (text[i] - '0');
    return true;
  }

  // Parses one node (leaf id or parenthesized group). Appends the node and its subtree to
  // the accumulators; returns the new node's index via *node_out.
  bool ParseNode(NodeId parent, std::vector<int64_t>* ids, std::vector<NodeId>* parents,
                 std::vector<std::vector<NodeId>>* children, NodeId* node_out) {
    SkipSpace();
    if (pos < text.size() && text[pos] == '(') {
      ++pos;
      int64_t id = 0;
      if (!ParseInt(&id)) return false;
      const NodeId node = static_cast<NodeId>(ids->size());
      ids->push_back(id);
      parents->push_back(parent);
      children->emplace_back();
      SkipSpace();
      while (pos < text.size() && text[pos] == ',') {
        ++pos;
        NodeId child = kInvalidNode;
        if (!ParseNode(node, ids, parents, children, &child)) return false;
        (*children)[static_cast<size_t>(node)].push_back(child);
        SkipSpace();
      }
      if (pos >= text.size() || text[pos] != ')') return Fail("expected ')' or ','");
      ++pos;
      *node_out = node;
      return true;
    }
    int64_t id = 0;
    if (!ParseInt(&id)) return false;
    const NodeId node = static_cast<NodeId>(ids->size());
    ids->push_back(id);
    parents->push_back(parent);
    children->emplace_back();
    *node_out = node;
    return true;
  }
};

SimDuration DefaultLoadLatency(int depth) { return depth == 0 ? 80 * kNanosecond : 210 * kNanosecond; }
SimDuration DefaultStoreLatency(int depth) { return depth == 0 ? 80 * kNanosecond : 230 * kNanosecond; }
double DefaultBandwidth(int depth) { return depth == 0 ? 12.0e9 : 8.0e9; }

}  // namespace

TopologySpec TopologySpec::Star(const std::vector<TierSpec>& tiers) {
  TopologySpec spec;
  spec.tree = "(1";
  for (size_t i = 1; i < tiers.size(); ++i) spec.tree += "," + std::to_string(i + 1);
  spec.tree += ")";
  for (const TierSpec& tier : tiers) {
    spec.capacity_pages.push_back(tier.capacity_pages);
    spec.load_latency.push_back(tier.load_latency);
    spec.store_latency.push_back(tier.store_latency);
    spec.bandwidth.push_back(tier.migration_bandwidth_bytes_per_sec);
  }
  spec.model_congestion = false;
  return spec;
}

bool Topology::Build(const TopologySpec& spec, Topology* out, std::string* error) {
  CHECK(out != nullptr && error != nullptr);
  const auto fail = [error](const std::string& what) {
    *error = what;
    return false;
  };
  if (spec.tree.empty()) return fail("topology tree string is empty");

  Parser parser(spec.tree);
  std::vector<int64_t> ids;
  std::vector<NodeId> parents;
  std::vector<std::vector<NodeId>> children;
  parser.SkipSpace();
  if (parser.pos >= spec.tree.size() || spec.tree[parser.pos] != '(') {
    return fail("topology must start with '(' (the root group)");
  }
  NodeId root = kInvalidNode;
  if (!parser.ParseNode(kInvalidNode, &ids, &parents, &children, &root)) {
    return fail(parser.error);
  }
  parser.SkipSpace();
  if (parser.pos != spec.tree.size()) {
    parser.Fail("trailing characters after the root group");
    return fail(parser.error);
  }
  const size_t n = ids.size();
  if (n < 2) return fail("topology needs at least two nodes (a root and one endpoint)");
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] <= 0) return fail("node ids must be positive integers");
    for (size_t j = i + 1; j < n; ++j) {
      if (ids[i] == ids[j]) {
        return fail("duplicate node id " + std::to_string(ids[i]));
      }
    }
  }

  const auto check_array = [&](size_t size, const char* name) {
    if (size != 0 && size != n) {
      return fail(std::string(name) + " must be empty or cover all " + std::to_string(n) +
                  " nodes (got " + std::to_string(size) + ")");
    }
    return true;
  };
  if (!check_array(spec.capacity_pages.size(), "capacity_pages")) return false;
  if (!check_array(spec.load_latency.size(), "load_latency")) return false;
  if (!check_array(spec.store_latency.size(), "store_latency")) return false;
  if (!check_array(spec.bandwidth.size(), "bandwidth")) return false;
  if (spec.capacity_pages.empty()) return fail("capacity_pages is required");
  if (spec.hop_latency < 0) return fail("hop_latency must be >= 0");
  if (spec.congestion_access_delay_cap < 0) {
    return fail("congestion_access_delay_cap must be >= 0");
  }
  if (spec.access_bytes == 0) return fail("access_bytes must be > 0");

  out->spec_ = spec;
  out->parent_ = std::move(parents);
  out->children_ = std::move(children);
  out->topo_id_.resize(n);
  for (size_t i = 0; i < n; ++i) out->topo_id_[i] = static_cast<int>(ids[i]);
  out->depth_.assign(n, 0);
  out->hop_penalty_.assign(n, 0);
  for (size_t i = 1; i < n; ++i) {
    // Parents always precede children in pre-order, so one pass suffices.
    out->depth_[i] = out->depth_[static_cast<size_t>(out->parent_[i])] + 1;
    out->hop_penalty_[i] =
        static_cast<SimDuration>(out->depth_[i] - 1) * spec.hop_latency;
  }

  // Fill defaulted arrays so spec() is fully concrete.
  if (out->spec_.load_latency.empty()) {
    out->spec_.load_latency.resize(n);
    for (size_t i = 0; i < n; ++i) out->spec_.load_latency[i] = DefaultLoadLatency(out->depth_[i]);
  }
  if (out->spec_.store_latency.empty()) {
    out->spec_.store_latency.resize(n);
    for (size_t i = 0; i < n; ++i) out->spec_.store_latency[i] = DefaultStoreLatency(out->depth_[i]);
  }
  if (out->spec_.bandwidth.empty()) {
    out->spec_.bandwidth.resize(n);
    for (size_t i = 0; i < n; ++i) out->spec_.bandwidth[i] = DefaultBandwidth(out->depth_[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    if (out->spec_.capacity_pages[i] == 0) {
      return fail("capacity_pages must be > 0 for every node");
    }
    if (out->spec_.bandwidth[i] <= 0) return fail("bandwidth must be > 0 for every node");
    if (out->spec_.load_latency[i] < 0 || out->spec_.store_latency[i] < 0) {
      return fail("latencies must be >= 0 for every node");
    }
  }

  // One edge per (child, parent) link, ordered by (lo, hi) for a deterministic channel set.
  out->edges_.clear();
  for (size_t i = 1; i < n; ++i) {
    const NodeId a = static_cast<NodeId>(i);
    const NodeId b = out->parent_[i];
    out->edges_.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(out->edges_.begin(), out->edges_.end());
  out->BuildEdgeIndex();
  return true;
}

void Topology::BuildEdgeIndex() {
  const size_t n = parent_.size();
  edge_index_.assign(n * n, -1);
  for (size_t e = 0; e < edges_.size(); ++e) {
    const auto [lo, hi] = edges_[e];
    edge_index_[static_cast<size_t>(lo) * n + static_cast<size_t>(hi)] = static_cast<int>(e);
    edge_index_[static_cast<size_t>(hi) * n + static_cast<size_t>(lo)] = static_cast<int>(e);
  }
}

int Topology::HopDistance(NodeId a, NodeId b) const {
  if (a == b) return 0;
  int da = depth(a);
  int db = depth(b);
  int hops = 0;
  while (da > db) {
    a = parent(a);
    --da;
    ++hops;
  }
  while (db > da) {
    b = parent(b);
    --db;
    ++hops;
  }
  while (a != b) {
    a = parent(a);
    b = parent(b);
    hops += 2;
  }
  return hops;
}

std::vector<NodeId> Topology::Route(NodeId a, NodeId b) const {
  if (a == b) return {a};
  if (EdgeIndex(a, b) >= 0) return {a, b};
  // Tree path through the LCA: lift the deeper side, then both in lockstep.
  std::vector<NodeId> down;  // From a up toward the LCA (inclusive of a).
  std::vector<NodeId> up;    // From b up toward the LCA (inclusive of b).
  NodeId x = a;
  NodeId y = b;
  int dx = depth(x);
  int dy = depth(y);
  while (dx > dy) {
    down.push_back(x);
    x = parent(x);
    --dx;
  }
  while (dy > dx) {
    up.push_back(y);
    y = parent(y);
    --dy;
  }
  while (x != y) {
    down.push_back(x);
    up.push_back(y);
    x = parent(x);
    y = parent(y);
  }
  down.push_back(x);  // The LCA.
  down.insert(down.end(), up.rbegin(), up.rend());
  return down;
}

std::vector<NodeId> Topology::RouteAvoiding(NodeId a, NodeId b,
                                            const std::vector<LinkHealth>& links) const {
  if (a == b) return {a};
  const auto edge_up = [&](NodeId x, NodeId y) {
    const int e = EdgeIndex(x, y);
    return e >= 0 && links[static_cast<size_t>(e)] != LinkHealth::kDown;
  };
  if (edge_up(a, b)) return {a, b};
  // Deterministic BFS over surviving edges. Fabrics are small (kMaxNodes-bounded) and this
  // only runs while a link is actually down, so the O(n^2) neighbor scan is fine.
  const int n = num_nodes();
  std::vector<NodeId> prev(static_cast<size_t>(n), kInvalidNode);
  std::vector<NodeId> frontier{a};
  prev[static_cast<size_t>(a)] = a;
  while (!frontier.empty() && prev[static_cast<size_t>(b)] == kInvalidNode) {
    std::vector<NodeId> next;
    for (NodeId x : frontier) {
      for (NodeId y = 0; y < n; ++y) {
        if (prev[static_cast<size_t>(y)] != kInvalidNode || !edge_up(x, y)) continue;
        prev[static_cast<size_t>(y)] = x;
        next.push_back(y);
      }
    }
    frontier = std::move(next);
  }
  if (prev[static_cast<size_t>(b)] == kInvalidNode) return {};  // Partitioned.
  std::vector<NodeId> path;
  for (NodeId x = b; x != a; x = prev[static_cast<size_t>(x)]) path.push_back(x);
  path.push_back(a);
  std::reverse(path.begin(), path.end());
  return path;
}

std::string Topology::ToString() const {
  std::ostringstream os;
  // Pre-order render; a node with children becomes a group, a leaf a bare id.
  const std::function<void(NodeId)> render = [&](NodeId node) {
    const auto& kids = children_[static_cast<size_t>(node)];
    if (kids.empty() && node != 0) {
      os << topo_id(node);
      return;
    }
    os << '(' << topo_id(node);
    for (NodeId child : kids) {
      os << ',';
      render(child);
    }
    os << ')';
  };
  render(0);
  return os.str();
}

std::vector<TierSpec> Topology::TierSpecs() const {
  std::vector<TierSpec> specs;
  specs.reserve(parent_.size());
  for (size_t i = 0; i < parent_.size(); ++i) {
    TierSpec spec;
    spec.name = i == 0 ? "dram" : "cxl" + std::to_string(topo_id_[i]);
    spec.capacity_pages = spec_.capacity_pages[i];
    spec.load_latency = spec_.load_latency[i];
    spec.store_latency = spec_.store_latency[i];
    spec.migration_bandwidth_bytes_per_sec = spec_.bandwidth[i];
    specs.push_back(std::move(spec));
  }
  return specs;
}

void Topology::ScaleBandwidth(double scale) {
  for (double& bw : spec_.bandwidth) {
    bw /= scale;
  }
}

}  // namespace chronotier
