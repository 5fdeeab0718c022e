#include "src/workloads/graph500.h"

#include <algorithm>

namespace chronotier {

CsrGraph CsrGraph::Generate(const Graph500Config& config, Rng& rng) {
  CsrGraph graph;
  const uint64_t n = 1ull << config.scale;
  const uint64_t m = n * static_cast<uint64_t>(config.edge_factor);
  graph.num_vertices_ = n;

  // Kronecker / R-MAT edge sampling: recursively descend the adjacency matrix quadrants
  // with probabilities (a, b, c, 1-a-b-c).
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(m);
  for (uint64_t e = 0; e < m; ++e) {
    uint64_t row = 0;
    uint64_t col = 0;
    for (int bit = config.scale - 1; bit >= 0; --bit) {
      const double p = rng.NextDouble();
      if (p < config.a) {
        // Top-left quadrant.
      } else if (p < config.a + config.b) {
        col |= 1ull << bit;
      } else if (p < config.a + config.b + config.c) {
        row |= 1ull << bit;
      } else {
        row |= 1ull << bit;
        col |= 1ull << bit;
      }
    }
    if (row == col) {
      continue;  // Drop self-loops.
    }
    edges.emplace_back(static_cast<uint32_t>(row), static_cast<uint32_t>(col));
  }

  // Build an undirected CSR (both directions, Graph500 treats the graph as undirected).
  std::vector<uint64_t> degree(n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++degree[u + 1];
    ++degree[v + 1];
  }
  graph.xadj_.resize(n + 1, 0);
  for (uint64_t v = 1; v <= n; ++v) {
    graph.xadj_[v] = graph.xadj_[v - 1] + degree[v];
  }
  graph.adjncy_.resize(graph.xadj_[n]);
  std::vector<uint64_t> cursor(graph.xadj_.begin(), graph.xadj_.end() - 1);
  for (const auto& [u, v] : edges) {
    graph.adjncy_[cursor[u]++] = v;
    graph.adjncy_[cursor[v]++] = u;
  }
  return graph;
}


void Graph500Stream::Init(Process& process, Rng& rng) {
  graph_ = std::make_unique<CsrGraph>(CsrGraph::Generate(config_, rng));
  const uint64_t n = graph_->num_vertices();

  const uint64_t xadj_bytes = (n + 1) * 8;
  const uint64_t adjncy_bytes = graph_->adjncy().size() * 4;
  const uint64_t dist_bytes = n * 8;
  const uint64_t base = process.aspace().MapRegion(
      xadj_bytes + adjncy_bytes + dist_bytes + 3 * kBasePageSize,
      process.default_page_kind());

  // Page-aligned array layout within the single mapping.
  auto align = [](uint64_t addr) { return (addr + kBasePageSize - 1) & ~(kBasePageSize - 1); };
  base_xadj_ = base;
  base_adjncy_ = align(base_xadj_ + xadj_bytes);
  base_dist_ = align(base_adjncy_ + adjncy_bytes);

  level_.assign(n, UINT32_MAX);
  StartNextRoot(rng);
}

void Graph500Stream::StartNextRoot(Rng& rng) {
  const uint64_t n = graph_->num_vertices();
  std::fill(level_.begin(), level_.end(), UINT32_MAX);
  // Pick a root with at least one edge.
  uint32_t root = 0;
  for (int tries = 0; tries < 64; ++tries) {
    root = static_cast<uint32_t>(rng.NextBelow(n));
    if (graph_->xadj()[root + 1] > graph_->xadj()[root]) {
      break;
    }
  }
  level_[root] = 0;
  frontier_.clear();
  frontier_.push_back(root);
  // The dist-array reset is a streaming store sweep (one op per cache line).
  pending_reset_cursor_ = 0;
  resetting_ = true;
}

bool Graph500Stream::Next(Rng& rng, MemOp* op) {
  const uint64_t n = graph_->num_vertices();

  // Phase 1: dist[] initialization sweep for the current root.
  if (resetting_) {
    op->vaddr = AddrDist(pending_reset_cursor_);
    op->is_store = true;
    op->think_time = config_.per_op_think;
    pending_reset_cursor_ += 8;  // 64-byte cache line of 8-byte entries.
    if (pending_reset_cursor_ >= n) {
      resetting_ = false;
    }
    return true;
  }

  // Phase 2: replay buffered traversal ops.
  if (!pending_.empty()) {
    *op = pending_.front();
    op->think_time = config_.per_op_think;
    pending_.pop_front();
    return true;
  }

  // Phase 3: advance the traversal to refill the buffer.
  while (pending_.empty()) {
    if (frontier_.empty()) {
      ++roots_completed_;
      if (roots_completed_ >= config_.num_roots) {
        return false;
      }
      StartNextRoot(rng);
      return Next(rng, op);
    }
    const uint32_t u = frontier_.front();
    frontier_.pop_front();

    const uint64_t begin = graph_->xadj()[u];
    const uint64_t end = graph_->xadj()[u + 1];
    pending_.push_back(MemOp{AddrXadj(u), false, 0});
    pending_.push_back(MemOp{AddrXadj(u + 1), false, 0});
    for (uint64_t e = begin; e < end; ++e) {
      const uint32_t v = graph_->adjncy()[e];
      pending_.push_back(MemOp{AddrAdjncy(e), false, 0});
      pending_.push_back(MemOp{AddrDist(v), false, 0});
      uint32_t weight = 1;
      if (config_.kernel == GraphKernel::kSssp) {
        weight = 1 + static_cast<uint32_t>(SplitMix64(e * 2654435761ull) % 7);
      }
      const uint32_t candidate = level_[u] + weight;
      if (candidate < level_[v]) {
        level_[v] = candidate;
        pending_.push_back(MemOp{AddrDist(v), true, 0});
        frontier_.push_back(v);
      }
    }
  }
  *op = pending_.front();
  op->think_time = config_.per_op_think;
  pending_.pop_front();
  return true;
}

}  // namespace chronotier
