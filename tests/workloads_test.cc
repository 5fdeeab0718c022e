// Unit tests for the workload generators: pmbench, patterns, graph500, kvstore, and the
// open-loop multi-tenant KV driver.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <unordered_set>

#include "src/workloads/graph500.h"
#include "src/workloads/kvstore.h"
#include "src/workloads/patterns.h"
#include "src/workloads/pmbench.h"
#include "src/workloads/tenant_kv.h"

namespace chronotier {
namespace {

Process MakeProcess() { return Process(0, "test"); }

TEST(PmbenchTest, GaussianConcentratesInCenter) {
  Process process = MakeProcess();
  Rng rng(1);
  PmbenchConfig config;
  config.working_set_bytes = 4096 * kBasePageSize;
  config.stride = 1;
  config.sigma_fraction = 0.0625;
  PmbenchStream stream(config);
  stream.Init(process, rng);

  uint64_t center_hits = 0;
  constexpr int kOps = 100000;
  const uint64_t base = stream.region_start_vpn();
  const uint64_t n = stream.num_pages();
  for (int i = 0; i < kOps; ++i) {
    MemOp op;
    ASSERT_TRUE(stream.Next(rng, &op));
    const uint64_t offset = op.vaddr / kBasePageSize - base;
    ASSERT_LT(offset, n);
    if (offset >= 3 * n / 8 && offset < 5 * n / 8) {
      ++center_hits;
    }
  }
  // Center 25% should collect ~95% of accesses (+-2 sigma of N(n/2, n/16)).
  EXPECT_GT(center_hits, kOps * 9 / 10);
}

TEST(PmbenchTest, StrideTwoTouchesEvenPagesOnly) {
  Process process = MakeProcess();
  Rng rng(2);
  PmbenchConfig config;
  config.working_set_bytes = 1024 * kBasePageSize;
  config.stride = 2;
  PmbenchStream stream(config);
  stream.Init(process, rng);
  const uint64_t base = stream.region_start_vpn();
  for (int i = 0; i < 10000; ++i) {
    MemOp op;
    stream.Next(rng, &op);
    EXPECT_EQ((op.vaddr / kBasePageSize - base) % 2, 0u);
  }
}

TEST(PmbenchTest, ReadWriteRatioRespected) {
  Process process = MakeProcess();
  Rng rng(3);
  PmbenchConfig config;
  config.working_set_bytes = 64 * kBasePageSize;
  config.read_ratio = 0.7;
  PmbenchStream stream(config);
  stream.Init(process, rng);
  int stores = 0;
  constexpr int kOps = 50000;
  for (int i = 0; i < kOps; ++i) {
    MemOp op;
    stream.Next(rng, &op);
    stores += op.is_store ? 1 : 0;
  }
  EXPECT_NEAR(stores, kOps * 0.3, kOps * 0.02);
}

TEST(PmbenchTest, SequentialInitCoversEveryPageFirst) {
  Process process = MakeProcess();
  Rng rng(4);
  PmbenchConfig config;
  config.working_set_bytes = 128 * kBasePageSize;
  config.sequential_init = true;
  PmbenchStream stream(config);
  stream.Init(process, rng);
  for (uint64_t i = 0; i < 128; ++i) {
    MemOp op;
    ASSERT_TRUE(stream.Next(rng, &op));
    EXPECT_EQ(op.vaddr / kBasePageSize, stream.region_start_vpn() + i);
    EXPECT_TRUE(op.is_store);
  }
}

TEST(PmbenchTest, OpLimitTerminatesStream) {
  Process process = MakeProcess();
  Rng rng(5);
  PmbenchConfig config;
  config.working_set_bytes = 16 * kBasePageSize;
  config.op_limit = 100;
  PmbenchStream stream(config);
  stream.Init(process, rng);
  MemOp op;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(stream.Next(rng, &op));
  }
  EXPECT_FALSE(stream.Next(rng, &op));
}

TEST(PmbenchTest, HotVpnsMatchesStrideMapping) {
  Process process = MakeProcess();
  Rng rng(6);
  PmbenchConfig config;
  config.working_set_bytes = 1024 * kBasePageSize;
  config.stride = 2;
  PmbenchStream stream(config);
  stream.Init(process, rng);

  const std::vector<uint64_t> hot = stream.HotVpns(0.25);
  std::unordered_set<uint64_t> hot_set(hot.begin(), hot.end());
  // Draws should land in the hot set ~95% of the time (2-sigma of the center quarter).
  int hits = 0;
  constexpr int kOps = 20000;
  for (int i = 0; i < kOps; ++i) {
    MemOp op;
    stream.Next(rng, &op);
    hits += hot_set.count(op.vaddr / kBasePageSize) > 0 ? 1 : 0;
  }
  EXPECT_GT(hits, kOps * 88 / 100);
}

TEST(PatternsTest, HotsetSkewRespected) {
  Process process = MakeProcess();
  Rng rng(7);
  HotsetConfig config;
  config.working_set_bytes = 1000 * kBasePageSize;
  config.hot_fraction = 0.2;
  config.hot_access_fraction = 0.8;
  HotsetStream stream(config);
  stream.Init(process, rng);
  EXPECT_EQ(stream.hot_pages(), 200u);

  uint64_t hot_hits = 0;
  constexpr int kOps = 50000;
  for (int i = 0; i < kOps; ++i) {
    MemOp op;
    stream.Next(rng, &op);
    const uint64_t offset = op.vaddr / kBasePageSize - stream.region_start_vpn();
    if (offset < 200) {
      ++hot_hits;
    }
  }
  // 80% directed + 20% uniform (of which 20% also lands hot) = ~84%.
  EXPECT_NEAR(static_cast<double>(hot_hits) / kOps, 0.84, 0.02);
}

TEST(PatternsTest, PhaseShiftRotatesHotSet) {
  Process process = MakeProcess();
  Rng rng(8);
  HotsetConfig config;
  config.working_set_bytes = 1000 * kBasePageSize;
  config.hot_fraction = 0.2;
  config.phase_ops = 1000;
  HotsetStream stream(config);
  stream.Init(process, rng);
  const uint64_t before = stream.current_hot_base();
  MemOp op;
  for (int i = 0; i < 1500; ++i) {
    stream.Next(rng, &op);
  }
  EXPECT_NE(stream.current_hot_base(), before);
}

// The op envelope every page stream shares: with a pre-touch, an op limit and a per-op
// delay set, each stream first stores to every page once, in address order, with no think
// time, then issues exactly `op_limit` ops charged the delay, then ends.
struct EnvelopeCase {
  const char* name;
  std::function<std::unique_ptr<AccessStream>()> make;
};

void PrintTo(const EnvelopeCase& c, std::ostream* out) { *out << c.name; }

template <typename Stream, typename Config>
std::unique_ptr<AccessStream> EnvelopeStream(Config config) {
  config.working_set_bytes = 96 * kBasePageSize;
  config.sequential_init = true;
  config.op_limit = 100;
  config.per_op_delay = 3 * kMicrosecond;
  return std::make_unique<Stream>(config);
}

class PageStreamEnvelopeTest : public testing::TestWithParam<EnvelopeCase> {};

TEST_P(PageStreamEnvelopeTest, PreTouchesEveryPageThenLimitsAndDelaysOps) {
  Process process = MakeProcess();
  Rng rng(4);
  const std::unique_ptr<AccessStream> stream = GetParam().make();
  stream->Init(process, rng);
  ASSERT_EQ(process.aspace().total_pages(), 96u);

  MemOp op;
  uint64_t last_vpn = 0;
  for (uint64_t i = 0; i < 96; ++i) {
    ASSERT_TRUE(stream->Next(rng, &op));
    const uint64_t vpn = op.vaddr / kBasePageSize;
    ASSERT_NE(process.aspace().FindVma(vpn), nullptr);
    EXPECT_EQ(op.vaddr % kBasePageSize, 0u);
    if (i > 0) {
      EXPECT_GT(vpn, last_vpn) << "pre-touch op " << i;
    }
    last_vpn = vpn;
    EXPECT_TRUE(op.is_store);
    EXPECT_EQ(op.think_time, 0);
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(stream->Next(rng, &op)) << "op " << i;
    EXPECT_NE(process.aspace().FindVma(op.vaddr / kBasePageSize), nullptr);
    EXPECT_EQ(op.think_time, 3 * kMicrosecond);
  }
  EXPECT_FALSE(stream->Next(rng, &op));
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, PageStreamEnvelopeTest,
    testing::Values(
        EnvelopeCase{"Segmented1",
                     [] { return EnvelopeStream<SegmentedStream>(SegmentedConfig{}); }},
        EnvelopeCase{"Segmented7",
                     [] {
                       SegmentedConfig config;
                       config.segments = 7;
                       return EnvelopeStream<SegmentedStream>(config);
                     }},
        EnvelopeCase{"Hotset", [] { return EnvelopeStream<HotsetStream>(HotsetConfig{}); }},
        EnvelopeCase{"Pmbench",
                     [] { return EnvelopeStream<PmbenchStream>(PmbenchConfig{}); }}),
    [](const testing::TestParamInfo<EnvelopeCase>& p) { return p.param.name; });

TEST(Graph500Test, GeneratorBuildsConsistentCsr) {
  Rng rng(10);
  Graph500Config config;
  config.scale = 10;
  config.edge_factor = 8;
  const CsrGraph graph = CsrGraph::Generate(config, rng);
  EXPECT_EQ(graph.num_vertices(), 1024u);
  EXPECT_GT(graph.num_edges(), 10000u);  // ~2 * 8192 minus self-loops.
  EXPECT_EQ(graph.xadj().size(), 1025u);
  EXPECT_EQ(graph.adjncy().size(), graph.num_edges());
  // xadj is monotone; adjncy targets are in range.
  for (size_t v = 0; v < 1024; ++v) {
    EXPECT_LE(graph.xadj()[v], graph.xadj()[v + 1]);
  }
  for (uint32_t target : graph.adjncy()) {
    EXPECT_LT(target, 1024u);
  }
}

TEST(Graph500Test, KroneckerDegreeDistributionIsSkewed) {
  Rng rng(11);
  Graph500Config config;
  config.scale = 12;
  const CsrGraph graph = CsrGraph::Generate(config, rng);
  std::vector<uint64_t> degrees;
  for (size_t v = 0; v < graph.num_vertices(); ++v) {
    degrees.push_back(graph.xadj()[v + 1] - graph.xadj()[v]);
  }
  std::sort(degrees.begin(), degrees.end(), std::greater<>());
  // R-MAT: the top-1% vertices hold far more than 1% of the edges.
  uint64_t top = 0;
  for (size_t i = 0; i < degrees.size() / 100; ++i) {
    top += degrees[i];
  }
  EXPECT_GT(top * 10, graph.num_edges());  // > 10% of edges in the top 1%.
}

TEST(Graph500Test, StreamVisitsVerticesAndTerminates) {
  Process process = MakeProcess();
  Rng rng(12);
  Graph500Config config;
  config.scale = 10;
  config.num_roots = 2;
  Graph500Stream stream(config);
  stream.Init(process, rng);
  EXPECT_GT(process.aspace().total_pages(), 0u);

  // xadj[] opens the mapping; a vertex visit reads its two offsets xadj[u] and xadj[u + 1].
  const uint64_t xadj_lo = process.aspace().vmas().front()->start_vpn() * kBasePageSize;
  const uint64_t xadj_hi = xadj_lo + (stream.graph().num_vertices() + 1) * 8;
  MemOp op;
  uint64_t ops = 0;
  uint64_t xadj_reads = 0;
  bool ended = false;
  while (ops < 50000000) {
    if (!stream.Next(rng, &op)) {
      ended = true;
      break;
    }
    ++ops;
    ASSERT_NE(process.aspace().FindVma(op.vaddr / kBasePageSize), nullptr);
    if (op.vaddr >= xadj_lo && op.vaddr < xadj_hi) {
      EXPECT_FALSE(op.is_store);
      ++xadj_reads;
    }
  }
  EXPECT_TRUE(ended) << "the stream ends after its num_roots traversals";
  EXPECT_GT(xadj_reads / 2, 500u);  // BFS reaches the giant component.
  EXPECT_GT(ops, 10000u);
}

TEST(Graph500Test, SsspRelaxesMoreThanBfs) {
  Process bfs_proc(0, "bfs");
  Process sssp_proc(1, "sssp");
  Rng rng_a(13);
  Rng rng_b(13);
  Graph500Config config;
  config.scale = 10;
  config.num_roots = 2;
  Graph500Stream bfs(config);
  config.kernel = GraphKernel::kSssp;
  Graph500Stream sssp(config);
  bfs.Init(bfs_proc, rng_a);
  sssp.Init(sssp_proc, rng_b);

  auto drain = [](Graph500Stream& stream, Process&, Rng& rng) {
    MemOp op;
    uint64_t ops = 0;
    while (stream.Next(rng, &op) && ops < 100000000) {
      ++ops;
    }
    return ops;
  };
  Rng rng_c(14);
  Rng rng_d(14);
  const uint64_t bfs_ops = drain(bfs, bfs_proc, rng_c);
  const uint64_t sssp_ops = drain(sssp, sssp_proc, rng_d);
  // SSSP re-relaxes vertices (weighted distances) and therefore issues more references.
  EXPECT_GT(sssp_ops, bfs_ops);
}

TEST(KvStoreTest, InitializationIsSequentialStores) {
  Process process = MakeProcess();
  Rng rng(15);
  KvStoreConfig config;
  config.num_items = 100;
  config.value_bytes = 256;
  config.set_fraction = 0.0;  // GET-only after init: the first load ends the init phase.
  KvStoreStream stream(config);
  stream.Init(process, rng);
  // The bucket array is the first mapping, the item heap the second.
  const uint64_t heap_lo = process.aspace().vmas()[1]->start_vpn() * kBasePageSize;

  MemOp op;
  uint64_t last_item_addr = 0;
  int item_ops = 0;
  ASSERT_TRUE(stream.Next(rng, &op));
  while (op.is_store) {
    if (op.vaddr >= heap_lo) {
      EXPECT_GE(op.vaddr, last_item_addr);  // Monotone heap addresses.
      last_item_addr = op.vaddr;
      ++item_ops;
    }
    ASSERT_TRUE(stream.Next(rng, &op));
  }
  EXPECT_EQ(stream.ops_issued(), 1u);  // The first load is the first driver op's.
  EXPECT_GE(item_ops, 100);
}

TEST(KvStoreTest, GetTouchesBucketAndValue) {
  Process process = MakeProcess();
  Rng rng(16);
  KvStoreConfig config;
  config.num_items = 1000;
  config.value_bytes = 100;
  config.set_fraction = 0.0;  // GET-only after init.
  KvStoreStream stream(config);
  stream.Init(process, rng);
  const uint64_t heap_vpn = process.aspace().vmas()[1]->start_vpn();
  MemOp op;
  // Drain the init phase (all stores), then check a full GET burst: it must touch both the
  // bucket array and the item heap, with loads only.
  do {
    ASSERT_TRUE(stream.Next(rng, &op));
  } while (op.is_store);
  bool saw_bucket = false;
  bool saw_heap = false;
  for (int i = 0; i < 12; ++i) {
    if (i > 0) {
      ASSERT_TRUE(stream.Next(rng, &op));
    }
    EXPECT_FALSE(op.is_store);
    if (op.vaddr / kBasePageSize >= heap_vpn) {
      saw_heap = true;
    } else {
      saw_bucket = true;
    }
  }
  EXPECT_TRUE(saw_bucket);
  EXPECT_TRUE(saw_heap);
}

TEST(KvStoreTest, GaussianKeysFavorCenter) {
  Process process = MakeProcess();
  Rng rng(17);
  KvStoreConfig config;
  config.num_items = 10000;
  config.sigma_fraction = 0.1;
  KvStoreStream stream(config);
  stream.Init(process, rng);
  uint64_t center = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t key = stream.DrawKey(rng);
    ASSERT_LT(key, 10000u);
    if (key >= 4000 && key < 6000) {
      ++center;
    }
  }
  EXPECT_GT(center, kDraws * 6 / 10);  // ~68% within 1 sigma.
}

TEST(KvStoreTest, OpLimitCountsPostInitOps) {
  Process process = MakeProcess();
  Rng rng(18);
  KvStoreConfig config;
  config.num_items = 50;
  config.op_limit = 10;
  KvStoreStream stream(config);
  stream.Init(process, rng);
  MemOp op;
  uint64_t total = 0;
  while (stream.Next(rng, &op)) {
    ++total;
    ASSERT_LT(total, 10000u);
  }
  EXPECT_EQ(stream.ops_issued(), 10u);
  EXPECT_GT(total, 10u);  // Init ops + 10 driver ops (each multi-access).
}

TEST(TenantKvTest, InitCoversEveryItemThenStaysInBounds) {
  Process process = MakeProcess();
  Rng rng(20);
  TenantKvConfig config;
  config.virtual_tenants = 8;
  config.items_per_tenant = 16;
  config.value_bytes = 128;
  config.op_limit = 500;
  config.set_fraction = 0.0;  // Driver phase is GET-only, so every store is an init SET.
  TenantKvStream stream(config);
  stream.Init(process, rng);

  // The init phase SETs every item exactly once; every reference (init and driver) stays
  // inside the two mapped regions (directory + heap, mapped in that order).
  const uint64_t dir_lo = process.aspace().vmas()[0]->start_vpn() * kBasePageSize;
  const uint64_t dir_hi = dir_lo + config.virtual_tenants * 64;
  const uint64_t heap_lo = process.aspace().vmas()[1]->start_vpn() * kBasePageSize;
  const uint64_t heap_hi = heap_lo + stream.total_items() * config.value_bytes;
  std::unordered_set<uint64_t> init_items;
  MemOp op;
  uint64_t total = 0;
  while (stream.Next(rng, &op)) {
    ASSERT_TRUE((op.vaddr >= dir_lo && op.vaddr < dir_hi) ||
                (op.vaddr >= heap_lo && op.vaddr < heap_hi));
    if (op.vaddr >= heap_lo && op.is_store) {
      init_items.insert((op.vaddr - heap_lo) / config.value_bytes);
    }
    ++total;
    ASSERT_LT(total, 100000u);
  }
  EXPECT_EQ(init_items.size(), stream.total_items());
  EXPECT_EQ(stream.ops_issued(), config.op_limit);
}

TEST(TenantKvTest, OpenLoopArrivalsCarryThinkTime) {
  Process process = MakeProcess();
  Rng rng(21);
  TenantKvConfig config;
  config.virtual_tenants = 4;
  config.items_per_tenant = 8;
  config.op_limit = 200;
  config.mean_interarrival = 5 * kMicrosecond;
  TenantKvStream stream(config);
  stream.Init(process, rng);
  MemOp op;
  // Drain the init phase: the first driver op's first reference is the last one taken.
  while (stream.ops_issued() == 0) {
    ASSERT_TRUE(stream.Next(rng, &op));
  }
  // Post-init, the first reference of each op (the directory probe, a load) carries the
  // exponential interarrival gap; the mean should land near the configured mean.
  SimDuration total_gap = 0;
  uint64_t gaps = 0;
  const uint64_t dir_lo = process.aspace().vmas()[0]->start_vpn() * kBasePageSize;
  const uint64_t dir_hi = dir_lo + config.virtual_tenants * 64;
  while (stream.Next(rng, &op)) {
    if (op.vaddr >= dir_lo && op.vaddr < dir_hi) {
      EXPECT_FALSE(op.is_store);
      total_gap += op.think_time;
      ++gaps;
    } else {
      EXPECT_EQ(op.think_time, 0);
    }
  }
  ASSERT_GT(gaps, 100u);
  const double mean = static_cast<double>(total_gap) / static_cast<double>(gaps);
  EXPECT_GT(mean, 0.5 * static_cast<double>(config.mean_interarrival));
  EXPECT_LT(mean, 2.0 * static_cast<double>(config.mean_interarrival));
}

TEST(TenantKvTest, ChurnRotatesTenantPopularity) {
  TenantKvConfig config;
  config.virtual_tenants = 10;
  config.churn_stride = 3;
  TenantKvStream stream(config);
  // Pure rotation arithmetic: rank r in epoch e maps to (r + 3e) mod 10, so the hot rank
  // walks the tenant space and every tenant eventually takes a turn being hot.
  EXPECT_EQ(stream.TenantForRank(0, 0), 0u);
  EXPECT_EQ(stream.TenantForRank(0, 1), 3u);
  EXPECT_EQ(stream.TenantForRank(0, 2), 6u);
  EXPECT_EQ(stream.TenantForRank(7, 1), 0u);
  std::unordered_set<uint64_t> hot_tenants;
  for (uint64_t epoch = 0; epoch < 10; ++epoch) {
    hot_tenants.insert(stream.TenantForRank(0, epoch));
  }
  EXPECT_EQ(hot_tenants.size(), 10u);  // Stride 3 is coprime to 10: full cycle.
}

// A KV operation replays from a ValueBurst of 8 ops: the bucket or directory probe
// plus one op per value page, so a value may span at most 7 pages, and a value that is not
// a page multiple can start mid-page, which costs one page more. Init rejects anything
// larger instead of silently skipping the tail pages.
TEST(KvStoreTest, SevenPageValueTouchesEveryPage) {
  Process process = MakeProcess();
  Rng rng(22);
  KvStoreConfig config;
  config.num_items = 4;
  config.value_bytes = 7 * kBasePageSize;
  KvStoreStream stream(config);
  stream.Init(process, rng);
  MemOp op;
  ASSERT_TRUE(stream.Next(rng, &op));  // Bucket probe of item 0's SET.
  for (uint64_t page = 0; page < 7; ++page) {
    ASSERT_TRUE(stream.Next(rng, &op));
    EXPECT_EQ(op.vaddr / kBasePageSize, process.aspace().vmas()[1]->start_vpn() + page);
  }
}

TEST(KvStoreDeathTest, ValueSpanningTooManyPagesIsRejected) {
  KvStoreConfig config;
  config.num_items = 4;
  config.value_bytes = 6 * kBasePageSize + 1;  // 7 pages, 8 once a value starts mid-page.
  EXPECT_DEATH(
      {
        Process process = MakeProcess();
        Rng rng(23);
        KvStoreStream stream(config);
        stream.Init(process, rng);
      },
      "value_bytes");
}

TEST(TenantKvDeathTest, ValueSpanningTooManyPagesIsRejected) {
  TenantKvConfig config;
  config.virtual_tenants = 2;
  config.items_per_tenant = 2;
  config.value_bytes = 8 * kBasePageSize;
  EXPECT_DEATH(
      {
        Process process = MakeProcess();
        Rng rng(24);
        TenantKvStream stream(config);
        stream.Init(process, rng);
      },
      "value_bytes");
}

}  // namespace
}  // namespace chronotier
