// Op-sequence goldens for the access-stream generators.
//
// Every stream below is driven for its first 2^18 ops and the (vaddr, is_store,
// think_time) sequence is folded into an FNV-1a fingerprint. The recorded values pin each
// generator's exact output *and* its RNG consumption: a generator rewritten for speed
// (table-driven Zipf, divide-free index folds, two-pass page streams) must reproduce them
// bit for bit, because any drift would move every experiment built on the stream.
// Configurations cover each generator's defaults plus the shapes the benches actually run
// (chronobench's tenant KV cell, fig15's low-skew victim, pmbench's Gaussian at strides
// 1-3). `uniform` is the segmented stream with one segment. Every golden was recorded by
// single-stepping, and every stream must reproduce it whatever the FillBatch size and
// however FillBatch and Next calls are mixed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/workloads/kvstore.h"
#include "src/workloads/patterns.h"
#include "src/workloads/pmbench.h"
#include "src/workloads/tenant_kv.h"

namespace chronotier {
namespace {

constexpr uint64_t kOps = uint64_t{1} << 18;
constexpr size_t kMaxBatch = 100;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

// Streams the first kOps ops (fewer if the stream ends) and fingerprints them. The calls
// cycle through `schedule`: a size n > 0 is one FillBatch(n) call, 0 is one Next call.
uint64_t StreamFingerprint(AccessStream& stream, uint64_t seed,
                           const std::vector<size_t>& schedule) {
  Process process(0, "golden");
  Rng rng(seed);
  stream.Init(process, rng);
  uint64_t h = 1469598103934665603ull;
  MemOp ops[kMaxBatch];
  uint64_t total = 0;
  for (size_t call = 0; total < kOps; ++call) {
    const size_t size = schedule[call % schedule.size()];
    const size_t want = std::min<uint64_t>(std::max<size_t>(size, 1), kOps - total);
    const size_t produced =
        size == 0 ? (stream.Next(rng, &ops[0]) ? 1 : 0) : stream.FillBatch(rng, ops, want);
    for (size_t i = 0; i < produced; ++i) {
      h = Mix(h, ops[i].vaddr);
      h = Mix(h, ops[i].is_store ? 1 : 0);
      h = Mix(h, static_cast<uint64_t>(ops[i].think_time));
    }
    total += produced;
    if (produced < want) {
      break;
    }
  }
  return h;
}

struct StreamCase {
  const char* key;
  uint64_t golden;
  std::function<std::unique_ptr<AccessStream>()> make;
};

PmbenchConfig PmbenchShape(uint64_t stride) {
  PmbenchConfig config;
  config.working_set_bytes = 6144 * kBasePageSize;
  config.stride = stride;
  config.read_ratio = 0.7;
  config.per_op_delay = kMicrosecond;
  return config;
}

std::unique_ptr<AccessStream> Pmbench(uint64_t stride) {
  return std::make_unique<PmbenchStream>(PmbenchShape(stride));
}

// A pre-touch of 1003 pages ends inside a batch at every size the test runs (1003 = 15 x
// 64 + 43 = 143 x 7 + 2 = 10 x 100 + 3), so the first drawn pass of a 64-op batch holds 21
// Gaussian ops: an odd number, which leaves a pair's second value pending at its end.
std::unique_ptr<AccessStream> PmbenchPreTouch() {
  PmbenchConfig config = PmbenchShape(2);
  config.working_set_bytes = 1003 * kBasePageSize;
  config.sequential_init = true;
  return std::make_unique<PmbenchStream>(config);
}

// The op limit ends inside a batch at every size (100003 = 1562 x 64 + 35 = 14286 x 7 + 1
// = 1000 x 100 + 3).
std::unique_ptr<AccessStream> PmbenchOpLimit() {
  PmbenchConfig config = PmbenchShape(2);
  config.op_limit = 100003;
  return std::make_unique<PmbenchStream>(config);
}

// chronobench's tenants-fabric process (and fig15's QoS rows): 16 x 192 one-page items.
std::unique_ptr<AccessStream> BenchTenantKv() {
  TenantKvConfig config;
  config.virtual_tenants = 16;
  config.items_per_tenant = 192;
  config.value_bytes = kBasePageSize;
  config.churn_period_ops = 10000;
  config.churn_stride = 5;
  config.mean_interarrival = 4 * kMicrosecond;
  return std::make_unique<TenantKvStream>(config);
}

// fig15's noisy-neighbour victim: 8 x 768 items under a nearly flat key skew.
std::unique_ptr<AccessStream> VictimTenantKv() {
  TenantKvConfig config;
  config.virtual_tenants = 8;
  config.items_per_tenant = 768;
  config.value_bytes = kBasePageSize;
  config.churn_period_ops = 10000;
  config.churn_stride = 5;
  config.mean_interarrival = 16 * kMicrosecond;
  config.key_zipf_s = 0.2;
  return std::make_unique<TenantKvStream>(config);
}

const std::vector<StreamCase>& Cases() {
  static const std::vector<StreamCase> kCases = {
      {"uniform", 0x1ca0d7425fd4fe3aull,
       [] { return std::make_unique<SegmentedStream>(SegmentedConfig{}); }},
      {"hotset", 0x112acdb419acdd83ull,
       [] {
         HotsetConfig config;
         config.phase_ops = 50000;
         return std::make_unique<HotsetStream>(config);
       }},
      {"segmented", 0xe207be8aebb2e3aull,
       [] {
         SegmentedConfig config;
         config.working_set_bytes = 6144 * kBasePageSize;
         config.segments = 7;
         return std::make_unique<SegmentedStream>(config);
       }},
      {"pmbench/gaussian/s1", 0x59207804fe0fe06full, [] { return Pmbench(1); }},
      {"pmbench/gaussian/s2", 0x663b89795177406full, [] { return Pmbench(2); }},
      {"pmbench/gaussian/s3", 0xdd1917b566b9206full, [] { return Pmbench(3); }},
      {"pmbench/pretouch", 0x9e26afaea98e7049ull, PmbenchPreTouch},
      {"pmbench/op_limit", 0x8fee61f8ad370251ull, PmbenchOpLimit},
      {"tenant_kv/bench", 0x142c8d451e933b89ull, BenchTenantKv},
      {"tenant_kv/victim", 0x768518bc92728048ull, VictimTenantKv},
      {"tenant_kv/defaults", 0x1f1ad60910ff9abdull,
       [] { return std::make_unique<TenantKvStream>(TenantKvConfig{}); }},
      {"kvstore", 0x744bd9e5bf0a9953ull,
       [] {
         KvStoreConfig config;
         config.num_items = 20000;  // Init is 2 ops per item; leave room for the mix.
         return std::make_unique<KvStoreStream>(config);
       }},
  };
  return kCases;
}

TEST(StreamGoldenTest, OpSequencesMatchRecordedFingerprints) {
  for (const StreamCase& c : Cases()) {
    std::unique_ptr<AccessStream> stream = c.make();
    const uint64_t actual = StreamFingerprint(*stream, /*seed=*/0x5eed, {64});
    // Harvest line: after an *intentional* generator change, paste these into Cases().
    std::cout << "STREAM-GOLDEN {\"" << c.key << "\", 0x" << std::hex << actual << std::dec
              << "ull}" << std::endl;
    EXPECT_EQ(actual, c.golden) << "op sequence diverged for stream " << c.key;
  }
}

// The batch size is the caller's: the machine fills 64-op slots, a direct caller may ask
// for any count or single-step. None of it may move an op or a draw, so each schedule
// must reproduce the single-step golden. Sizes 7 and 100 end passes after an odd number
// of Gaussian ops and straddle PageStream's 64-op pass; the mixed schedule interleaves
// Next with fills.
TEST(StreamGoldenTest, OpSequencesDoNotDependOnBatchSize) {
  const std::vector<std::vector<size_t>> schedules = {
      {1}, {7}, {64}, {100}, {0}, {0, 7, 64, 0, 0, 100, 1, 63}};
  for (const StreamCase& c : Cases()) {
    for (const std::vector<size_t>& schedule : schedules) {
      std::unique_ptr<AccessStream> stream = c.make();
      std::string calls;
      for (const size_t size : schedule) {
        calls += (size == 0 ? std::string("Next") : std::to_string(size)) + " ";
      }
      EXPECT_EQ(StreamFingerprint(*stream, /*seed=*/0x5eed, schedule), c.golden)
          << "stream " << c.key << " diverged under the call schedule " << calls;
    }
  }
}

}  // namespace
}  // namespace chronotier
