// Op-sequence goldens for the access-stream generators.
//
// Every stream below is driven for its first 2^18 ops through FillBatch (the path
// Machine::RunProcessUntil replays) and the (vaddr, is_store, think_time) sequence is
// folded into an FNV-1a fingerprint. The recorded values pin each generator's exact
// output *and* its RNG consumption: a generator rewritten for speed (table-driven Zipf,
// divide-free index folds) must reproduce them bit for bit, because any drift would move
// every experiment built on the stream. Configurations cover each generator's defaults
// plus the shapes the benches actually run (chronobench's tenant KV cell, fig15's
// low-skew victim, pmbench's three patterns at strides 1-3, Zipf on both sides of the
// sampler's table cap).

#include <gtest/gtest.h>

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
constexpr size_t kBatch = 64;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

// Streams the first kOps ops (fewer if the stream ends) and fingerprints them.
uint64_t StreamFingerprint(AccessStream& stream, uint64_t seed) {
  Process process(0, "golden");
  Rng rng(seed);
  stream.Init(process, rng);
  uint64_t h = 1469598103934665603ull;
  MemOp ops[kBatch];
  uint64_t total = 0;
  while (total < kOps) {
    const size_t produced = stream.FillBatch(rng, ops, kBatch);
    for (size_t i = 0; i < produced; ++i) {
      h = Mix(h, ops[i].vaddr);
      h = Mix(h, ops[i].is_store ? 1 : 0);
      h = Mix(h, static_cast<uint64_t>(ops[i].think_time));
    }
    total += produced;
    if (produced < kBatch) {
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

std::unique_ptr<AccessStream> Pmbench(PmbenchPattern pattern, uint64_t stride) {
  PmbenchConfig config;
  config.working_set_bytes = 6144 * kBasePageSize;
  config.pattern = pattern;
  config.stride = stride;
  config.read_ratio = 0.7;
  config.per_op_delay = kMicrosecond;
  return std::make_unique<PmbenchStream>(config);
}

std::unique_ptr<AccessStream> Zipf(uint64_t pages, double skew) {
  ZipfConfig config;
  config.working_set_bytes = pages * kBasePageSize;
  config.skew = skew;
  return std::make_unique<ZipfStream>(config);
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
       [] { return std::make_unique<UniformStream>(UniformConfig{}); }},
      {"zipf/n1024", 0x8ed7502a50da992ull, [] { return Zipf(1024, 0.99); }},
      {"zipf/n8192", 0xb6df81d5c313d716ull, [] { return Zipf(8192, 0.99); }},
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
      {"pmbench/gaussian/s1", 0x59207804fe0fe06full,
       [] { return Pmbench(PmbenchPattern::kGaussian, 1); }},
      {"pmbench/gaussian/s2", 0x663b89795177406full,
       [] { return Pmbench(PmbenchPattern::kGaussian, 2); }},
      {"pmbench/gaussian/s3", 0xdd1917b566b9206full,
       [] { return Pmbench(PmbenchPattern::kGaussian, 3); }},
      {"pmbench/uniform/s1", 0x3b01f46a7862f30bull,
       [] { return Pmbench(PmbenchPattern::kUniform, 1); }},
      {"pmbench/uniform/s2", 0x4d1370f9506a30bull,
       [] { return Pmbench(PmbenchPattern::kUniform, 2); }},
      {"pmbench/uniform/s3", 0x10579c100335130bull,
       [] { return Pmbench(PmbenchPattern::kUniform, 3); }},
      {"pmbench/linear/s1", 0x8ea2f3cc07735a7cull,
       [] { return Pmbench(PmbenchPattern::kLinear, 1); }},
      {"pmbench/linear/s2", 0xd3b4b9dbf3d07a7cull,
       [] { return Pmbench(PmbenchPattern::kLinear, 2); }},
      {"pmbench/linear/s3", 0xdc5991b0537dda7cull,
       [] { return Pmbench(PmbenchPattern::kLinear, 3); }},
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
    const uint64_t actual = StreamFingerprint(*stream, /*seed=*/0x5eed);
    // Harvest line: after an *intentional* generator change, paste these into Cases().
    std::cout << "STREAM-GOLDEN {\"" << c.key << "\", 0x" << std::hex << actual << std::dec
              << "ull}" << std::endl;
    EXPECT_EQ(actual, c.golden) << "op sequence diverged for stream " << c.key;
  }
}

}  // namespace
}  // namespace chronotier
