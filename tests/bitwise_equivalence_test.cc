// Bitwise-equivalence suite for the hot-path interpreter overhaul.
//
// Two independent claims are pinned here:
//
//  1. *Layout equivalence*: the SoA page-metadata refactor (32-byte hot PageInfo, cold
//     oracle side-array, index-linked LRU on the per-machine PageArena) must not change a
//     single simulated outcome. Every schedule below was run on the pre-refactor seed
//     layout (96-byte PageInfo, pointer-linked LRU) and its full ExperimentResult was
//     folded into an FNV-1a fingerprint; the same schedules must reproduce the same
//     fingerprints forever. The fingerprint folds the field list (kExperimentResultFields,
//     src/harness/experiment.h) minus policy_name, inflight_at_measure_start and the
//     tenant rows, so a one-ULP drift in any latency average fails loudly.
//
//  2. *Replay equivalence*: batched access replay (Machine::RunProcessUntil pulling a
//     64-op slot per refill through AccessStream::FillBatch) is bit-identical to
//     single-step replay. Streams are machine-state independent — an op sequence depends
//     only on the stream's own state and its Rng — so prefetching ops ahead of execution
//     is invisible. The seed fingerprints were recorded from single-step replay, so they
//     pin this too. For the same reason it does not matter which thread generates the
//     ops: a helper filling the op rings ahead of replay, or the replay thread itself
//     (StreamFeederEquivalenceTest, checked over the whole field list, tenant rows
//     included, by FirstResultDifference).
//
// A third test pins the field list itself: perturbing any one field must be named by
// FirstResultDifference and, outside the three exclusions, move the fingerprint.
//
// Schedules deliberately cover the paths where layout/replay bugs would hide: all seven
// policies (the six-figure lineup plus the N-endpoint placement policy), a many-VMA
// segmented stream, a chaos fault plan (parks, quarantines, pressure, alloc refusals),
// a fabric fault plan (link-down reroutes, endpoint evacuation), and Zipfian tenant KV
// servers under strict-budget QoS (the one schedule driven by the Zipf sampler).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/core/standard_policies.h"
#include "src/harness/experiment.h"
#include "src/harness/machine.h"
#include "src/harness/runner.h"
#include "src/workloads/patterns.h"
#include "src/workloads/pmbench.h"
#include "src/workloads/tenant_kv.h"
#include "tests/experiment_result_testutil.h"

namespace chronotier {
namespace {

// --- fingerprinting ---

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

uint64_t MixDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return Mix(h, bits);
}

// Fields the goldens were recorded without; folding them in would move every golden.
bool IsFingerprinted(std::string_view field) {
  return field != "policy_name" && field != "inflight_at_measure_start" && field != "tenants";
}

template <typename T>
uint64_t Fold(uint64_t h, const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    return MixDouble(h, v);
  } else if constexpr (std::is_integral_v<T>) {
    return Mix(h, static_cast<uint64_t>(v));
  } else if constexpr (std::is_same_v<T, TenantResult>) {
    ForEachField(kTenantResultFields, [&](const auto& field) { h = Fold(h, v.*field.member); });
    return h;
  } else {
    for (const auto& element : v) {  // Elements only: the goldens fold no lengths.
      h = Fold(h, element);
    }
    return h;
  }
}

// FNV-1a over kExperimentResultFields in list (= declaration) order, minus the
// IsFingerprinted exclusions. Doubles are folded by bit pattern: "close" is not
// "identical", and identical is the contract.
uint64_t Fingerprint(const ExperimentResult& r) {
  uint64_t h = 1469598103934665603ull;
  ForEachField(kExperimentResultFields, [&](const auto& field) {
    if (IsFingerprinted(field.name)) {
      h = Fold(h, r.*field.member);
    }
  });
  return h;
}

// --- schedule matrix (mirrors tests/tlb_test.cc shapes, which the seed already ran) ---

ScanGeometry FastGeometry() {
  ScanGeometry geometry;
  geometry.scan_period = 2 * kSecond;
  geometry.scan_step_pages = 512;
  return geometry;
}

ExperimentConfig SmallExperiment() {
  ExperimentConfig config;
  config.total_pages = 16384;  // 64 MB machine, 16 MB DRAM.
  config.bandwidth_scale = 256.0;
  config.warmup = 6 * kSecond;
  config.measure = 6 * kSecond;
  config.residency_sample_interval = 2 * kSecond;
  return config;
}

std::vector<ProcessSpec> GaussianProcs(int count, double read_ratio = 0.95,
                                       uint64_t ws_pages = 6144) {
  PmbenchConfig w;
  w.working_set_bytes = ws_pages * kBasePageSize;
  w.read_ratio = read_ratio;
  w.per_op_delay = kMicrosecond;
  w.sequential_init = true;
  std::vector<ProcessSpec> procs;
  for (int i = 0; i < count; ++i) {
    procs.push_back({"pm", [w] { return std::make_unique<PmbenchStream>(w); }});
  }
  return procs;
}

std::vector<ProcessSpec> SegmentedProcs(int count) {
  SegmentedConfig w;
  w.working_set_bytes = 6144 * kBasePageSize;
  w.segments = 12;
  w.read_ratio = 0.9;
  w.per_op_delay = kMicrosecond;
  w.sequential_init = true;
  std::vector<ProcessSpec> procs;
  for (int i = 0; i < count; ++i) {
    procs.push_back({"seg", [w] { return std::make_unique<SegmentedStream>(w); }});
  }
  return procs;
}

ExperimentConfig NTierExperiment() {
  ExperimentConfig config = SmallExperiment();
  config.topology.tree = "(1,(2,4),(3,5))";
  config.topology.capacity_pages = {4096, 3072, 3072, 3072, 3072};
  return config;
}

// Declared strict-budget tenants, one open-loop Zipfian KV server each, on the N-tier
// tree: the only schedule whose op streams come from the Zipf sampler.
ExperimentConfig TenantExperiment(int tenants = 4) {
  ExperimentConfig config = NTierExperiment();
  for (int i = 0; i < tenants; ++i) {
    TenantSpec tenant;
    tenant.name = "t" + std::to_string(i);
    tenant.residency_budget_pages = {768};  // Fast node capped; endpoints unlimited.
    tenant.qos_program = "strict-budget";
    config.tenants.push_back(tenant);
  }
  return config;
}

std::vector<ProcessSpec> TenantKvProcs(int count, uint64_t items_per_tenant = 160) {
  TenantKvConfig w;
  w.virtual_tenants = 16;
  w.items_per_tenant = items_per_tenant;
  w.value_bytes = kBasePageSize;
  w.churn_period_ops = 10000;
  w.churn_stride = 5;
  w.mean_interarrival = 4 * kMicrosecond;
  std::vector<ProcessSpec> procs;
  for (int i = 0; i < count; ++i) {
    ProcessSpec spec{"kv", [w] { return std::make_unique<TenantKvStream>(w); }};
    spec.tenant = i;
    procs.push_back(spec);
  }
  return procs;
}

ExperimentConfig ChaosExperiment() {
  ExperimentConfig config = SmallExperiment();
  config.fault.enabled = true;
  config.fault.seed = 11;
  config.fault.start_after = kSecond;
  config.fault.copy_fail_transient_p = 0.05;
  config.fault.copy_fail_persistent_p = 0.002;
  config.fault.pressure_period = 1500 * kMillisecond;
  config.fault.pressure_fire_p = 0.8;
  config.fault.pressure_duration = 100 * kMillisecond;
  config.fault.pressure_fraction = 0.08;
  config.fault.alloc_fail_period = 1900 * kMillisecond;
  config.fault.alloc_fail_fire_p = 0.8;
  config.fault.alloc_fail_duration = 50 * kMillisecond;
  config.audit_period = 500 * kMillisecond;
  return config;
}

ExperimentConfig FabricExperiment() {
  ExperimentConfig config = NTierExperiment();
  config.fault.enabled = true;
  config.fault.seed = 23;
  config.fault.start_after = kSecond;
  config.fault.fabric.link_fault_period = 400 * kMillisecond;
  config.fault.fabric.link_fault_fire_p = 0.7;
  config.fault.fabric.link_down_p = 0.5;
  config.fault.fabric.link_down_duration = 20 * kMillisecond;
  config.fault.fabric.link_degrade_duration = 40 * kMillisecond;
  config.fault.fabric.endpoint_fail_period = 2600 * kMillisecond;
  config.fault.fabric.endpoint_recovery_after = 300 * kMillisecond;
  config.audit_period = 500 * kMillisecond;
  return config;
}

NamedPolicyFactory FindPolicy(const std::vector<NamedPolicyFactory>& set,
                              const std::string& name) {
  for (const auto& named : set) {
    if (named.name == name) {
      return named;
    }
  }
  ADD_FAILURE() << "no such policy in set: " << name;
  return {};
}

// --- recorded seed fingerprints ---
//
// Captured from the pre-refactor layout (96-byte PageInfo, pointer LRU, single-step
// replay) by running this same binary on the seed tree; see DESIGN.md §5. Any layout or
// replay change that shifts one bit of any result field changes these values. The two
// chaos entries were re-recorded when a parked reclaim demotion stopped counting as a
// demotion and began to rotate instead of being re-submitted at once.
struct SeedGolden {
  const char* key;
  uint64_t fingerprint;
};

constexpr SeedGolden kSeedGoldens[] = {
    {"standard/Linux-NB", 0xb82dfa6f01a365a8ull},
    {"standard/AutoTiering", 0x630a8abc525cea74ull},
    {"standard/Multi-Clock", 0x597cee9681fa22adull},
    {"standard/TPP", 0x2a44dc9e8b80c526ull},
    {"standard/Memtis", 0x8328973cc3d52bd7ull},
    {"standard/Chrono", 0xd997293d8dbe540bull},
    {"ntier/endpoint_aware_hotness", 0xed83abd49288db49ull},
    {"segmented/Chrono", 0x8705bab22cc8c76bull},
    {"segmented/TPP", 0x334830899288a16ull},
    {"chaos/Chrono", 0x005d6d7a35357cc9ull},
    {"chaos/Multi-Clock", 0xe0b7c1c43994809dull},
    {"fabric/Chrono", 0x4aad45429fed8a3dull},
    {"tenants/Chrono", 0xb833052870e98787ull},
};

uint64_t GoldenFor(const std::string& key) {
  for (const SeedGolden& golden : kSeedGoldens) {
    if (key == golden.key) {
      return golden.fingerprint;
    }
  }
  ADD_FAILURE() << "no seed golden recorded for " << key;
  return 0;
}

void ExpectSeedFingerprint(const std::string& key, const ExperimentConfig& config,
                           const NamedPolicyFactory& named,
                           const std::vector<ProcessSpec>& procs) {
  const ExperimentResult result = Experiment::Run(config, named.make, procs);
  const uint64_t actual = Fingerprint(result);
  // Harvest line: regenerating goldens after an *intentional* behaviour change means
  // re-running this binary and pasting these lines into kSeedGoldens.
  std::cout << "SEED-GOLDEN {\"" << key << "\", 0x" << std::hex << actual << std::dec
            << "ull}," << std::endl;
  EXPECT_EQ(actual, GoldenFor(key)) << "layout/replay diverged from the recorded seed "
                                    << "result on schedule " << key;
}

TEST(SoaSeedEquivalenceTest, StandardLineup) {
  for (const auto& named : StandardPolicySet(FastGeometry())) {
    ExpectSeedFingerprint("standard/" + named.name, SmallExperiment(), named,
                          GaussianProcs(2));
  }
}

TEST(SoaSeedEquivalenceTest, NTierEndpointAware) {
  ExpectSeedFingerprint("ntier/endpoint_aware_hotness", NTierExperiment(),
                        FindPolicy(TopologyPolicySet(FastGeometry()),
                                   "endpoint_aware_hotness"),
                        GaussianProcs(2));
}

TEST(SoaSeedEquivalenceTest, SegmentedStream) {
  const auto set = StandardPolicySet(FastGeometry());
  ExpectSeedFingerprint("segmented/Chrono", SmallExperiment(), FindPolicy(set, "Chrono"),
                        SegmentedProcs(2));
  ExpectSeedFingerprint("segmented/TPP", SmallExperiment(), FindPolicy(set, "TPP"),
                        SegmentedProcs(2));
}

TEST(SoaSeedEquivalenceTest, FaultInjectedSchedule) {
  const auto set = StandardPolicySet(FastGeometry());
  ExpectSeedFingerprint("chaos/Chrono", ChaosExperiment(), FindPolicy(set, "Chrono"),
                        GaussianProcs(2, /*read_ratio=*/0.5));
  ExpectSeedFingerprint("chaos/Multi-Clock", ChaosExperiment(),
                        FindPolicy(set, "Multi-Clock"),
                        GaussianProcs(2, /*read_ratio=*/0.5));
}

TEST(SoaSeedEquivalenceTest, FabricFaultSchedule) {
  ExpectSeedFingerprint("fabric/Chrono", FabricExperiment(),
                        FindPolicy(TopologyPolicySet(FastGeometry()), "Chrono"),
                        GaussianProcs(2, /*read_ratio=*/0.6));
}

TEST(SoaSeedEquivalenceTest, TenantKvSchedule) {
  ExpectSeedFingerprint("tenants/Chrono", TenantExperiment(),
                        FindPolicy(TopologyPolicySet(FastGeometry()), "Chrono"),
                        TenantKvProcs(4));
}

// --- helper-thread vs inline stream generation ---
//
// Run (a) is a normal run: with a host CPU idle, a helper thread fills the op rings ahead
// of replay. Run (b) first builds DefaultJobs() idle machines, which spend the process's
// CPU budget, so no helper is granted and the replay thread fills every slot itself.
// Which thread generates the ops must not show in any result field.

void ExpectFeederEquivalence(const std::string& key, const ExperimentConfig& config,
                             const NamedPolicyFactory& named,
                             const std::vector<ProcessSpec>& procs) {
  uint64_t fills = 0;
  const Experiment::FinishFn count_fills = [&fills](Machine& machine, ExperimentResult&) {
    fills = machine.batches_filled_off_thread();
  };
  const ExperimentResult helped = Experiment::Run(config, named.make, procs, nullptr,
                                                  count_fills);
  EXPECT_GT(fills, 0u) << key << ": never granted a helper";

  std::vector<std::unique_ptr<Machine>> idle;
  for (int i = 0; i < DefaultJobs(); ++i) {
    idle.push_back(std::make_unique<Machine>(MachineConfig::StandardTwoTier(1024),
                                             named.make()));
  }
  const ExperimentResult inlined = Experiment::Run(config, named.make, procs, nullptr,
                                                   count_fills);
  EXPECT_EQ(fills, 0u) << key << ": got a helper past the budget";
  ExpectResultsIdentical(helped, inlined, key + ": helper vs inline");
}

TEST(StreamFeederEquivalenceTest, Gaussian) {
  if (DefaultJobs() < 2) {
    GTEST_SKIP() << "one host CPU: no helper is ever granted";
  }
  const auto set = StandardPolicySet(FastGeometry());
  for (const char* policy : {"Chrono", "Linux-NB"}) {
    ExpectFeederEquivalence(std::string("standard/") + policy, SmallExperiment(),
                            FindPolicy(set, policy), GaussianProcs(2));
  }
}

TEST(StreamFeederEquivalenceTest, Segmented) {
  // Finite-phase streams: a short fill ends the stream on the helper in (a) and on the
  // replay thread in (b).
  if (DefaultJobs() < 2) {
    GTEST_SKIP() << "one host CPU: no helper is ever granted";
  }
  const auto set = StandardPolicySet(FastGeometry());
  for (const char* policy : {"Chrono", "Linux-NB"}) {
    ExpectFeederEquivalence(std::string("segmented/") + policy, SmallExperiment(),
                            FindPolicy(set, policy), SegmentedProcs(2));
  }
}

TEST(StreamFeederEquivalenceTest, TenantKv) {
  // Eight rings for one helper: the round-robin fill and the half-ring wakeups. Half-size
  // servers, so eight fit the machine.
  if (DefaultJobs() < 2) {
    GTEST_SKIP() << "one host CPU: no helper is ever granted";
  }
  const auto set = TopologyPolicySet(FastGeometry());
  for (const char* policy : {"Chrono", "Linux-NB"}) {
    ExpectFeederEquivalence(std::string("tenants/") + policy, TenantExperiment(8),
                            FindPolicy(set, policy), TenantKvProcs(8, /*items_per_tenant=*/80));
  }
}

// --- field-list coverage ---

// Changes one field: numbers by one ULP or one, strings and vectors by one element
// (a default tenant row for `tenants`).
template <typename T>
void Perturb(T& v) {
  if constexpr (std::is_floating_point_v<T>) {
    v = std::nextafter(v, 1.0);
  } else if constexpr (std::is_integral_v<T>) {
    v += 1;
  } else if constexpr (std::is_same_v<T, std::string>) {
    v += "x";
  } else if constexpr (!std::is_same_v<T, TenantResult>) {
    Perturb(v.emplace_back());
  }
}

TEST(ResultFieldListTest, EveryFieldIsComparedAndFingerprinted) {
  const ExperimentResult base;
  EXPECT_EQ(FirstResultDifference(base, base), "");
  ForEachField(kExperimentResultFields, [&base](const auto& field) {
    ExperimentResult changed = base;
    Perturb(changed.*field.member);
    const std::string diff = FirstResultDifference(base, changed);
    EXPECT_EQ(diff.substr(0, diff.find_first_of(".:[")), field.name) << diff;
    EXPECT_EQ(Fingerprint(changed) != Fingerprint(base), IsFingerprinted(field.name))
        << field.name;
  });

  ExperimentResult one_row;
  one_row.tenants.emplace_back();
  ForEachField(kTenantResultFields, [&one_row](const auto& field) {
    ExperimentResult changed = one_row;
    Perturb(changed.tenants[0].*field.member);
    const std::string diff = FirstResultDifference(one_row, changed);
    EXPECT_EQ(diff.substr(0, diff.find(':')), "tenants[0]." + std::string(field.name));
    EXPECT_EQ(Fingerprint(changed), Fingerprint(one_row)) << field.name;
  });
}

}  // namespace
}  // namespace chronotier
