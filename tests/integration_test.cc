// Cross-system integration tests: the headline paper claims, checked end-to-end on small
// machines so they run in seconds. These are regression guards for the *shape* of the
// results — if one breaks, a bench almost certainly regressed too.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/standard_policies.h"
#include "src/harness/experiment.h"
#include "src/workloads/patterns.h"
#include "src/workloads/pmbench.h"
#include "tests/experiment_result_testutil.h"

namespace chronotier {
namespace {

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
  config.warmup = 12 * kSecond;
  config.measure = 10 * kSecond;
  return config;
}

std::vector<ProcessSpec> GaussianProcs(int count, double read_ratio = 0.95) {
  PmbenchConfig w;
  w.working_set_bytes = 6144 * kBasePageSize;  // 24 MB.
  w.read_ratio = read_ratio;
  w.per_op_delay = kMicrosecond;
  w.sequential_init = true;
  std::vector<ProcessSpec> procs;
  for (int i = 0; i < count; ++i) {
    procs.push_back({"pm", [w] { return std::make_unique<PmbenchStream>(w); }});
  }
  return procs;
}

PolicyFactory FindPolicy(const std::string& name) {
  for (auto& named : StandardPolicySet(FastGeometry())) {
    if (named.name == name) {
      return named.make;
    }
  }
  ADD_FAILURE() << "unknown policy " << name;
  return nullptr;
}

TEST(IntegrationTest, ChronoBeatsLinuxNbOnFmar) {
  // The Fig. 8 headline: Chrono's fast-tier access ratio clearly exceeds NUMA balancing's.
  const ExperimentResult chrono_result =
      Experiment::Run(SmallExperiment(), FindPolicy("Chrono"), GaussianProcs(2));
  const ExperimentResult linux_result =
      Experiment::Run(SmallExperiment(), FindPolicy("Linux-NB"), GaussianProcs(2));
  EXPECT_GT(chrono_result.fmar, linux_result.fmar);
  EXPECT_GT(chrono_result.fmar, 0.5);
}

TEST(IntegrationTest, ChronoBeatsLinuxNbOnLatency) {
  // Fig. 7: Chrono reduces average access latency substantially.
  const ExperimentResult chrono_result =
      Experiment::Run(SmallExperiment(), FindPolicy("Chrono"), GaussianProcs(2));
  const ExperimentResult linux_result =
      Experiment::Run(SmallExperiment(), FindPolicy("Linux-NB"), GaussianProcs(2));
  EXPECT_LT(chrono_result.avg_latency_ns, linux_result.avg_latency_ns);
}

TEST(IntegrationTest, ChronoPromotionsAreMoreProductive) {
  // Precise identification: each Chrono promotion buys more fast-tier hit ratio than an
  // MRU promotion does (Linux-NB promotes any touched page, much of it cold).
  const ExperimentResult chrono_result =
      Experiment::Run(SmallExperiment(), FindPolicy("Chrono"), GaussianProcs(2));
  const ExperimentResult linux_result =
      Experiment::Run(SmallExperiment(), FindPolicy("Linux-NB"), GaussianProcs(2));
  ASSERT_GT(chrono_result.promoted_pages, 0u);
  ASSERT_GT(linux_result.promoted_pages, 0u);
  const double chrono_yield =
      chrono_result.fmar / static_cast<double>(chrono_result.promoted_pages +
                                               chrono_result.demoted_pages);
  const double linux_yield =
      linux_result.fmar / static_cast<double>(linux_result.promoted_pages +
                                              linux_result.demoted_pages);
  // Allow slack: the decisive comparison is FMAR; yield must at least be comparable.
  EXPECT_GT(chrono_yield * 4.0, linux_yield);
  EXPECT_GT(chrono_result.fmar, linux_result.fmar);
}

TEST(IntegrationTest, MultiClockHasFewestContextSwitches) {
  // Fig. 8: no poisoned PTEs -> no hint faults -> lowest context-switch rate.
  const ExperimentResult mc =
      Experiment::Run(SmallExperiment(), FindPolicy("Multi-Clock"), GaussianProcs(2));
  for (const char* other : {"Linux-NB", "TPP", "Chrono"}) {
    const ExperimentResult result =
        Experiment::Run(SmallExperiment(), FindPolicy(other), GaussianProcs(2));
    EXPECT_LT(mc.context_switches_per_sec, result.context_switches_per_sec) << other;
  }
}

TEST(IntegrationTest, EveryStandardPolicyRunsCleanly) {
  for (auto& named : StandardPolicySet(FastGeometry())) {
    ExperimentConfig config = SmallExperiment();
    config.warmup = 2 * kSecond;
    config.measure = 4 * kSecond;
    const ExperimentResult result = Experiment::Run(config, named.make, GaussianProcs(1));
    EXPECT_GT(result.throughput_ops, 0.0) << named.name;
    EXPECT_GT(result.fmar, 0.0) << named.name;
  }
}

TEST(IntegrationTest, EveryChronoVariantRunsCleanly) {
  for (auto& named : ChronoVariantSet(32.0, FastGeometry())) {
    ExperimentConfig config = SmallExperiment();
    config.warmup = 2 * kSecond;
    config.measure = 4 * kSecond;
    const ExperimentResult result = Experiment::Run(config, named.make, GaussianProcs(1));
    EXPECT_GT(result.throughput_ops, 0.0) << named.name;
  }
}

TEST(IntegrationTest, WriteHeavyMixesRunSlower) {
  // Optane's store penalty (450 ns vs 250 ns loads): a write-heavy mix achieves lower
  // throughput than a read-heavy one under the same policy — the Fig. 6 R/W trend.
  const ExperimentResult reads = Experiment::Run(
      SmallExperiment(), FindPolicy("Linux-NB"), GaussianProcs(2, /*read_ratio=*/0.95));
  const ExperimentResult writes = Experiment::Run(
      SmallExperiment(), FindPolicy("Linux-NB"), GaussianProcs(2, /*read_ratio=*/0.05));
  EXPECT_LT(writes.throughput_ops, reads.throughput_ops);
}

TEST(IntegrationTest, ChronoAdaptsToPhaseChange) {
  // After the hot set rotates, Chrono must rebuild a hot-biased placement.
  ExperimentConfig config = SmallExperiment();
  config.warmup = 0;
  config.measure = 40 * kSecond;

  HotsetConfig w;
  w.working_set_bytes = 8192 * kBasePageSize;
  w.hot_fraction = 0.2;
  w.hot_access_fraction = 0.95;
  w.per_op_delay = kMicrosecond;
  w.sequential_init = true;
  w.phase_ops = 12000000;  // Roughly every ~15 simulated seconds.
  std::vector<ProcessSpec> procs = {
      {"phased", [w] { return std::make_unique<HotsetStream>(w); }}};

  double late_fmar = 0;
  Experiment::Run(config, FindPolicy("Chrono"), procs, nullptr,
                  [&late_fmar](Machine& machine, ExperimentResult&) {
                    late_fmar = machine.metrics().Fmar();
                  });
  // Even with rotations, placement must stay clearly better than the capacity baseline
  // (25% fast => FMAR ~0.4 for random placement with 95% skew; adapted placement is higher).
  EXPECT_GT(late_fmar, 0.45);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  const ExperimentResult a =
      Experiment::Run(SmallExperiment(), FindPolicy("Chrono"), GaussianProcs(1));
  const ExperimentResult b =
      Experiment::Run(SmallExperiment(), FindPolicy("Chrono"), GaussianProcs(1));
  ExpectResultsIdentical(a, b, "Chrono run twice");
}

TEST(IntegrationTest, SeedChangesOutcomeSlightly) {
  ExperimentConfig config = SmallExperiment();
  config.seed = 42;
  const ExperimentResult a = Experiment::Run(config, FindPolicy("Chrono"), GaussianProcs(1));
  config.seed = 43;
  const ExperimentResult b = Experiment::Run(config, FindPolicy("Chrono"), GaussianProcs(1));
  EXPECT_NE(a.hint_faults, b.hint_faults);
  // But the macro outcome is stable.
  EXPECT_NEAR(a.fmar, b.fmar, 0.15);
}

}  // namespace
}  // namespace chronotier
