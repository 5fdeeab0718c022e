// Tests for the PEBS sampling model: period behaviour, rate cap, overhead accounting.

#include <gtest/gtest.h>

#include "src/pebs/pebs.h"

namespace chronotier {
namespace {

TEST(PebsTest, SamplesAtConfiguredAverageRate) {
  PebsConfig config;
  config.period = 9;  // One sample per ~10 accesses on average (gap is jittered).
  config.max_samples_per_sec = 1000000;
  PebsSampler sampler(config);
  int samples = 0;
  sampler.set_handler([&samples](const PebsSample&) { ++samples; });
  for (int i = 0; i < 100000; ++i) {
    sampler.OnAccess(i * 100, 0, 1, kFastNode, false);
  }
  EXPECT_NEAR(samples, 10000, 500);
  EXPECT_EQ(sampler.samples_delivered(), static_cast<uint64_t>(samples));
}

TEST(PebsTest, DeliveredSamplesCarryContext) {
  PebsConfig config;
  config.period = 0;  // Every access sampled.
  PebsSampler sampler(config);
  PebsSample seen;
  sampler.set_handler([&seen](const PebsSample& sample) { seen = sample; });
  sampler.OnAccess(123456, 7, 0xABC, kSlowNode, true);
  EXPECT_EQ(seen.time, 123456);
  EXPECT_EQ(seen.pid, 7);
  EXPECT_EQ(seen.vpn, 0xABCu);
  EXPECT_EQ(seen.node, kSlowNode);
  EXPECT_TRUE(seen.is_store);
}

TEST(PebsTest, RateCapThrottlesWithinSecond) {
  PebsConfig config;
  config.period = 0;
  config.max_samples_per_sec = 100;
  PebsSampler sampler(config);
  int samples = 0;
  sampler.set_handler([&samples](const PebsSample&) { ++samples; });
  // 1000 accesses inside one simulated second: only 100 delivered.
  for (int i = 0; i < 1000; ++i) {
    sampler.OnAccess(i * kMicrosecond, 0, 1, kFastNode, false);
  }
  EXPECT_EQ(samples, 100);
  EXPECT_EQ(sampler.samples_delivered(), 100u);  // The other 900 were throttled.
}

TEST(PebsTest, RateCapResetsEachSecond) {
  PebsConfig config;
  config.period = 0;
  config.max_samples_per_sec = 10;
  PebsSampler sampler(config);
  int samples = 0;
  sampler.set_handler([&samples](const PebsSample&) { ++samples; });
  for (int second = 0; second < 3; ++second) {
    for (int i = 0; i < 100; ++i) {
      sampler.OnAccess(second * kSecond + i * kMicrosecond, 0, 1, kFastNode, false);
    }
  }
  EXPECT_EQ(samples, 30);  // 10 per second across 3 seconds.
}

TEST(PebsTest, DeliveredSamplesChargeOverhead) {
  PebsConfig config;
  config.period = 0;
  config.per_sample_overhead = 400;
  PebsSampler sampler(config);
  EXPECT_EQ(sampler.OnAccess(0, 0, 1, kFastNode, false), 400);
}

TEST(PebsTest, SkippedAccessesAreFree) {
  PebsConfig config;
  config.period = 99;
  PebsSampler sampler(config);
  sampler.OnAccess(0, 0, 1, kFastNode, false);  // First access samples.
  // The jittered gap is at least period/2: the next 49 accesses cannot sample.
  for (int i = 1; i < 49; ++i) {
    EXPECT_EQ(sampler.OnAccess(i, 0, 1, kFastNode, false), 0) << i;
  }
}

TEST(PebsTest, ThrottledSamplesAreFree) {
  PebsConfig config;
  config.period = 0;
  config.max_samples_per_sec = 1;
  PebsSampler sampler(config);
  EXPECT_GT(sampler.OnAccess(0, 0, 1, kFastNode, false), 0);
  EXPECT_EQ(sampler.OnAccess(1, 0, 1, kFastNode, false), 0);  // Throttled.
}

// Property sweep: whatever the period, delivered+skipped accounting is consistent.
class PebsPeriodTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PebsPeriodTest, DeliveryRateMatchesPeriod) {
  PebsConfig config;
  config.period = GetParam();
  config.max_samples_per_sec = 1u << 30;
  PebsSampler sampler(config);
  constexpr int kAccesses = 100000;
  for (int i = 0; i < kAccesses; ++i) {
    sampler.OnAccess(i, 0, 1, kFastNode, false);
  }
  const double expected = static_cast<double>(kAccesses) / (GetParam() + 1);
  // Gap jitter is uniform around the period; the delivery rate still matches on average.
  EXPECT_NEAR(static_cast<double>(sampler.samples_delivered()), expected, expected * 0.05 + 2);
}

INSTANTIATE_TEST_SUITE_P(Periods, PebsPeriodTest, ::testing::Values(0, 1, 7, 99, 199, 997));

}  // namespace
}  // namespace chronotier
