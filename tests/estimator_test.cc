// Tests for the Appendix B theory module, including parameterized property-style sweeps.

#include <gtest/gtest.h>

#include "src/core/estimator.h"

namespace chronotier {
namespace {

TEST(EstimatorTest, ClosedFormVariances) {
  // Appendix B.1, eq. 3 and eq. 6 with T0 = 1.
  EXPECT_DOUBLE_EQ(MeanEstimatorVariance(1.0, 1), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(MeanEstimatorVariance(1.0, 2), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(MaxEstimatorVariance(1.0, 1), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(MaxEstimatorVariance(1.0, 2), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(MaxEstimatorVariance(1.0, 3), 1.0 / 15.0);
}

TEST(EstimatorTest, MaxDominatesMeanForMultipleRounds) {
  for (int n = 2; n <= 32; ++n) {
    EXPECT_LT(MaxEstimatorVariance(2.5, n), MeanEstimatorVariance(2.5, n)) << n;
  }
}

TEST(EstimatorTest, PointEstimates) {
  const double samples[] = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(MeanEstimate(samples, 2), 4.0);       // (2/2)(1+3) = 4.
  EXPECT_DOUBLE_EQ(MaxEstimate(samples, 2), 4.5);        // (3/2)*3.
}

class EstimatorMonteCarloTest : public ::testing::TestWithParam<int> {};

TEST_P(EstimatorMonteCarloTest, BothEstimatorsUnbiased) {
  const int n = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(n));
  constexpr double kT0 = 7.0;
  const EstimatorMoments mean_mc = SimulateMeanEstimator(kT0, n, 100000, rng);
  const EstimatorMoments max_mc = SimulateMaxEstimator(kT0, n, 100000, rng);
  EXPECT_NEAR(mean_mc.mean, kT0, 0.1);
  EXPECT_NEAR(max_mc.mean, kT0, 0.1);
}

TEST_P(EstimatorMonteCarloTest, VarianceMatchesTheory) {
  const int n = GetParam();
  Rng rng(2000 + static_cast<uint64_t>(n));
  constexpr double kT0 = 7.0;
  const EstimatorMoments mean_mc = SimulateMeanEstimator(kT0, n, 200000, rng);
  const EstimatorMoments max_mc = SimulateMaxEstimator(kT0, n, 200000, rng);
  EXPECT_NEAR(mean_mc.variance, MeanEstimatorVariance(kT0, n),
              MeanEstimatorVariance(kT0, n) * 0.05);
  EXPECT_NEAR(max_mc.variance, MaxEstimatorVariance(kT0, n),
              MaxEstimatorVariance(kT0, n) * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Rounds, EstimatorMonteCarloTest, ::testing::Values(1, 2, 3, 5, 8));

TEST(EfficiencyTest, UniformClosedFormPeaksAtTwo) {
  EXPECT_DOUBLE_EQ(UniformSelectionEfficiency(1), 0.0);
  EXPECT_DOUBLE_EQ(UniformSelectionEfficiency(2), 0.25);
  for (int n = 3; n <= 10; ++n) {
    EXPECT_LT(UniformSelectionEfficiency(n), 0.25) << n;
  }
}

TEST(EfficiencyTest, NumericMatchesClosedFormForUniform) {
  const auto uniform = [](double) { return 1.0; };
  for (int n = 2; n <= 6; ++n) {
    EXPECT_NEAR(SelectionEfficiency(uniform, n, 8192.0), UniformSelectionEfficiency(n), 1e-3)
        << n;
  }
}

TEST(EfficiencyTest, ColdMassDecreasesWithRounds) {
  const auto uniform = [](double) { return 1.0; };
  double previous = MissClassifiedColdMass(uniform, 2);
  for (int n = 3; n <= 8; ++n) {
    const double current = MissClassifiedColdMass(uniform, n);
    EXPECT_LT(current, previous);
    previous = current;
  }
}

class DensityFamilyTest : public ::testing::TestWithParam<double> {};

TEST_P(DensityFamilyTest, Normalized) {
  const HotnessDensity h(GetParam());
  // ∫_0^1 h = 1 by construction.
  const int steps = 1 << 14;
  double sum = 0;
  for (int i = 0; i < steps; ++i) {
    sum += h((i + 0.5) / steps);
  }
  EXPECT_NEAR(sum / steps, 1.0, 1e-3);
}

TEST_P(DensityFamilyTest, NonNegativeAndDecayingTail) {
  const HotnessDensity h(GetParam());
  EXPECT_GE(h(0.5), 0.0);
  EXPECT_GE(h(2.0), 0.0);
  // Cold-region density must decay (dense-hot / sparse-cold assumption). alpha = 1 is the
  // degenerate uniform case where the density is constant.
  if (GetParam() < 1.0) {
    EXPECT_GT(h(1.5), h(6.0));
  }
}

TEST_P(DensityFamilyTest, TwoRoundsOptimal) {
  const HotnessDensity h(GetParam());
  const auto density = [&h](double x) { return h(x); };
  const double e2 = SelectionEfficiency(density, 2, 64.0);
  for (int n = 3; n <= 7; ++n) {
    EXPECT_GT(e2, SelectionEfficiency(density, n, 64.0)) << "alpha=" << GetParam() << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, DensityFamilyTest,
                         ::testing::Values(0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0));

}  // namespace
}  // namespace chronotier
