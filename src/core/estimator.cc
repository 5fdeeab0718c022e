#include "src/core/estimator.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/det_math.h"
#include "src/common/stats.h"

namespace chronotier {

double MeanEstimatorVariance(double t0, int n) {
  CHECK_GT(n, 0);
  return t0 * t0 / (3.0 * static_cast<double>(n));
}

double MaxEstimatorVariance(double t0, int n) {
  CHECK_GT(n, 0);
  const double dn = static_cast<double>(n);
  return t0 * t0 / (dn * (dn + 2.0));
}

double MeanEstimate(const double* samples, int n) {
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    sum += samples[i];
  }
  return 2.0 * sum / static_cast<double>(n);
}

double MaxEstimate(const double* samples, int n) {
  double max = 0;
  for (int i = 0; i < n; ++i) {
    max = std::max(max, samples[i]);
  }
  return (static_cast<double>(n) + 1.0) / static_cast<double>(n) * max;
}

namespace {
template <typename EstimateFn>
EstimatorMoments Simulate(double t0, int n, int trials, Rng& rng, EstimateFn estimate) {
  RunningStats stats;
  std::vector<double> samples(static_cast<size_t>(n));
  for (int trial = 0; trial < trials; ++trial) {
    for (double& sample : samples) {
      sample = rng.NextDouble() * t0;
    }
    stats.Add(estimate(samples.data(), n));
  }
  return EstimatorMoments{stats.mean(), stats.variance()};
}
}  // namespace

EstimatorMoments SimulateMeanEstimator(double t0, int n, int trials, Rng& rng) {
  return Simulate(t0, n, trials, rng, MeanEstimate);
}

EstimatorMoments SimulateMaxEstimator(double t0, int n, int trials, Rng& rng) {
  return Simulate(t0, n, trials, rng, MaxEstimate);
}

double MissClassifiedColdMass(const std::function<double(double)>& density, int n,
                              double upper_limit, int steps) {
  // Composite midpoint rule over [1, upper_limit]; the integrand decays like x^{-n}.
  const double width = (upper_limit - 1.0) / static_cast<double>(steps);
  double sum = 0;
  for (int i = 0; i < steps; ++i) {
    const double x = 1.0 + (static_cast<double>(i) + 0.5) * width;
    sum += density(x) * det_math::Pow(1.0 / x, n);
  }
  return sum * width;
}

double SelectionEfficiency(const std::function<double(double)>& density, int n,
                           double upper_limit) {
  const double s = MissClassifiedColdMass(density, n, upper_limit);
  const double r = 1.0 / (1.0 + s);
  return r / static_cast<double>(n);
}

double UniformSelectionEfficiency(int n) {
  CHECK_GE(n, 1);
  return (static_cast<double>(n) - 1.0) / (static_cast<double>(n) * static_cast<double>(n));
}

HotnessDensity::HotnessDensity(double alpha) : alpha_(alpha), c_alpha_(1.0) {
  CHECK(alpha > 0.0 && alpha <= 1.0) << "alpha=" << alpha;
  // Normalize over (0, 1]: C_α = ∫_0^1 raw(x) dx (midpoint rule; the integrand is smooth
  // away from 0 and integrable at 0 for the valid α range).
  const int steps = 1 << 16;
  const double width = 1.0 / static_cast<double>(steps);
  double sum = 0;
  for (int i = 0; i < steps; ++i) {
    const double x = (static_cast<double>(i) + 0.5) * width;
    sum += Raw(x);
  }
  c_alpha_ = sum * width;
}

double HotnessDensity::Raw(double x) const {
  if (x <= 0.0) {
    return 0.0;
  }
  // x^{1 - 1/α} · α^{αx + 1/(αx)}
  const double exponent = alpha_ * x + 1.0 / (alpha_ * x);
  return det_math::Pow(x, 1.0 - 1.0 / alpha_) * det_math::Pow(alpha_, exponent);
}

double HotnessDensity::operator()(double x) const { return Raw(x) / c_alpha_; }

}  // namespace chronotier
