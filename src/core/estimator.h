// Appendix B theory: CIT estimators and promotion-efficiency analysis.
//
// B.1 — With n i.i.d. CIT samples t_i ~ U[0, T0], the mean-value estimator
//       T1 = (2/n)·Σt_i has variance T0²/(3n), while the max-value estimator
//       T2 = ((n+1)/n)·max t_i has variance T0²/(n(n+2)) — strictly lower, and in fact the
//       MVUE (Lehmann–Scheffé). The candidate filter is equivalent to classifying on the
//       max, hence its stability.
// B.2 — Promotion efficiency E_f(n) = R_f(n)/n where R_f is the real-hot-page ratio under
//       an n-round filter. For the uniform density, E(n) = (n-1)/n², maximized at n = 2;
//       for the paper's density family h(x, α) numeric integration shows n = 2 wins across
//       realistic α (Fig. B2).

#pragma once

#include <cstdint>
#include <functional>

#include "src/common/rng.h"

namespace chronotier {

// --- closed-form moments (Appendix B.1) ---

// Variance of the mean-value estimator T1 for n samples of a page with period t0.
double MeanEstimatorVariance(double t0, int n);

// Variance of the max-value estimator T2.
double MaxEstimatorVariance(double t0, int n);

// Point estimates from concrete samples (both unbiased).
double MeanEstimate(const double* samples, int n);
double MaxEstimate(const double* samples, int n);

// Monte-Carlo check: draws `trials` n-sample experiments with the given period and returns
// the empirical (mean, variance) of the chosen estimator. Used by tests and the theory
// bench to confirm the closed forms.
struct EstimatorMoments {
  double mean = 0;
  double variance = 0;
};
EstimatorMoments SimulateMeanEstimator(double t0, int n, int trials, Rng& rng);
EstimatorMoments SimulateMaxEstimator(double t0, int n, int trials, Rng& rng);

// --- selection efficiency (Appendix B.2) ---

// S_f(n) = ∫_1^∞ f(x)·x^{-n} dx for a caller-supplied normalized density f (eq. 9).
double MissClassifiedColdMass(const std::function<double(double)>& density, int n,
                              double upper_limit = 64.0, int steps = 1 << 16);

// R_f(n) = 1 / (1 + S_f(n)); E_f(n) = R_f(n)/n (eqs. 9-10).
double SelectionEfficiency(const std::function<double(double)>& density, int n,
                           double upper_limit = 64.0);

// Closed form for the uniform density (eq. 12): E(n) = (n-1)/n².
double UniformSelectionEfficiency(int n);

// The paper's page-density family h(x, α) = (1/C_α)·x^{1-1/α}·α^{αx + 1/(αx)}, normalized so
// ∫_0^1 h = 1 (eq. 11). Valid for 0 < α <= 1.
class HotnessDensity {
 public:
  explicit HotnessDensity(double alpha);

  double operator()(double x) const;
  double alpha() const { return alpha_; }

 private:
  double Raw(double x) const;

  double alpha_;
  double c_alpha_;
};

}  // namespace chronotier
