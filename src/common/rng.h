// Deterministic pseudo-random number generation.
//
// Every stochastic component in the simulator (workload generators, the DCSC victim sampler,
// the PEBS model) draws from an explicitly seeded Rng so that experiments and tests are
// bit-for-bit reproducible. The generator is xoshiro256** seeded via splitmix64, which is
// fast, has a 2^256-1 period, and passes BigCrush; std::mt19937 is avoided because its state
// is large and its distributions are not stable across standard library implementations.

#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/det_math.h"

namespace chronotier {

// Stateless 64-bit mix used for seeding and hashing.
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// xoshiro256** generator with helper distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& word : state_) {
      x = SplitMix64(x);
      word = x;
    }
    has_gaussian_ = false;
  }

  // Uniform over [0, 2^64).
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform over [0, bound); bound == 0 returns 0. Uses Lemire's multiply-shift reduction.
  uint64_t NextBelow(uint64_t bound) {
    if (bound == 0) {
      return 0;
    }
    return static_cast<uint64_t>((static_cast<__uint128_t>(Next()) * bound) >> 64);
  }

  // Uniform over [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // True with probability p.
  bool NextBool(double p) { return NextDouble() < p; }

  // One accepted point of the Marsaglia polar method: u, then v, drawn uniform on
  // (-1, 1) until s = u*u + v*v lies in (0, 1).
  struct PolarPoint {
    double u;
    double v;
    double s;
  };
  PolarPoint NextPolarPoint() {
    PolarPoint p{};
    do {
      p.u = 2.0 * NextDouble() - 1.0;
      p.v = 2.0 * NextDouble() - 1.0;
      p.s = p.u * p.u + p.v * p.v;
    } while (p.s >= 1.0 || p.s == 0.0);
    return p;
  }

  // Scales an accepted point to a pair of independent standard normals:
  // u * PolarFactor(s) and v * PolarFactor(s).
  static double PolarFactor(double s) { return std::sqrt(-2.0 * det_math::Log(s) / s); }

  // Standard normal: the pending second value of the last pair if there is one, else the
  // first value of a new pair, whose second value becomes pending.
  double NextGaussian() {
    double value = 0;
    if (TakePendingGaussian(&value)) {
      return value;
    }
    const PolarPoint p = NextPolarPoint();
    const double factor = PolarFactor(p.s);
    SetPendingGaussian(p.v * factor);
    return p.u * factor;
  }

  // The pending second value of a pair carries across calls, so a caller that draws
  // points itself (PmbenchStream, a slot at a time) takes and leaves it here, and a
  // Gaussian sequence does not depend on how its draws were batched.
  bool TakePendingGaussian(double* value) {
    if (!has_gaussian_) {
      return false;
    }
    has_gaussian_ = false;
    *value = cached_gaussian_;
    return true;
  }
  void SetPendingGaussian(double value) {
    cached_gaussian_ = value;
    has_gaussian_ = true;
  }

  // Exponential with the given mean.
  double NextExponential(double mean) {
    double u = NextDouble();
    if (u <= 0.0) {
      u = 0x1.0p-53;
    }
    return -mean * det_math::Log(u);
  }

 private:
  static constexpr uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4] = {};
  bool has_gaussian_ = false;
  double cached_gaussian_ = 0;
};

class ZipfSampler;

// The outcome of one ZipfSampler rejection-inversion attempt, tabulated over its 53-bit
// uniform input r. An attempt maps r to "accept rank k" or "reject", and that map is a
// step function of r with about 2n steps (each rank's accept span, then its reject
// span), so a sorted list of pieces answers it with one bucket load and a short forward
// scan instead of one to three std::pow calls. The table is exact by construction: every
// r within a guard band of a step boundary — where floating-point rounding makes the
// boundary's position uncertain — is marked kExact and recomputed by Attempt(r), and the
// builder verifies every constant piece at both edges against Attempt before it trusts
// it. Tables are immutable and shared process-wide per (n, s); see ZipfSampler.
class ZipfTable {
 public:
  // Piece outcome codes: below kReject is an accepted 0-based rank.
  static constexpr uint32_t kReject = 0xFFFFFFFEu;
  static constexpr uint32_t kExact = 0xFFFFFFFFu;
  // Largest n tabulated; above it every draw runs Attempt().
  static constexpr uint64_t kMaxN = 4096;
  // Initial half-width of the guard band around each boundary, in steps of r. A seeded
  // boundary whose edge check fails has its band doubled until the check passes.
  static constexpr uint64_t kGuard = 64;

  // Builds the table for `sampler`'s (n, s), bypassing the shared cache. n <= kMaxN.
  static std::shared_ptr<const ZipfTable> Build(const ZipfSampler& sampler);

  // Outcome code of the piece holding r (r < 2^53).
  uint32_t Outcome(uint64_t r) const {
    size_t piece = bucket_first_[r >> bucket_shift_];
    while (starts_[piece + 1] <= r) {
      ++piece;
    }
    return outcomes_[piece];
  }

  size_t pieces() const { return outcomes_.size(); }
  // Piece boundaries are where Outcome() could disagree with Attempt(); no draw names them.
  // detlint:allow(dead-symbol) ZipfTest.TableMatchesAttemptAroundEveryBoundary needs it
  uint64_t piece_start(size_t piece) const { return starts_[piece]; }

 private:
  ZipfTable() = default;

  std::vector<uint64_t> starts_;  // pieces() + 1 entries; the last is the 2^53 sentinel.
  std::vector<uint32_t> outcomes_;
  // bucket_first_[b] is the piece holding r = b << bucket_shift_.
  std::vector<uint32_t> bucket_first_;
  int bucket_shift_ = 53;
};

// Zipf(s) sampler over {0, ..., n-1} using rejection-inversion (Hörmann & Derflinger).
// Suitable for the skewed key-popularity distributions used by the KV-store workloads.
//
// Attempt() is the one copy of the algorithm. Sample() draws r = Next() >> 11 (the bits
// NextDouble uses) until an attempt accepts, answering each attempt from the shared
// ZipfTable when n <= ZipfTable::kMaxN; the ranks and the RNG draws are bit-identical to
// calling Attempt() directly.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s);

  uint64_t Sample(Rng& rng) const {
    uint64_t rank = 0;
    while (!Lookup(rng.Next() >> 11, &rank)) {
    }
    return rank;
  }

  // One rejection-inversion attempt on the 53-bit uniform r. Sets *rank to the candidate
  // rank and returns whether the attempt accepts it.
  bool Attempt(uint64_t r, uint64_t* rank) const;

  // Attempt(r) answered from the table where there is one (*rank is set only when the
  // attempt accepts).
  bool Lookup(uint64_t r, uint64_t* rank) const {
    if (table_ != nullptr) {
      const uint32_t outcome = table_->Outcome(r);
      if (outcome < ZipfTable::kReject) {
        *rank = outcome;
        return true;
      }
      if (outcome == ZipfTable::kReject) {
        return false;
      }
    }
    return Attempt(r, rank);
  }

  uint64_t n() const { return n_; }
  double s() const { return s_; }
  const ZipfTable* table() const { return table_.get(); }

 private:
  friend class ZipfTable;

  double H(double x) const;
  double HInverse(double x) const;

  uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double threshold_;
  std::shared_ptr<const ZipfTable> table_;  // Null above ZipfTable::kMaxN.
};

}  // namespace chronotier
