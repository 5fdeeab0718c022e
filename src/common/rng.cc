#include "src/common/rng.h"

#include <algorithm>
#include <bit>
#include <map>
#include <mutex>
#include <utility>

#include "src/common/check.h"
#include "src/common/det_math.h"

namespace chronotier {

namespace {

constexpr uint64_t kSpan = uint64_t{1} << 53;  // Attempt inputs r lie in [0, kSpan).
// A boundary whose guard band grows this wide without passing its edge checks is
// re-seeded, once, by bisection over the whole input range.
constexpr uint64_t kBisectAfter = uint64_t{1} << 20;

// Attempt outcomes in the order they occur as r rises: r = 0 is the top of the H range
// (the coldest rank), so the sequence runs accept n-1, reject at n-1, accept n-2, ...,
// accept 0, reject at 0. Position p starts at table boundary p.
uint64_t Position(const ZipfSampler& sampler, uint64_t r) {
  uint64_t rank = 0;
  const bool accepted = sampler.Attempt(r, &rank);
  return 2 * (sampler.n() - 1 - rank) + (accepted ? 0 : 1);
}

uint32_t OutcomeAt(uint64_t n, uint64_t position) {
  return position % 2 == 0 ? static_cast<uint32_t>(n - 1 - position / 2) : ZipfTable::kReject;
}

// Smallest r with Position(r) >= p, if Position is monotone in r.
uint64_t Bisect(const ZipfSampler& sampler, uint64_t p) {
  uint64_t lo = 0;
  uint64_t hi = kSpan;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (Position(sampler, mid) >= p) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Runner threads construct samplers concurrently; tables are immutable once built.
std::shared_ptr<const ZipfTable> SharedTable(const ZipfSampler& sampler) {
  static std::mutex mu;
  static std::map<std::pair<uint64_t, uint64_t>, std::shared_ptr<const ZipfTable>> cache;
  const std::pair<uint64_t, uint64_t> key{sampler.n(), std::bit_cast<uint64_t>(sampler.s())};
  const std::lock_guard<std::mutex> lock(mu);
  std::shared_ptr<const ZipfTable>& slot = cache[key];
  if (slot == nullptr) {
    slot = ZipfTable::Build(sampler);
  }
  return slot;
}

}  // namespace

ZipfSampler::ZipfSampler(uint64_t n, double s) : n_(n == 0 ? 1 : n), s_(s) {
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n_) + 0.5);
  threshold_ = 2.0 - HInverse(H(2.5) - det_math::Pow(2.0, -s_));
  if (n_ <= ZipfTable::kMaxN) {
    table_ = SharedTable(*this);
  }
}

double ZipfSampler::H(double x) const {
  // Integral of x^-s, the continuous analogue of the zeta partial sum.
  if (s_ == 1.0) {
    return det_math::Log(x);
  }
  return (det_math::Pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfSampler::HInverse(double x) const {
  if (s_ == 1.0) {
    return det_math::Exp(x);
  }
  return det_math::Pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

bool ZipfSampler::Attempt(uint64_t r, uint64_t* rank) const {
  const double u = h_n_ + (static_cast<double>(r) * 0x1.0p-53) * (h_x1_ - h_n_);
  const double x = HInverse(u);
  const auto k = static_cast<uint64_t>(std::clamp(x + 0.5, 1.0, static_cast<double>(n_)));
  *rank = k - 1;
  if (static_cast<double>(k) - x <= threshold_) {
    return true;
  }
  return u >= H(static_cast<double>(k) + 0.5) - det_math::Pow(static_cast<double>(k), -s_);
}

std::shared_ptr<const ZipfTable> ZipfTable::Build(const ZipfSampler& sampler) {
  const uint64_t n = sampler.n_;
  CHECK_LE(n, kMaxN) << "Zipf tables stop at n = " << kMaxN;
  const uint64_t last = 2 * n - 1;  // Boundaries p = 1 .. last.

  // Seed each boundary from the analytic inverse: rank k's accept span begins where
  // x = HInverse(u) falls below k + 1/2, and its reject span where u falls below both
  // acceptance tests' thresholds. Map that u back to r.
  const auto to_r = [&sampler](double u) -> uint64_t {
    const double r = (u - sampler.h_n_) / (sampler.h_x1_ - sampler.h_n_) * 0x1.0p53;
    if (!(r > 0.0)) {
      return 0;  // Also catches NaN; the edge checks below repair a bad seed.
    }
    return r >= 0x1.0p53 ? kSpan : static_cast<uint64_t>(r);
  };
  std::vector<uint64_t> seed(last + 1, 0);
  for (uint64_t p = 1; p <= last; ++p) {
    const auto k = static_cast<double>(n - p / 2);
    const double rank_start = sampler.H(k + 0.5);
    seed[p] = to_r(p % 2 == 0 ? rank_start
                              : std::min(sampler.H(k - sampler.threshold_),
                                         rank_start - det_math::Pow(k, -sampler.s_)));
  }
  const auto make_monotone = [&seed, last] {
    for (uint64_t p = last - 1; p >= 1; --p) {
      seed[p] = std::min(seed[p], seed[p + 1]);  // An empty reject span.
    }
    for (uint64_t p = 2; p <= last; ++p) {
      seed[p] = std::max(seed[p], seed[p - 1]);
    }
  };
  make_monotone();

  // Guard bands around the seeds, merged where they overlap, are exact regions; the gaps
  // between them hold one known outcome. Check each gap's two edges against Attempt and
  // widen the neighbouring bands until every check passes.
  struct Region {
    uint64_t lo, hi;      // [lo, hi) in r.
    uint64_t first, end;  // Boundaries [first, end) inside.
  };
  std::vector<uint64_t> guard(last + 1, kGuard);
  std::vector<bool> bisected(last + 1, false);
  std::vector<Region> regions;
  while (true) {
    regions.clear();
    for (uint64_t p = 1; p <= last; ++p) {
      Region next{seed[p] > guard[p] ? seed[p] - guard[p] : 0,
                  std::min(seed[p] + guard[p] + 1, kSpan), p, p + 1};
      while (!regions.empty() && next.lo <= regions.back().hi) {
        const Region& prev = regions.back();
        next = Region{std::min(next.lo, prev.lo), std::max(next.hi, prev.hi), prev.first,
                      next.end};
        regions.pop_back();
      }
      regions.push_back(next);
    }
    std::vector<size_t> widen;
    uint64_t gap_lo = 0;
    for (size_t j = 0; j <= regions.size(); ++j) {
      const uint64_t gap_hi = j < regions.size() ? regions[j].lo : kSpan;
      const uint64_t expected = j == 0 ? 0 : regions[j - 1].end - 1;
      if (gap_lo < gap_hi && (Position(sampler, gap_lo) != expected ||
                              Position(sampler, gap_hi - 1) != expected)) {
        if (j > 0) {
          widen.push_back(j - 1);
        }
        if (j < regions.size()) {
          widen.push_back(j);
        }
      }
      gap_lo = j < regions.size() ? regions[j].hi : kSpan;
    }
    if (widen.empty()) {
      break;
    }
    widen.erase(std::unique(widen.begin(), widen.end()), widen.end());
    bool reseeded = false;
    for (const size_t j : widen) {
      for (uint64_t p = regions[j].first; p < regions[j].end; ++p) {
        if (guard[p] >= kBisectAfter && !bisected[p]) {
          seed[p] = Bisect(sampler, p);
          guard[p] = kGuard;
          bisected[p] = true;
          reseeded = true;
        } else {
          guard[p] = std::min(2 * guard[p], kSpan);
        }
      }
    }
    if (reseeded) {
      make_monotone();
    }
  }

  ZipfTable table;
  uint64_t gap_lo = 0;
  for (size_t j = 0; j <= regions.size(); ++j) {
    const uint64_t gap_hi = j < regions.size() ? regions[j].lo : kSpan;
    if (gap_lo < gap_hi) {
      table.starts_.push_back(gap_lo);
      table.outcomes_.push_back(OutcomeAt(n, j == 0 ? 0 : regions[j - 1].end - 1));
    }
    if (j < regions.size()) {
      table.starts_.push_back(regions[j].lo);
      table.outcomes_.push_back(kExact);
      gap_lo = regions[j].hi;
    }
  }
  table.starts_.push_back(kSpan);

  // About two buckets per piece keeps the forward scan under one step on average (r is
  // uniform, so the expected scan is pieces / buckets whatever the piece widths).
  int bits = 1;
  while ((uint64_t{1} << bits) < 2 * table.pieces() && bits < 20) {
    ++bits;
  }
  table.bucket_shift_ = 53 - bits;
  table.bucket_first_.resize(size_t{1} << bits);
  uint32_t piece = 0;
  for (size_t b = 0; b < table.bucket_first_.size(); ++b) {
    const uint64_t r = static_cast<uint64_t>(b) << table.bucket_shift_;
    while (table.starts_[piece + 1] <= r) {
      ++piece;
    }
    table.bucket_first_[b] = piece;
  }
  return std::make_shared<const ZipfTable>(std::move(table));
}

}  // namespace chronotier
