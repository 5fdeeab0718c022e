// Unit tests for src/common: rng, histograms, stats, xarray, time formatting, tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/time.h"
#include "src/common/xarray.h"

namespace chronotier {
namespace {

// --- time ---

TEST(TimeTest, Constants) {
  EXPECT_EQ(kMicrosecond, 1000);
  EXPECT_EQ(kMillisecond, 1000 * 1000);
  EXPECT_EQ(kSecond, 1000ll * 1000 * 1000);
  EXPECT_EQ(kMinute, 60 * kSecond);
}

TEST(TimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(kSecond), 1000.0);
  EXPECT_EQ(FromSeconds(2.5), 2 * kSecond + 500 * kMillisecond);
  EXPECT_EQ(FromMilliseconds(1.5), kMillisecond + 500 * kMicrosecond);
}

TEST(TimeTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(500), "500ns");
  EXPECT_EQ(FormatDuration(1500), "1.500us");
  EXPECT_EQ(FormatDuration(2 * kMillisecond), "2.000ms");
  EXPECT_EQ(FormatDuration(3 * kSecond), "3.000s");
  EXPECT_EQ(FormatDuration(-1500), "-1.500us");
}

// --- rng ---

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextBelowRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    counts[rng.NextBelow(kBuckets)]++;
  }
  for (int count : counts) {
    EXPECT_NEAR(count, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(rng.NextExponential(4.0));
  }
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t x = rng.NextInRange(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= x == -3;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(ZipfTest, SkewOrdersRanks) {
  Rng rng(17);
  ZipfSampler zipf(1000, 0.99);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 200000; ++i) {
    const uint64_t rank = zipf.Sample(rng);
    ASSERT_LT(rank, 1000u);
    counts[rank]++;
  }
  // Rank 0 should dominate rank 10 which dominates rank 100.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
  // Rough zipf shape: counts[0]/counts[9] ~ 10^0.99 within loose factor bounds.
  EXPECT_GT(static_cast<double>(counts[0]) / counts[9], 4.0);
}

// The table-driven sampler must be the reference rejection-inversion loop, draw for draw:
// same ranks, same RNG consumption. Covers every (n, s) the repo configures, the s = 1
// log/exp branch, the degenerate n = 1 and n = 2, and an n above the table cap (where
// Sample runs Attempt on every draw).
struct ZipfCase {
  uint64_t n;
  double s;
};

// Configured: tenant popularity 16 and 64 at 1.05; key spaces 192, 512, fig15's 1536 / N
// for N in {1, 4, 8, 16, 64}, and ZipfStream's 1000 and default 4096 pages at 0.99;
// fig15's 768-item victim at 0.2.
constexpr ZipfCase kZipfCases[] = {
    {16, 1.05},   {64, 1.05},  {192, 0.99}, {512, 0.99},  {1536, 0.99},
    {384, 0.99},  {96, 0.99},  {24, 0.99},  {1000, 0.99}, {4096, 0.99},
    {768, 0.2},   {1, 0.99},   {2, 0.99},   {300, 1.0},   {ZipfTable::kMaxN + 1, 0.99},
};

uint64_t ReferenceSample(const ZipfSampler& zipf, Rng& rng) {
  uint64_t rank = 0;
  while (!zipf.Attempt(rng.Next() >> 11, &rank)) {
  }
  return rank;
}

TEST(ZipfTest, TableSamplerMatchesReferenceLoop) {
  for (const ZipfCase& c : kZipfCases) {
    const ZipfSampler zipf(c.n, c.s);
    EXPECT_EQ(zipf.table() != nullptr, c.n <= ZipfTable::kMaxN);
    Rng table_rng(c.n * 7919 + 1);
    Rng reference_rng(c.n * 7919 + 1);
    for (int i = 0; i < 10'000'000; ++i) {
      const uint64_t expected = ReferenceSample(zipf, reference_rng);
      const uint64_t actual = zipf.Sample(table_rng);
      if (actual != expected) {
        FAIL() << "n=" << c.n << " s=" << c.s << ": draw " << i << " gave rank " << actual
               << ", reference " << expected;
      }
    }
    EXPECT_EQ(table_rng.Next(), reference_rng.Next()) << "RNG streams drifted apart";
  }
}

TEST(ZipfTest, TableMatchesAttemptAroundEveryBoundary) {
  constexpr uint64_t kSpan = uint64_t{1} << 53;
  constexpr uint64_t kReach = 4 * ZipfTable::kGuard;
  for (const ZipfCase& c : kZipfCases) {
    const ZipfSampler zipf(c.n, c.s);
    const ZipfTable* table = zipf.table();
    if (table == nullptr) {
      continue;
    }
    uint64_t mismatches = 0;
    for (size_t piece = 0; piece < table->pieces(); ++piece) {
      const uint64_t boundary = table->piece_start(piece);
      const uint64_t lo = boundary > kReach ? boundary - kReach : 0;
      const uint64_t hi = std::min(boundary + kReach, kSpan - 1);
      for (uint64_t r = lo; r <= hi; ++r) {
        uint64_t table_rank = ~uint64_t{0};
        uint64_t exact_rank = ~uint64_t{0};
        const bool table_accepts = zipf.Lookup(r, &table_rank);
        const bool exact_accepts = zipf.Attempt(r, &exact_rank);
        if (table_accepts != exact_accepts || (exact_accepts && table_rank != exact_rank)) {
          ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "n=" << c.n << " s=" << c.s;
    // Both ends of the input range, which no boundary may straddle.
    for (const uint64_t r : {uint64_t{0}, kSpan - 1}) {
      uint64_t table_rank = 0;
      uint64_t exact_rank = 0;
      EXPECT_EQ(zipf.Lookup(r, &table_rank), zipf.Attempt(r, &exact_rank));
    }
  }
}

TEST(ZipfTest, TablesAreSharedPerParameterPair) {
  const ZipfSampler a(192, 0.99);
  const ZipfSampler b(192, 0.99);
  const ZipfSampler c(192, 0.98);
  EXPECT_EQ(a.table(), b.table());
  EXPECT_NE(a.table(), c.table());
  // Roughly two boundaries per rank, each with a guard piece and a constant piece.
  EXPECT_LE(a.table()->pieces(), 6u * 192u + 1u);
}

TEST(ZipfTest, ConcurrentSamplersShareOneTable) {
  // Runner threads construct samplers concurrently; they must all land on one table.
  std::array<const ZipfTable*, 4> seen{};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&seen, i] { seen[i] = ZipfSampler(777, 0.93).table(); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  ASSERT_NE(seen[0], nullptr);
  for (const ZipfTable* table : seen) {
    EXPECT_EQ(table, seen[0]);
  }
}

// --- histograms ---

TEST(Log2HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Log2Histogram::BucketFor(0), 0);
  EXPECT_EQ(Log2Histogram::BucketFor(1), 1);
  EXPECT_EQ(Log2Histogram::BucketFor(2), 2);
  EXPECT_EQ(Log2Histogram::BucketFor(3), 2);
  EXPECT_EQ(Log2Histogram::BucketFor(4), 3);
  EXPECT_EQ(Log2Histogram::BucketFor(1023), 10);
  EXPECT_EQ(Log2Histogram::BucketFor(1024), 11);
}

TEST(Log2HistogramTest, PaperBucketSemantics) {
  // Section 4: the i-th bucket holds CIT values in [2^(i-1), 2^i) ms.
  for (int i = 1; i < 20; ++i) {
    EXPECT_EQ(Log2Histogram::BucketFor(Log2Histogram::BucketLowerBound(i)), i);
    EXPECT_EQ(Log2Histogram::BucketFor(Log2Histogram::BucketUpperBound(i) - 1), i);
  }
}

TEST(Log2HistogramTest, AddAndTotal) {
  Log2Histogram hist(28);
  hist.Add(0);
  hist.Add(1);
  hist.Add(100, 5);
  EXPECT_EQ(hist.total(), 7u);
  EXPECT_EQ(hist.bucket_count(0), 1u);
  EXPECT_EQ(hist.bucket_count(1), 1u);
  EXPECT_EQ(hist.bucket_count(Log2Histogram::BucketFor(100)), 5u);
}

TEST(Log2HistogramTest, OverflowClampsToLastBucket) {
  Log2Histogram hist(4);
  hist.Add(1ull << 40);
  EXPECT_EQ(hist.bucket_count(3), 1u);
}

TEST(Log2HistogramTest, TransferValue) {
  Log2Histogram hist(28);
  hist.Add(4);
  hist.TransferValue(4, 5);  // Same bucket: no-op.
  EXPECT_EQ(hist.bucket_count(3), 1u);
  hist.TransferValue(5, 8);  // Bucket 3 -> 4.
  EXPECT_EQ(hist.bucket_count(3), 0u);
  EXPECT_EQ(hist.bucket_count(4), 1u);
  EXPECT_EQ(hist.total(), 1u);
}

TEST(Log2HistogramTest, ShiftDownOneMatchesHalving) {
  Log2Histogram shifted(28);
  Log2Histogram direct(28);
  Rng rng(23);
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(rng.NextBelow(100000));
  }
  for (uint64_t v : values) {
    shifted.Add(v);
    direct.Add(v / 2);
  }
  shifted.ShiftDownOne();
  for (int b = 0; b < 28; ++b) {
    // Halving moves bucket i exactly to i-1 except the 1 -> 0 edge, handled identically.
    EXPECT_EQ(shifted.bucket_count(b), direct.bucket_count(b)) << "bucket " << b;
  }
}

TEST(Log2HistogramTest, QuantileInterpolates) {
  Log2Histogram hist(28);
  for (int i = 0; i < 1000; ++i) {
    hist.Add(64);  // All mass in bucket 7: [64, 128).
  }
  const double median = hist.Quantile(0.5);
  EXPECT_GE(median, 64.0);
  EXPECT_LE(median, 128.0);
}

TEST(Log2HistogramTest, CumulativeAndMerge) {
  Log2Histogram a(8);
  Log2Histogram b(8);
  a.Add(1);
  a.Add(2);
  b.Add(2);
  b.Add(100);
  a.Merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.CumulativeCount(2), 3u);
  EXPECT_EQ(a.BucketForCumulativeCount(4), 7);
}

TEST(LinearHistogramTest, Basics) {
  LinearHistogram hist(0.0, 10.0, 10);
  hist.Add(0.5);
  hist.Add(9.99);
  hist.Add(-5.0);   // Clamps to first bucket.
  hist.Add(100.0);  // Clamps to last bucket.
  EXPECT_EQ(hist.bucket_count(0), 2u);
  EXPECT_EQ(hist.bucket_count(9), 2u);
  EXPECT_EQ(hist.total(), 4u);
  EXPECT_DOUBLE_EQ(hist.bucket_center(0), 0.5);
}

// --- stats ---

TEST(RunningStatsTest, MeanVariance) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(x);
  }
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(ClassificationStatsTest, F1) {
  ClassificationStats stats;
  stats.true_positives = 80;
  stats.false_positives = 20;
  stats.false_negatives = 20;
  EXPECT_DOUBLE_EQ(stats.Precision(), 0.8);
  EXPECT_DOUBLE_EQ(stats.Recall(), 0.8);
  EXPECT_DOUBLE_EQ(stats.F1(), 0.8);
}

TEST(ClassificationStatsTest, EmptyIsZero) {
  ClassificationStats stats;
  EXPECT_DOUBLE_EQ(stats.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(stats.F1(), 0.0);
}

TEST(ReservoirTest, ExactWhenSmall) {
  ReservoirSampler sampler(100);
  for (int i = 1; i <= 100; ++i) {
    sampler.Add(i);
  }
  EXPECT_NEAR(sampler.Percentile(50), 50.5, 1.0);
  EXPECT_NEAR(sampler.Percentile(99), 100.0, 2.0);
  EXPECT_DOUBLE_EQ(sampler.Mean(), 50.5);
}

TEST(ReservoirTest, ApproximatesWhenOverflowing) {
  ReservoirSampler sampler(1024, 3);
  for (int i = 0; i < 100000; ++i) {
    sampler.Add(i % 1000);
  }
  EXPECT_EQ(sampler.size(), 1024u);
  EXPECT_EQ(sampler.seen(), 100000u);
  EXPECT_NEAR(sampler.Percentile(50), 500.0, 60.0);
}

// --- xarray ---

TEST(XArrayTest, StoreLoadErase) {
  XArray<int> xa;
  EXPECT_TRUE(xa.empty());
  xa.Store(5, 50);
  xa.Store(1000000, 7);
  EXPECT_EQ(xa.size(), 2u);
  ASSERT_NE(xa.Load(5), nullptr);
  EXPECT_EQ(*xa.Load(5), 50);
  ASSERT_NE(xa.Load(1000000), nullptr);
  EXPECT_EQ(*xa.Load(1000000), 7);
  EXPECT_EQ(xa.Load(6), nullptr);

  auto removed = xa.Erase(5);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, 50);
  EXPECT_EQ(xa.Load(5), nullptr);
  EXPECT_EQ(xa.size(), 1u);
  EXPECT_FALSE(xa.Erase(5).has_value());
}

TEST(XArrayTest, OverwriteKeepsSize) {
  XArray<int> xa;
  xa.Store(42, 1);
  xa.Store(42, 2);
  EXPECT_EQ(xa.size(), 1u);
  EXPECT_EQ(*xa.Load(42), 2);
}

TEST(XArrayTest, KeyZeroAndHugeKeys) {
  XArray<uint64_t> xa;
  xa.Store(0, 10);
  xa.Store(~0ull, 20);
  EXPECT_EQ(*xa.Load(0), 10u);
  EXPECT_EQ(*xa.Load(~0ull), 20u);
  EXPECT_EQ(xa.size(), 2u);
}

TEST(XArrayTest, ForEachAscending) {
  XArray<int> xa;
  const uint64_t keys[] = {77, 3, 1 << 20, 500};
  for (uint64_t key : keys) {
    xa.Store(key, static_cast<int>(key));
  }
  std::vector<uint64_t> seen;
  xa.ForEach([&seen](uint64_t key, int& value) {
    EXPECT_EQ(static_cast<uint64_t>(value), key);
    seen.push_back(key);
  });
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(XArrayTest, RandomizedAgainstReference) {
  XArray<uint64_t> xa;
  std::set<uint64_t> reference;
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBelow(5000);
    if (rng.NextBool(0.6)) {
      xa.Store(key, key * 3);
      reference.insert(key);
    } else {
      const bool had = reference.erase(key) > 0;
      EXPECT_EQ(xa.Erase(key).has_value(), had);
    }
  }
  EXPECT_EQ(xa.size(), reference.size());
  for (uint64_t key : reference) {
    ASSERT_NE(xa.Load(key), nullptr) << key;
    EXPECT_EQ(*xa.Load(key), key * 3);
  }
}

TEST(XArrayTest, MemoryShrinksOnErase) {
  XArray<int> xa;
  for (uint64_t i = 0; i < 4096; ++i) {
    xa.Store(i * 64, 1);  // Spread across many nodes.
  }
  const size_t peak = xa.MemoryUsageBytes();
  for (uint64_t i = 0; i < 4096; ++i) {
    xa.Erase(i * 64);
  }
  EXPECT_TRUE(xa.empty());
  EXPECT_LT(xa.MemoryUsageBytes(), peak / 10);
}

TEST(XArrayTest, CandidateSetStaysSmall) {
  // The paper claims <32 KB per process for the candidate XArray; a dense run of a few
  // thousand candidate pages should stay well inside that.
  XArray<uint32_t> xa;
  for (uint64_t i = 0; i < 2048; ++i) {
    xa.Store(0x100000 + i, 1);
  }
  EXPECT_LT(xa.MemoryUsageBytes(), 32u * 1024);
}

TEST(XArrayTest, MoveSemantics) {
  XArray<int> a;
  a.Store(9, 90);
  XArray<int> b = std::move(a);
  ASSERT_NE(b.Load(9), nullptr);
  EXPECT_EQ(*b.Load(9), 90);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): moved-from is valid empty.
}

// --- table ---

TEST(TableTest, RendersAligned) {
  TextTable table({"name", "value"});
  table.AddRow({"x", TextTable::Num(1.5)});
  table.AddRow({"longer-name", TextTable::Int(42)});
  const std::string out = table.Render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_EQ(TextTable::Percent(0.5), "50.0%");
}

}  // namespace
}  // namespace chronotier
