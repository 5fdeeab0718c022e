// Micro-benchmarks (google-benchmark) for the mechanisms whose low overhead the paper's
// design leans on: CIT bookkeeping is "timestamp recording and basic arithmetic", the
// candidate XArray is "low-latency access and minimal memory consumption", and the DCSC
// heat maps are simple bucket updates.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/common/check.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/xarray.h"
#include "src/core/candidate_filter.h"
#include "src/core/cit.h"
#include "src/core/estimator.h"
#include "src/core/promotion_queue.h"
#include "src/core/standard_policies.h"
#include "src/harness/machine.h"
#include "src/migration/migration_engine.h"
#include "src/sim/event_queue.h"
#include "src/vm/address_space.h"
#include "src/vm/page_arena.h"
#include "src/vm/scanner.h"
#include "src/workloads/patterns.h"
#include "src/workloads/pmbench.h"

namespace ct = chronotier;

// Global allocation counter: every `new` in the binary routes through here, so a
// benchmark can assert a region of code is allocation-free (the event core's contract).
// Counting is the only side effect — allocation still comes from malloc. All six are kept
// out of line: inlined into a caller, one half of a new/delete pair shows gcc malloc or
// free paired with the other half's operator, and it warns (-Wmismatched-new-delete).
std::atomic<uint64_t> g_heap_allocs{0};

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

void BM_CitStampAndCompute(benchmark::State& state) {
  ct::PageInfo page;
  ct::SimTime now = 0;
  for (auto _ : state) {
    now += 7 * ct::kMillisecond;
    ct::StampScanTimestamp(page, now);
    benchmark::DoNotOptimize(ct::ComputeCitMillis(page, now + 3 * ct::kMillisecond));
  }
}
BENCHMARK(BM_CitStampAndCompute);

void BM_XArrayStoreLoadErase(benchmark::State& state) {
  ct::XArray<uint32_t> xa;
  ct::Rng rng(1);
  for (auto _ : state) {
    const uint64_t key = rng.NextBelow(1u << 20);
    xa.Store(key, 1);
    benchmark::DoNotOptimize(xa.Load(key));
    xa.Erase(key);
  }
}
BENCHMARK(BM_XArrayStoreLoadErase);

void BM_XArrayLookupDense(benchmark::State& state) {
  ct::XArray<uint32_t> xa;
  for (uint64_t i = 0; i < 4096; ++i) {
    xa.Store(0x100000 + i, static_cast<uint32_t>(i));
  }
  ct::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xa.Load(0x100000 + rng.NextBelow(4096)));
  }
}
BENCHMARK(BM_XArrayLookupDense);

void BM_CandidateFilterRound(benchmark::State& state) {
  ct::CandidateFilter filter(2);
  std::vector<ct::PageInfo> pages(1024);
  for (size_t i = 0; i < pages.size(); ++i) {
    pages[i].vpn = 0x1000 + i;
    pages[i].owner = 1;
  }
  size_t i = 0;
  for (auto _ : state) {
    ct::PageInfo& page = pages[i++ & 1023];
    benchmark::DoNotOptimize(filter.RecordQualifyingCit(page, 5));
  }
}
BENCHMARK(BM_CandidateFilterRound);

void BM_PromotionQueue(benchmark::State& state) {
  ct::PromotionQueue queue;
  std::vector<ct::PageInfo> pages(256);
  size_t i = 0;
  for (auto _ : state) {
    ct::PageInfo& page = pages[i++ & 255];
    queue.Enqueue(page);
    benchmark::DoNotOptimize(queue.Pop());
  }
}
BENCHMARK(BM_PromotionQueue);

void BM_HeatMapAdd(benchmark::State& state) {
  ct::Log2Histogram map(28);
  ct::Rng rng(3);
  for (auto _ : state) {
    map.Add(rng.NextBelow(1u << 20));
  }
  benchmark::DoNotOptimize(map.total());
}
BENCHMARK(BM_HeatMapAdd);

void BM_ScannerChunk(benchmark::State& state) {
  ct::AddressSpace aspace(0);
  aspace.MapRegion(64ull << 20);  // 16k pages.
  ct::RangeScanner scanner(&aspace);
  for (auto _ : state) {
    scanner.ScanChunk(1024, [](ct::Vma&, ct::PageInfo& unit) { unit.Set(ct::kPageProtNone); });
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ScannerChunk);

void BM_ReservoirAdd(benchmark::State& state) {
  ct::ReservoirSampler sampler(65536);
  double x = 0;
  for (auto _ : state) {
    sampler.Add(x += 1.0);
  }
}
BENCHMARK(BM_ReservoirAdd);

void BM_RngGaussian(benchmark::State& state) {
  ct::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextGaussian());
  }
}
BENCHMARK(BM_RngGaussian);

// --- Stream generation ---

// One Zipf draw answered from the shared table (Arg = n). The skews are the tenant KV
// defaults: 1.05 over 16 tenants, 0.99 over a 192-item key space.
void BM_ZipfSample(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  const ct::ZipfSampler zipf(n, n <= 64 ? 1.05 : 0.99);
  ct::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(16)->Arg(192);

// One table built from scratch, bypassing the shared cache: the set-up cost the first
// sampler of a new (n, s) pays.
void BM_ZipfTableBuild(benchmark::State& state) {
  const ct::ZipfSampler zipf(static_cast<uint64_t>(state.range(0)), 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ct::ZipfTable::Build(zipf));
  }
}
BENCHMARK(BM_ZipfTableBuild)->Arg(192)->Unit(benchmark::kMicrosecond);

// pmbench as fig06 runs it (Gaussian indexes, stride 2, 96 MB), 64 ops per FillBatch;
// items/s is ops/s.
void BM_PmbenchFill(benchmark::State& state) {
  ct::PmbenchConfig config;
  config.working_set_bytes = 96ull << 20;
  config.pattern = ct::PmbenchPattern::kGaussian;
  config.stride = 2;
  ct::PmbenchStream stream(config);
  ct::Process process(0, "pmbench");
  ct::Rng rng(6);
  stream.Init(process, rng);
  std::array<ct::MemOp, 64> ops{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream.FillBatch(rng, ops.data(), ops.size()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(ops.size()));
}
BENCHMARK(BM_PmbenchFill);

void BM_SelectionEfficiencyNumeric(benchmark::State& state) {
  const ct::HotnessDensity h(0.6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ct::SelectionEfficiency([&h](double x) { return h(x); }, 2, 64.0));
  }
}
BENCHMARK(BM_SelectionEfficiencyNumeric);

// --- Event queue ---

// Cost of one periodic firing (re-arm + dispatch). The queue used to deep-copy the
// callback's captures on every firing; it now moves the stored std::function out and back,
// so this should be flat in the capture size (see BM_PeriodicRearmLargeCapture).
void BM_PeriodicRearm(benchmark::State& state) {
  ct::EventQueue queue;
  uint64_t fired = 0;
  queue.SchedulePeriodic(ct::kMillisecond, [&fired](ct::SimTime) { ++fired; });
  for (auto _ : state) {
    queue.RunNext();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(fired));
}
BENCHMARK(BM_PeriodicRearm);

// Same, but the callback's captures exceed std::function's small-buffer optimization —
// with per-firing copies this heap-allocated every tick; with move re-arm it never does.
void BM_PeriodicRearmLargeCapture(benchmark::State& state) {
  ct::EventQueue queue;
  uint64_t fired = 0;
  std::array<uint64_t, 16> payload{};  // 128 B: safely past any SBO inline buffer.
  queue.SchedulePeriodic(ct::kMillisecond, [&fired, payload](ct::SimTime) {
    fired += payload[0] + 1;
  });
  for (auto _ : state) {
    queue.RunNext();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(fired));
}
BENCHMARK(BM_PeriodicRearmLargeCapture);

// One-shot schedule + dispatch, the other high-frequency queue pattern (migration
// completions, fault windows).
void BM_OneShotScheduleAndRun(benchmark::State& state) {
  ct::EventQueue queue;
  uint64_t fired = 0;
  for (auto _ : state) {
    queue.ScheduleAfter(ct::kMillisecond, [&fired](ct::SimTime) { ++fired; });
    queue.RunNext();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(fired));
}
BENCHMARK(BM_OneShotScheduleAndRun);

// Cancel cost as the pending-event count grows. The slot-map queue cancels by slot
// index — O(1) — so the per-cancel time must stay flat across the Arg sweep (the old
// queue linear-scanned a callbacks vector, making this O(pending)).
void BM_EventCancelVsPending(benchmark::State& state) {
  ct::EventQueue queue;
  const int64_t pending = state.range(0);
  for (int64_t i = 0; i < pending; ++i) {
    queue.ScheduleAt(ct::kSecond + static_cast<ct::SimTime>(i), [](ct::SimTime) {});
  }
  for (auto _ : state) {
    const ct::EventId id =
        queue.ScheduleAt(ct::kMillisecond, [](ct::SimTime) {});
    benchmark::DoNotOptimize(queue.Cancel(id));
    // The cancelled entry sorts before every pending event, so this purge pops exactly
    // it — the heap stays at `pending` entries instead of growing per iteration.
    benchmark::DoNotOptimize(queue.NextEventTime());
  }
  state.counters["pending"] = static_cast<double>(pending);
}
BENCHMARK(BM_EventCancelVsPending)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

// The event core's allocation contract: after warmup (slot map and heap at capacity),
// scheduling and firing an event performs zero heap allocations — the callback lands in
// the InlineFunction buffer and the slot is recycled off the free list. CHECK-enforced:
// a regression aborts the bench run, it does not just shift a number.
void BM_EventScheduleAllocationFree(benchmark::State& state) {
  ct::EventQueue queue;
  uint64_t fired = 0;
  // Warmup: grow the slot map and heap past anything the timed loop needs.
  for (int i = 0; i < 1024; ++i) {
    queue.ScheduleAfter(ct::kMillisecond + i, [&fired](ct::SimTime) { ++fired; });
  }
  while (queue.pending() > 0) {
    queue.RunNext();
  }
  const uint64_t allocs_before = g_heap_allocs.load();
  uint64_t events = 0;
  for (auto _ : state) {
    queue.ScheduleAfter(ct::kMillisecond, [&fired](ct::SimTime) { ++fired; });
    queue.RunNext();
    ++events;
  }
  const uint64_t allocs = g_heap_allocs.load() - allocs_before;
  CHECK_EQ(allocs, uint64_t{0})
      << "event core allocated " << allocs << " time(s) over " << events
      << " scheduled events — the steady-state schedule/fire path must be heap-free";
  state.counters["allocs_per_event"] =
      events == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(events);
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_EventScheduleAllocationFree);

// One invariant audit of a fully faulted 256 MB machine: a process maps 7/8 of the
// machine and touches every page once, so the audit walks ~57k present units and their
// LRU entries. The LRU cross-check keys a flat per-page table by arena index, so an
// audit's heap allocations are a small constant (that table, the per-node residency
// vector) whatever the page count — CHECK-enforced, like the event core's contract.
void BM_AuditNow(benchmark::State& state) {
  constexpr uint64_t kMachinePages = 65536;  // 256 MB of 4 KB pages.
  constexpr uint64_t kMaxAllocsPerAudit = 4;
  ct::MachineConfig config = ct::MachineConfig::StandardTwoTier(kMachinePages, 0.25);
  config.audit_period = 0;  // Only the timed audits below.
  ct::Machine machine(config, ct::StandardPolicySet().front().make());
  ct::Process& process = machine.CreateProcess("fill");
  ct::UniformConfig fill;
  fill.working_set_bytes = kMachinePages / 8 * 7 * ct::kBasePageSize;
  fill.sequential_init = true;
  fill.op_limit = 1;  // The pre-touch, then one random op: the stream ends.
  machine.AttachWorkload(process, std::make_unique<ct::UniformStream>(fill), 1);
  machine.Start();
  machine.RunToCompletion(ct::kMinute);
  uint64_t units = 0;
  process.aspace().ForEachPage([&units](ct::Vma&, ct::PageInfo& page) {
    CHECK(page.present()) << "page " << page.vpn << " was never faulted in";
    ++units;
  });

  uint64_t audits = 0;
  uint64_t max_allocs = 0;
  for (auto _ : state) {
    const uint64_t allocs_before = g_heap_allocs.load();
    const ct::AuditReport report = machine.AuditNow();
    max_allocs = std::max(max_allocs, g_heap_allocs.load() - allocs_before);
    CHECK(report.clean()) << report.Summary();
    ++audits;
  }
  CHECK_LE(max_allocs, kMaxAllocsPerAudit)
      << "one audit of " << units << " units allocated " << max_allocs
      << " times — the audit's allocations must not grow with the page count";
  state.counters["pages"] = static_cast<double>(units);
  state.counters["allocs_per_audit"] = static_cast<double>(max_allocs);
  // Inverted per-iteration rate: host seconds per audited page (printed as e.g. "14ns").
  state.counters["time_per_page"] = benchmark::Counter(
      static_cast<double>(units),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<int64_t>(audits * units));
}
BENCHMARK(BM_AuditNow)->Unit(benchmark::kMicrosecond);

// Registering a fastlane-shaped address space: 64 VMAs of 768 pages into one arena.
// Registration is setup-time, but a workload maps every region through it, so the
// arena's tables must grow geometrically: reserving exactly the new size on each VMA
// recopied the whole arena once per region. CHECK-enforced like the contracts above: the
// allocations of one full registration stay within 2 * ceil(log2(total pages)).
void BM_RegisterVmas(benchmark::State& state) {
  constexpr uint64_t kVmas = 64;
  constexpr uint64_t kPagesPerVma = 768;
  constexpr uint64_t kTotalPages = kVmas * kPagesPerVma;
  constexpr uint64_t kMaxAllocs = 2 * std::bit_width(kTotalPages - 1);
  uint64_t max_allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<ct::Vma>> vmas;
    for (uint64_t i = 0; i < kVmas; ++i) {
      vmas.push_back(std::make_unique<ct::Vma>(i * 2 * kPagesPerVma, kPagesPerVma,
                                               ct::PageSizeKind::kBase, /*owner=*/0));
    }
    auto arena = std::make_unique<ct::PageArena>();
    state.ResumeTiming();
    const uint64_t allocs_before = g_heap_allocs.load();
    for (const std::unique_ptr<ct::Vma>& vma : vmas) {
      arena->RegisterVma(vma.get());
    }
    max_allocs = std::max(max_allocs, g_heap_allocs.load() - allocs_before);
    benchmark::DoNotOptimize(arena->size());
    state.PauseTiming();
    arena.reset();
    vmas.clear();
    state.ResumeTiming();
  }
  CHECK_LE(max_allocs, kMaxAllocs)
      << "registering " << kVmas << " VMAs (" << kTotalPages << " pages) allocated "
      << max_allocs << " times — arena growth must be geometric, not per VMA";
  state.counters["pages"] = static_cast<double>(kTotalPages);
  state.counters["allocs_per_registration"] = static_cast<double>(max_allocs);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kTotalPages));
}
BENCHMARK(BM_RegisterVmas)->Unit(benchmark::kMicrosecond);

// --- Migration engine ---

// Minimal host for driving the engine without a full Machine: applies committed moves to
// the page metadata and swallows reclaim/kernel-time callbacks.
class BareMigrationEnv : public ct::MigrationEnv {
 public:
  BareMigrationEnv() : memory_(ct::TieredMemory::DramOptane(1u << 16)) {}

  ct::EventQueue& queue() override { return queue_; }
  ct::TieredMemory& memory() override { return memory_; }
  void ReclaimForPromotion(uint64_t) override {}
  void ApplyMigration(ct::Vma&, ct::PageInfo& unit, ct::NodeId, ct::NodeId to) override {
    unit.node = to;
  }
  void ChargeMigrationKernelTime(ct::SimDuration) override {}

  ct::EventQueue queue_;
  ct::TieredMemory memory_;
};

// Async transaction pipeline vs. write intensity. Arg = percent chance that a store lands
// mid-copy (bumping write_gen inside the copy window), forcing a dirty abort + retry.
// Counters: txns/s of engine bookkeeping, abort rate per copy pass, copy passes per commit.
void BM_MigrationEngineAsync(benchmark::State& state) {
  const double store_prob = static_cast<double>(state.range(0)) / 100.0;
  BareMigrationEnv env;
  ct::MigrationStats stats;
  ct::MigrationEngineConfig config;
  ct::MigrationEngine engine(config, &env, &stats);

  constexpr uint64_t kPages = 1024;
  ct::AddressSpace aspace(1);
  const uint64_t base_vpn = aspace.MapRegion(kPages * ct::kBasePageSize) / ct::kBasePageSize;
  ct::Vma& vma = *aspace.FindVma(base_vpn);
  env.memory_.node(ct::kSlowNode).TryAllocate(kPages);
  for (uint64_t i = 0; i < kPages; ++i) {
    ct::PageInfo& page = vma.PageAt(base_vpn + i);
    page.Set(ct::kPagePresent);
    page.node = ct::kSlowNode;
  }

  const ct::SimDuration half_copy =
      env.memory_.CostOfMigration(ct::kSlowNode, ct::kFastNode, ct::kBasePageSize).copy_time /
      2;
  ct::Rng rng(7);
  uint64_t idx = 0;
  for (auto _ : state) {
    ct::PageInfo& unit = vma.PageAt(base_vpn + (idx++ % kPages));
    const ct::NodeId target = unit.node == ct::kFastNode ? ct::kSlowNode : ct::kFastNode;
    const ct::MigrationTicket ticket =
        engine.Submit(vma, unit, target, ct::MigrationClass::kAsync,
                      ct::MigrationSource::kPolicyDaemon);
    if (ticket.admitted && rng.NextDouble() < store_prob) {
      ct::PageInfo* page = &unit;
      env.queue_.ScheduleAt(env.queue_.now() + half_copy,
                            [page](ct::SimTime) { ++page->write_gen; });
    }
    while (env.queue_.pending() > 0) {
      env.queue_.RunNext();
    }
  }

  state.SetItemsProcessed(static_cast<int64_t>(stats.TotalCommitted()));
  state.counters["txns_per_sec"] = benchmark::Counter(
      static_cast<double>(stats.TotalCommitted()), benchmark::Counter::kIsRate);
  state.counters["abort_rate"] =
      stats.copy_attempts == 0 ? 0.0
                               : static_cast<double>(stats.dirty_aborted_copies) /
                                     static_cast<double>(stats.copy_attempts);
  state.counters["attempts_per_commit"] = stats.MeanAttemptsPerCommit();
  state.counters["final_aborts"] = static_cast<double>(stats.TotalAborted());
}
BENCHMARK(BM_MigrationEngineAsync)->Arg(0)->Arg(25)->Arg(50)->Arg(95);

// Sync (fault-inline) submission: the whole transaction executes inside Submit, so this is
// the per-fault engine overhead a hint-fault promotion pays.
void BM_MigrationEngineSyncSubmit(benchmark::State& state) {
  BareMigrationEnv env;
  ct::MigrationStats stats;
  ct::MigrationEngineConfig config;
  config.sync_slack = 365ll * 24 * 3600 * ct::kSecond;  // Never refuse on backlog.
  ct::MigrationEngine engine(config, &env, &stats);

  constexpr uint64_t kPages = 1024;
  ct::AddressSpace aspace(1);
  const uint64_t base_vpn = aspace.MapRegion(kPages * ct::kBasePageSize) / ct::kBasePageSize;
  ct::Vma& vma = *aspace.FindVma(base_vpn);
  env.memory_.node(ct::kSlowNode).TryAllocate(kPages);
  for (uint64_t i = 0; i < kPages; ++i) {
    ct::PageInfo& page = vma.PageAt(base_vpn + i);
    page.Set(ct::kPagePresent);
    page.node = ct::kSlowNode;
  }

  uint64_t idx = 0;
  for (auto _ : state) {
    ct::PageInfo& unit = vma.PageAt(base_vpn + (idx++ % kPages));
    const ct::NodeId target = unit.node == ct::kFastNode ? ct::kSlowNode : ct::kFastNode;
    benchmark::DoNotOptimize(engine.Submit(vma, unit, target, ct::MigrationClass::kSync,
                                           ct::MigrationSource::kFaultPath,
                                           env.queue_.now()));
  }
  state.counters["txns_per_sec"] = benchmark::Counter(
      static_cast<double>(stats.TotalCommitted()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MigrationEngineSyncSubmit);

}  // namespace

BENCHMARK_MAIN();
