// Access fast lane (software TLB) tests.
//
// The load-bearing claim: a run with the translation cache enabled is *bit-identical* to
// the same run with it disabled — same metrics, same migration commit sequence, same
// residency samples — because a hit on an eligible unit runs the same access tail the slow
// path ends in. The equivalence tests check that across the full policy lineup,
// including migration-heavy and fault-injected schedules. The stale-translation tests pin
// down the invalidation points individually: PROT_NONE poisoning must still fault, and a
// huge-group split must stop tail vpns from resolving to the stale group head.

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/standard_policies.h"
#include "src/harness/experiment.h"
#include "src/harness/machine.h"
#include "src/vm/address_space.h"
#include "src/vm/page_arena.h"
#include "src/vm/translation_cache.h"
#include "src/workloads/patterns.h"
#include "src/workloads/pmbench.h"
#include "src/workloads/trace.h"
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
  config.warmup = 6 * kSecond;
  config.measure = 6 * kSecond;
  config.residency_sample_interval = 2 * kSecond;  // Compare time series too.
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

// Runs one config twice — fast lane on and off — and requires identical results. Also
// checks the TLB actually participated in the enabled run (the equivalence would be
// vacuous if the fast lane never engaged). Returns the enabled run's TLB counters.
Machine::TlbCounters ExpectTlbEquivalence(ExperimentConfig config,
                                          const NamedPolicyFactory& named,
                                          const std::vector<ProcessSpec>& procs) {
  config.enable_translation_cache = false;
  const ExperimentResult off = Experiment::Run(config, named.make, procs);

  config.enable_translation_cache = true;
  Machine::TlbCounters counters;
  const ExperimentResult on = Experiment::Run(
      config, named.make, procs, nullptr,
      [&counters](Machine& machine, ExperimentResult&) { counters = machine.TlbStats(); });

  ExpectResultsIdentical(on, off, "policy=" + named.name);
  // Every policy takes the fast lane now, including PEBS-driven Memtis: the sampler's
  // per-access charge sits in the shared access tail, so an active sampler no longer
  // forces the slow path. The equivalence above would be vacuous otherwise.
  EXPECT_GT(counters.hits, 0u) << named.name << ": fast lane never engaged";
  return counters;
}

TEST(TlbEquivalenceTest, AllPoliciesMatchWithTlbOff) {
  for (const auto& named : StandardPolicySet(FastGeometry())) {
    ExpectTlbEquivalence(SmallExperiment(), named, GaussianProcs(2));
  }
}

TEST(TlbEquivalenceTest, NTierTopologyMatchesWithTlbOff) {
  // N-endpoint CXL topology: hop penalties and per-endpoint congestion delays are charged
  // on both the fast lane and the slow path with identical arguments, so the bit-identity
  // contract must survive a machine where every access may queue.
  ExperimentConfig config = SmallExperiment();
  config.topology.tree = "(1,(2,4),(3,5))";
  config.topology.capacity_pages = {4096, 3072, 3072, 3072, 3072};
  for (const auto& named : TopologyPolicySet(FastGeometry())) {
    if (named.name == "Chrono" || named.name == "Memtis" ||
        named.name == "endpoint_aware_hotness") {
      ExpectTlbEquivalence(config, named, GaussianProcs(2));
    }
  }
}

TEST(TlbEquivalenceTest, SegmentedAddressSpace) {
  // Many-VMA address space: translations span 12 regions per process and region-hopping
  // defeats the last-hit VMA cache, so the fast lane carries almost every access. Must
  // still be bit-identical to TLB-off, for every policy.
  std::vector<ProcessSpec> procs;
  SegmentedConfig w;
  w.working_set_bytes = 6144 * kBasePageSize;
  w.segments = 12;
  w.read_ratio = 0.9;
  w.per_op_delay = kMicrosecond;
  w.sequential_init = true;
  for (int i = 0; i < 2; ++i) {
    procs.push_back({"seg", [w] { return std::make_unique<SegmentedStream>(w); }});
  }
  // Fast-lane hit rate of each policy on this schedule, recorded when this check was
  // added. A drop of more than 0.05 means the fast lane stopped carrying a policy's
  // accesses, e.g. an active PEBS sampler forcing every Memtis access down the slow path.
  const std::map<std::string, double> recorded_hit_rate = {
      {"Linux-NB", 0.9947}, {"AutoTiering", 0.9951}, {"Multi-Clock", 0.9963},
      {"TPP", 0.9952},      {"Memtis", 0.9993},      {"Chrono", 0.9832},
  };
  for (const auto& named : StandardPolicySet(FastGeometry())) {
    const Machine::TlbCounters counters = ExpectTlbEquivalence(SmallExperiment(), named, procs);
    const double hit_rate = static_cast<double>(counters.hits) /
                            static_cast<double>(counters.hits + counters.misses);
    EXPECT_GE(hit_rate, recorded_hit_rate.at(named.name) - 0.05) << named.name;
  }
}

TEST(TlbEquivalenceTest, MigrationHeavySchedule) {
  // Write-heavy working set larger than DRAM: constant promotion/demotion churn plus
  // dirty-abort pressure — every migration-driven invalidation path fires.
  ExperimentConfig config = SmallExperiment();
  config.total_pages = 8192;  // 32 MB machine, 8 MB DRAM; the 12 MB x2 set thrashes it.
  for (const std::string name : {"Chrono", "TPP", "Linux-NB"}) {
    for (const auto& named : StandardPolicySet(FastGeometry())) {
      if (named.name == name) {
        ExpectTlbEquivalence(config, named,
                             GaussianProcs(2, /*read_ratio=*/0.3, /*ws_pages=*/3072));
      }
    }
  }
}

TEST(TlbEquivalenceTest, FaultInjectedSchedule) {
  // Chaos plan: copy faults park transactions and quarantine frames, pressure spikes force
  // emergency reclaim (demotions under degraded watermarks), alloc-fail windows refuse
  // demand faults. All of it must replay identically through the fast lane.
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
  for (const auto& named : StandardPolicySet(FastGeometry())) {
    if (named.name == "Chrono" || named.name == "Multi-Clock") {
      ExpectTlbEquivalence(config, named, GaussianProcs(2, /*read_ratio=*/0.5));
    }
  }
}

// --- Stale-translation unit tests ---

class NullPolicy : public TieringPolicy {
 public:
  std::string_view name() const override { return "null"; }
  void Attach(Machine&) override {}
  SimDuration OnHintFault(Process&, Vma&, PageInfo&, bool, SimTime) override { return 0; }
};

// A trace that touches the same few pages over and over: each revisit after the first is a
// guaranteed fast-lane hit (until something invalidates the translation). `first` lets the
// huge-split test touch only tail pages (offset 0 is the group head's own base page).
Trace LoopTrace(uint64_t pages, uint64_t touched, int rounds, uint64_t first = 0) {
  Trace trace;
  trace.set_working_set_bytes(pages * kBasePageSize);
  for (int r = 0; r < rounds; ++r) {
    for (uint64_t p = first; p < first + touched; ++p) {
      MemOp op;
      op.vaddr = p * kBasePageSize;
      op.think_time = kMillisecond;
      trace.Append(op);
    }
  }
  return trace;
}

TEST(TlbStaleTranslationTest, PoisonedUnitStillFaults) {
  const Trace trace = LoopTrace(/*pages=*/16, /*touched=*/4, /*rounds=*/4000);
  Machine machine(MachineConfig::StandardTwoTier(4096), std::make_unique<NullPolicy>());
  Process& process = machine.CreateProcess("t");
  machine.AttachWorkload(process, std::make_unique<TraceStream>(&trace), 1);
  machine.Start();
  machine.Run(kSecond);

  const uint64_t vpn = process.aspace().lowest_vpn();
  Vma* vma = process.aspace().FindVma(vpn);
  ASSERT_NE(vma, nullptr);
  PageInfo& unit = vma->HotnessUnit(vpn);

  // The loop revisits the page constantly, so its translation is cached by now.
  EXPECT_GT(machine.TlbStats().hits, 0u);
  ASSERT_EQ(process.tlb().Lookup(vpn, machine.arena().groups()), &unit);

  machine.PoisonUnit(unit);
  // Poisoning dropped the cached translation — the fast lane cannot skip the fault.
  EXPECT_EQ(process.tlb().Lookup(vpn, machine.arena().groups()), nullptr);
  ASSERT_TRUE(unit.Has(kPageProtNone));

  const uint64_t faults_before = machine.metrics().hint_faults();
  machine.Run(kSecond);
  EXPECT_GT(machine.metrics().hint_faults(), faults_before);
  EXPECT_FALSE(unit.Has(kPageProtNone)) << "hint fault should have cleared the poison";
}

TEST(TlbStaleTranslationTest, HugeSplitRemapsTailVpns) {
  // One huge group (512 base pages); the trace hammers a tail page, so the TLB caches
  // tail_vpn -> group head.
  const Trace trace = LoopTrace(/*pages=*/kBasePagesPerHugePage, /*touched=*/8,
                                /*rounds=*/2000, /*first=*/1);
  Machine machine(MachineConfig::StandardTwoTier(4096), std::make_unique<NullPolicy>());
  Process& process = machine.CreateProcess("t");
  process.set_default_page_kind(PageSizeKind::kHuge);
  machine.AttachWorkload(process, std::make_unique<TraceStream>(&trace), 1);
  machine.Start();
  machine.Run(kSecond);

  const uint64_t base_vpn = process.aspace().lowest_vpn();
  const uint64_t tail_vpn = base_vpn + 5;
  Vma* vma = process.aspace().FindVma(tail_vpn);
  ASSERT_NE(vma, nullptr);
  PageInfo& head = vma->HotnessUnit(tail_vpn);
  ASSERT_TRUE(head.huge_head());
  ASSERT_NE(head.vpn, tail_vpn);
  ASSERT_EQ(process.tlb().Lookup(tail_vpn, machine.arena().groups()), &head);

  ASSERT_TRUE(machine.SplitHugeUnit(*vma, head));

  // The stale head translation is gone: a fast-lane hit on it would have aggregated the
  // tail's accesses onto the (no longer covering) head unit.
  EXPECT_EQ(process.tlb().Lookup(tail_vpn, machine.arena().groups()), nullptr);
  PageInfo& tail = vma->PageAt(tail_vpn);
  ASSERT_EQ(&vma->HotnessUnit(tail_vpn), &tail);

  const uint64_t tail_count_before = machine.arena().cold(tail).access_count;
  const uint64_t head_count_before = machine.arena().cold(head).access_count;
  machine.Run(kSecond);
  EXPECT_GT(machine.arena().cold(tail).access_count, tail_count_before)
      << "post-split accesses must land on the tail's own base page";
  EXPECT_EQ(machine.arena().cold(head).access_count, head_count_before)
      << "post-split tail accesses must not aggregate to the old group head";
}

// The oracle's access counts are logged on the access path and applied in batches; every
// Machine::Run exit must leave them complete. Per page the log only defers the count, so
// at each exit the counts summed over the arena equal the accesses the processes made,
// whichever lane served them.
TEST(OracleConservationTest, CountsMatchCompletedAccessesAtEveryRunExit) {
  for (const bool tlb_on : {true, false}) {
    MachineConfig config = MachineConfig::StandardTwoTier(16384, 0.25);
    config.enable_translation_cache = tlb_on;
    Machine machine(config, StandardPolicySet(FastGeometry()).back().make());
    for (const int pid : {0, 1}) {
      PmbenchConfig w;
      w.working_set_bytes = 6144 * kBasePageSize;
      w.read_ratio = 0.7;
      w.per_op_delay = kMicrosecond;
      w.sequential_init = true;
      Process& process = machine.CreateProcess("pm" + std::to_string(pid));
      machine.AttachWorkload(process, std::make_unique<PmbenchStream>(w), 7 + pid);
    }
    machine.Start();
    uint64_t accesses = 0;
    for (const SimDuration slice : {kMillisecond / 3, 700 * kMillisecond, 1300 * kMillisecond,
                                    kSecond, 37 * kMillisecond}) {
      machine.Run(slice);
      uint64_t counted = 0;
      for (uint32_t i = 0; i < machine.arena().size(); ++i) {
        counted += machine.arena().cold(i).access_count;
      }
      uint64_t completed = 0;
      for (const auto& process : machine.processes()) {
        completed += process->completed_accesses();
      }
      EXPECT_EQ(counted, completed) << "tlb=" << tlb_on << " after a run ending at "
                                    << machine.now();
      EXPECT_GT(completed, accesses) << "every slice makes progress";
      accesses = completed;
    }
  }
}

// --- TranslationCache unit tests ---

// A slot is one arena index: half the 8-byte pointer it replaced.
static_assert(sizeof(TranslationCache::Slot) == 4, "TLB slots are 4-byte arena indices");

// Loose pages registered with a real arena, the way the machine registers VMA pages: the
// cache stores their indices and resolves them through the arena's group table.
struct ArenaPages {
  explicit ArenaPages(std::initializer_list<uint64_t> vpns) : pages(vpns.size()) {
    size_t i = 0;
    for (const uint64_t vpn : vpns) {
      pages[i].vpn = static_cast<uint32_t>(vpn);
      arena.RegisterPage(&pages[i++]);
    }
  }
  PageArena arena;
  std::vector<PageInfo> pages;
};

TEST(TranslationCacheTest, LookupInsertInvalidate) {
  ArenaPages fixture({7});
  PageInfo& unit = fixture.pages[0];
  const PageArena::Groups groups = fixture.arena.groups();
  TranslationCache tlb;
  EXPECT_EQ(tlb.Lookup(7, groups), nullptr);
  tlb.Insert(7, unit);
  EXPECT_EQ(tlb.Lookup(7, groups), &unit);
  tlb.Invalidate(7, groups);
  EXPECT_EQ(tlb.Lookup(7, groups), nullptr);
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 2u);
  EXPECT_EQ(tlb.invalidations(), 1u);
}

TEST(TranslationCacheTest, DirectMappedConflictEvicts) {
  ArenaPages fixture({3, 3 + TranslationCache::kEntries});
  PageInfo& a = fixture.pages[0];
  PageInfo& b = fixture.pages[1];
  const PageArena::Groups groups = fixture.arena.groups();
  TranslationCache tlb;
  tlb.Insert(a.vpn, a);
  tlb.Insert(b.vpn, b);  // Same slot.
  EXPECT_EQ(tlb.Lookup(a.vpn, groups), nullptr);
  EXPECT_EQ(tlb.Lookup(b.vpn, groups), &b);
}

TEST(TranslationCacheTest, SlotValidatesAgainstUnitVpn) {
  // Slots are bare indices: an entry must only translate the vpns its unit covers. A
  // base-page unit covers exactly its own vpn; a huge head covers its whole group.
  ArenaPages fixture({9, kBasePagesPerHugePage});  // Heads are group-aligned.
  PageInfo& base = fixture.pages[0];
  PageInfo& head = fixture.pages[1];
  head.Set(kPageHugeHead);
  const PageArena::Groups groups = fixture.arena.groups();
  TranslationCache tlb;
  tlb.Insert(9, base);
  EXPECT_EQ(tlb.Lookup(9 + TranslationCache::kEntries, groups), nullptr);  // Aliased slot.

  const uint64_t tail = head.vpn + 17;
  tlb.Insert(tail, head);
  EXPECT_EQ(tlb.Lookup(tail, groups), &head);
  // One past the group: the same head index must not cover it.
  tlb.Insert(head.vpn + kBasePagesPerHugePage, head);
  EXPECT_EQ(tlb.Lookup(head.vpn + kBasePagesPerHugePage, groups), nullptr);
}

TEST(TranslationCacheTest, InvalidateRangeCoversHugeGroup) {
  ArenaPages fixture({0});
  PageInfo& head = fixture.pages[0];
  head.Set(kPageHugeHead);
  const PageArena::Groups groups = fixture.arena.groups();
  TranslationCache tlb;
  for (uint64_t vpn = 0; vpn < 8; ++vpn) {
    tlb.Insert(vpn, head);
  }
  tlb.InvalidateRange(0, kBasePagesPerHugePage, groups);  // 512 >= 8: all entries must go.
  for (uint64_t vpn = 0; vpn < 8; ++vpn) {
    EXPECT_EQ(tlb.Lookup(vpn, groups), nullptr) << "vpn " << vpn;
  }
}

TEST(TranslationCacheTest, ResolvesUnitsOfRealVmas) {
  // Units in VMAs whose page counts are not multiples of the arena's 64-page group: every
  // cached index must resolve back to the exact PageInfo it was inserted for.
  PageArena arena;
  AddressSpace aspace(0);
  aspace.set_arena(&arena);
  aspace.MapRegion(100 * kBasePageSize);
  aspace.MapRegion(37 * kBasePageSize);
  TranslationCache tlb;
  aspace.ForEachPage([&tlb](Vma&, PageInfo& page) { tlb.Insert(page.vpn, page); });
  const PageArena::Groups groups = arena.groups();
  aspace.ForEachPage([&](Vma&, PageInfo& page) {
    EXPECT_EQ(tlb.Lookup(page.vpn, groups), &page) << "vpn " << page.vpn;
  });
  EXPECT_EQ(tlb.misses(), 0u);
}

TEST(TranslationCacheTest, FastPathMaskRejectsIneligibleFlags) {
  PageInfo unit;
  unit.Set(kPagePresent);
  EXPECT_EQ(unit.flags & TranslationCache::kFastPathMask, kPagePresent);
  unit.Set(kPageProtNone);
  EXPECT_NE(unit.flags & TranslationCache::kFastPathMask, kPagePresent);
  unit.ClearFlag(kPageProtNone);
  unit.Set(kPageMigrating);
  EXPECT_NE(unit.flags & TranslationCache::kFastPathMask, kPagePresent);
}

}  // namespace
}  // namespace chronotier
