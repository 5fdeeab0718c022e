// Figure 15 (tiering extension): multi-tenant isolation under admission QoS.
//
// Four row families, every one run twice and checked bit-identical in every result
// field, per-tenant rows included (RunMatrixTwice):
//
//   tenants-N:   scaling sweep, N in {1,4,16,64} declared tenants (quick: {1,8}), each
//                tenant one open-loop TenantKv server under the "fair-share" program,
//                across the full six-policy lineup. Aggregate offered load is held
//                constant (per-tenant interarrival scales with N) so the rows compare
//                tenancy overhead, not load.
//   qos-*:       the shipped QoS programs compared head-to-head at 8 tenants under
//                Chrono: none / strict-budget / borrow / fair-share, identical budgets
//                and workload — only the admission verdicts differ.
//   nn-*:        the noisy-neighbor demo: a small KV victim alone (nn-solo), next to an
//                unconstrained pmbench storm (nn-noqos), and next to the same storm with
//                the bully under "strict-budget" plus a migration-bandwidth budget
//                (nn-strict). The bench CHECK-fails (CI gate) unless no-QoS shows real
//                victim p99 degradation and strict-budget pulls it back into a band of
//                the solo run.
//   chaos:       the qos-strict cell re-run under the chaos fault schedule (copy faults,
//                stalls, reclaim pressure, allocation failures) with the invariant
//                auditor armed — tenant residency accounting must survive fault paths.
//
// --out writes every cell, including the per-tenant rows and the noisy-neighbor band
// numbers, as BENCH_tenants.json.

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/check.h"
#include "src/common/json.h"
#include "src/tenant/tenant.h"
#include "src/workloads/tenant_kv.h"

namespace ct = chronotier;

namespace {

// Noisy-neighbor acceptance band, asserted below and recorded in the JSON. The victim's
// p99 under strict-budget must stay within kStrictBand of its solo run while the
// unconstrained bully must degrade it by at least kNoQosDegradation.
constexpr double kStrictBand = 2.0;
constexpr double kNoQosDegradation = 1.05;

// One declared tenant's KV server: an open-loop TenantKv stream multiplexing
// `virtual_tenants` user keyspaces (Zipfian popularity, churn every 10k ops).
ct::ProcessSpec TenantKvProc(const std::string& name, int tenant, uint64_t virtual_tenants,
                             uint64_t items_per_vt, ct::SimDuration interarrival,
                             double key_zipf_s = 0.99) {
  ct::TenantKvConfig w;
  w.virtual_tenants = virtual_tenants;
  w.items_per_tenant = items_per_vt;
  w.value_bytes = ct::kBasePageSize;  // One value page per item.
  w.churn_period_ops = 10000;
  w.churn_stride = 5;  // Coprime to 16 virtual tenants: the rotation cycles fully.
  w.mean_interarrival = interarrival;
  w.key_zipf_s = key_zipf_s;
  ct::ProcessSpec spec{name, [w] { return std::make_unique<ct::TenantKvStream>(w); }};
  spec.tenant = tenant;
  return spec;
}

ct::ExperimentConfig TenantMachine(uint64_t total_mb, uint64_t seed, bool quick) {
  ct::ExperimentConfig config = ct::BenchMachine(total_mb);
  config.warmup = quick ? 2 * ct::kSecond : 4 * ct::kSecond;
  config.measure = quick ? 4 * ct::kSecond : 8 * ct::kSecond;
  config.seed = seed;
  // Audits run throughout (including tenant-residency conservation, auditor check 9);
  // any violation aborts the bench.
  config.audit_period = 500 * ct::kMillisecond;
  return config;
}

// The chaos-soak fault schedule (bench/chaos_soak's shape, 2-tier fields only).
ct::FaultPlan ChaosPlan(uint64_t seed) {
  ct::FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  plan.start_after = ct::kSecond;
  plan.copy_fail_transient_p = 0.02;
  plan.copy_fail_persistent_p = 0.001;
  plan.stall_period = 700 * ct::kMillisecond;
  plan.stall_fire_p = 0.5;
  plan.stall_duration = 2 * ct::kMillisecond;
  plan.stall_window = 30 * ct::kMillisecond;
  plan.stall_bandwidth_slowdown = 4.0;
  plan.pressure_period = 1300 * ct::kMillisecond;
  plan.pressure_fire_p = 0.6;
  plan.pressure_duration = 80 * ct::kMillisecond;
  plan.pressure_fraction = 0.06;
  plan.alloc_fail_period = 1900 * ct::kMillisecond;
  plan.alloc_fail_fire_p = 0.5;
  plan.alloc_fail_duration = 40 * ct::kMillisecond;
  return plan;
}

// 8 declared tenants with graded weights and a 1024-page fast budget each, all running
// the same program — the qos-* and chaos rows differ only in `program`.
ct::MatrixRow QosRow(const std::string& label, const std::string& program, uint64_t seed,
                     bool quick) {
  ct::MatrixRow row;
  row.label = label;
  row.config = TenantMachine(256, seed, quick);
  for (int i = 0; i < 8; ++i) {
    ct::TenantSpec tenant;
    tenant.name = "t" + std::to_string(i);
    tenant.weight = static_cast<double>(1 + i % 4);
    tenant.residency_budget_pages = {1024};  // Fast node capped; slow unlimited.
    tenant.qos_program = program;
    row.config.tenants.push_back(tenant);
    row.processes.push_back(TenantKvProc("kv-" + std::to_string(i), i,
                                         /*virtual_tenants=*/16, /*items_per_vt=*/192,
                                         /*interarrival=*/16 * ct::kMicrosecond));
  }
  return row;
}

uint64_t SumRefusals(const ct::ExperimentResult& result) {
  uint64_t sum = 0;
  for (const ct::TenantResult& t : result.tenants) {
    sum += t.qos_refusals;
  }
  return sum;
}

uint64_t SumBorrows(const ct::ExperimentResult& result) {
  uint64_t sum = 0;
  for (const ct::TenantResult& t : result.tenants) {
    sum += t.borrows;
  }
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool quick = false;
  const ct::BenchFlags flags = ct::ParseBenchFlags(
      argc, argv,
      "Figure 15: multi-tenant isolation. Tenant-count scaling under fair-share, the\n"
      "shipped QoS programs head-to-head, the noisy-neighbor band demo (CHECK-gated),\n"
      "and a chaos row with the auditor armed; runs twice, checked bit-identical.",
      {{"--out", "FILE", "also write every cell (with per-tenant rows) as JSON",
        [&out_path](const std::string& v) { out_path = v; }},
       {"--quick", "", "2-point tenant sweep and short windows (CI smoke)",
        [&quick](const std::string&) { quick = true; }}});
  ct::PrintBanner("Fig 15: tenant isolation under admission QoS");
  const auto policies = ct::StandardPolicySet(ct::BenchGeometry());
  std::vector<ct::NamedPolicyFactory> chrono_only;
  for (const auto& policy : policies) {
    if (policy.name == "Chrono") {
      chrono_only.push_back(policy);
    }
  }
  CHECK(chrono_only.size() == 1) << "standard lineup lost its Chrono entry";
  std::vector<ct::NamedPolicyFactory> linux_nb_only;
  for (const auto& policy : policies) {
    if (policy.name == "Linux-NB") {
      linux_nb_only.push_back(policy);
    }
  }
  CHECK(linux_nb_only.size() == 1) << "standard lineup lost its Linux-NB entry";

  // --- tenants-N scaling sweep: constant aggregate load, fair-share everywhere. ---
  // Total KV heap is fixed at 96 MB (1.5x the 64 MB fast tier) and split across the
  // declared tenants; per-tenant interarrival scales with N so the rows differ only in
  // how finely the same load is partitioned.
  std::vector<ct::MatrixRow> sweep_rows;
  const std::vector<int> counts = quick ? std::vector<int>{1, 8}
                                        : std::vector<int>{1, 4, 16, 64};
  for (const int n : counts) {
    ct::MatrixRow row;
    row.label = "tenants-" + std::to_string(n);
    row.config = TenantMachine(256, /*seed=*/42 + static_cast<uint64_t>(n), quick);
    for (int i = 0; i < n; ++i) {
      ct::TenantSpec tenant;
      tenant.name = "t" + std::to_string(i);
      tenant.qos_program = "fair-share";
      row.config.tenants.push_back(tenant);
      row.processes.push_back(TenantKvProc(
          "kv-" + std::to_string(i), i, /*virtual_tenants=*/16,
          /*items_per_vt=*/1536 / static_cast<uint64_t>(n),
          /*interarrival=*/static_cast<ct::SimDuration>(n) * 2 * ct::kMicrosecond));
    }
    sweep_rows.push_back(std::move(row));
  }

  // --- qos-* program comparison: same tenants, same load, different verdicts. ---
  std::vector<ct::MatrixRow> qos_rows;
  for (const std::string program : {"", "strict-budget", "borrow", "fair-share"}) {
    qos_rows.push_back(QosRow("qos-" + (program.empty() ? "none" : program), program,
                              /*seed=*/77, quick));
  }

  // --- nn-*: the noisy-neighbor demo on a 128 MB machine (32 MB fast tier). ---
  // The victim's 24 MB near-uniform KV working set fits in the fast tier on its own; the
  // bully is a 32 MB churning KV storm at 4x the victim's op rate whose hot virtual
  // tenants rotate every ~1 s, so it perpetually promotes a fresh hot set while its old
  // one cools and gets demoted. These rows run under Linux-NB, the policy the demo is
  // *about*: recency-driven promotion chases the storm's rotation, so without QoS the
  // bully persistently displaces the victim. With "strict-budget" the cooled pages still
  // demote naturally but their replacements are refused past the 1024-page fast budget
  // (plus a 16 MB/s migration-bandwidth budget), so the bully drains and the victim
  // recovers. The victim is never constrained. (Chrono's frequency ranking protects the
  // victim on its own — the sweep rows above show that — which is exactly why per-tenant
  // budgets matter most for the recency-based baselines.)
  std::vector<ct::MatrixRow> nn_rows;
  const auto nn_machine = [&] {
    ct::ExperimentConfig config = TenantMachine(128, /*seed=*/9, quick);
    // Longer windows than the sweep: displacement (and recovery under the budget) takes
    // several reclaim/promotion cycles to converge.
    config.warmup = quick ? 6 * ct::kSecond : 12 * ct::kSecond;
    config.measure = quick ? 6 * ct::kSecond : 10 * ct::kSecond;
    return config;
  };
  const auto victim_proc = [] {
    // Low-rate and near-uniform: each victim page is touched slower than the reclaim
    // aging window, so a recency policy can (and without QoS, will) evict it for the
    // storm — the classic latency-sensitive-but-not-hot victim profile.
    return TenantKvProc("victim", 0, /*virtual_tenants=*/8, /*items_per_vt=*/768,
                        /*interarrival=*/16 * ct::kMicrosecond, /*key_zipf_s=*/0.2);
  };
  const auto bully_proc = [] {
    ct::TenantKvConfig w;
    w.virtual_tenants = 16;
    w.items_per_tenant = 512;  // 32 MB of value pages.
    w.value_bytes = ct::kBasePageSize;
    w.mean_interarrival = 1 * ct::kMicrosecond;
    w.churn_period_ops = 1000000;  // ~1 s per popularity rotation at 1 us interarrival.
    w.churn_stride = 5;
    // The victim finishes first-touch placement before the storm arrives: every nn row
    // starts from the same fully-fast victim, and QoS alone decides the trajectory.
    w.start_delay = 100 * ct::kMillisecond;
    ct::ProcessSpec spec{"bully", [w] { return std::make_unique<ct::TenantKvStream>(w); }};
    spec.tenant = 1;
    return spec;
  };
  {
    ct::MatrixRow row;
    row.label = "nn-solo";
    row.config = nn_machine();
    row.config.tenants.push_back(ct::TenantSpec{});
    row.config.tenants.back().name = "victim";
    row.processes.push_back(victim_proc());
    nn_rows.push_back(std::move(row));
  }
  for (const bool strict : {false, true}) {
    ct::MatrixRow row;
    row.label = strict ? "nn-strict" : "nn-noqos";
    row.config = nn_machine();
    ct::TenantSpec victim;
    victim.name = "victim";
    ct::TenantSpec bully;
    bully.name = "bully";
    if (strict) {
      bully.qos_program = "strict-budget";
      bully.residency_budget_pages = {1024};
      bully.migration_budget_bytes_per_sec = 16e6;
    }
    row.config.tenants = {victim, bully};
    row.processes = {victim_proc(), bully_proc()};
    nn_rows.push_back(std::move(row));
  }

  // --- chaos: the strict-budget cell under the fault schedule, auditor armed. ---
  std::vector<ct::MatrixRow> chaos_rows;
  {
    ct::MatrixRow row = QosRow("chaos", "strict-budget", /*seed=*/7, quick);
    row.config.fault = ChaosPlan(7);
    row.config.audit_period = 250 * ct::kMillisecond;
    chaos_rows.push_back(std::move(row));
  }

  std::vector<ct::MatrixCell> cells;
  ct::RunMatrixTwice(sweep_rows, policies, flags, ct::CheckMigrationLedger, cells);
  ct::RunMatrixTwice(qos_rows, chrono_only, flags, ct::CheckMigrationLedger, cells);
  ct::RunMatrixTwice(nn_rows, linux_nb_only, flags, ct::CheckMigrationLedger, cells);
  ct::RunMatrixTwice(chaos_rows, chrono_only, flags, ct::CheckMigrationLedger, cells);
  std::printf("determinism: %zu configurations bit-identical across two runs "
              "(per-tenant counters included)\n\n",
              cells.size());

  // Scaling sweep table.
  {
    ct::TextTable table({"row", "policy", "ops/s", "FMAR", "committed", "qos refusals"});
    for (const ct::MatrixCell& cell : cells) {
      if (cell.row.rfind("tenants-", 0) != 0) {
        continue;
      }
      table.AddRow({cell.row, cell.policy, ct::TextTable::Num(cell.result.throughput_ops),
                    ct::TextTable::Percent(cell.result.fmar),
                    std::to_string(cell.result.migrations_committed),
                    std::to_string(SumRefusals(cell.result))});
    }
    table.Print();
    std::printf("\n");
  }

  // QoS program comparison table (Chrono, 8 tenants, identical budgets).
  {
    ct::TextTable table({"row", "ops/s", "qos checks", "refusals", "admits", "borrows"});
    for (const ct::MatrixCell& cell : cells) {
      if (cell.row.rfind("qos-", 0) != 0 && cell.row != "chaos") {
        continue;
      }
      uint64_t checks = 0;
      uint64_t admits = 0;
      for (const ct::TenantResult& t : cell.result.tenants) {
        checks += t.qos_checks;
        admits += t.qos_admits;
      }
      table.AddRow({cell.row, ct::TextTable::Num(cell.result.throughput_ops),
                    std::to_string(checks), std::to_string(SumRefusals(cell.result)),
                    std::to_string(admits), std::to_string(SumBorrows(cell.result))});
    }
    table.Print();
    std::printf("\n");
  }

  // Noisy-neighbor band: find the three victim rows and assert the isolation story.
  const auto find_cell = [&](const std::string& row) -> const ct::MatrixCell& {
    for (const ct::MatrixCell& cell : cells) {
      if (cell.row == row) {
        return cell;
      }
    }
    CHECK(false) << "missing row " << row;
    __builtin_unreachable();
  };
  const ct::TenantResult& solo = find_cell("nn-solo").result.tenants[0];
  const ct::TenantResult& noqos = find_cell("nn-noqos").result.tenants[0];
  const ct::TenantResult& strict = find_cell("nn-strict").result.tenants[0];
  const ct::TenantResult& bully = find_cell("nn-strict").result.tenants[1];
  {
    ct::TextTable table({"row", "victim p50 ns", "victim p99 ns", "victim fast pages",
                         "bully fast pages", "bully refusals"});
    for (const std::string row : {"nn-solo", "nn-noqos", "nn-strict"}) {
      const ct::ExperimentResult& r = find_cell(row).result;
      const bool has_bully = r.tenants.size() > 1;
      table.AddRow({row, ct::TextTable::Num(r.tenants[0].p50_latency_ns),
                    ct::TextTable::Num(r.tenants[0].p99_latency_ns),
                    std::to_string(r.tenants[0].resident_fast_pages),
                    has_bully ? std::to_string(r.tenants[1].resident_fast_pages) : "-",
                    has_bully ? std::to_string(r.tenants[1].qos_refusals) : "-"});
    }
    table.Print();
  }
  CHECK_GT(noqos.p99_latency_ns, kNoQosDegradation * solo.p99_latency_ns)
      << "no-QoS bully caused no measurable victim p99 degradation — the demo shows "
         "nothing";
  CHECK_LT(strict.p99_latency_ns, kStrictBand * solo.p99_latency_ns)
      << "strict-budget failed to hold the victim's p99 within " << kStrictBand
      << "x of its solo run";
  CHECK_LE(strict.p99_latency_ns, noqos.p99_latency_ns)
      << "strict-budget made the victim slower than no QoS at all";
  CHECK_GT(bully.qos_refusals, 0u)
      << "the strict-budget bully was never refused — the budget never bound";
  std::printf("\nnoisy neighbor: victim p99 solo %.0f ns, no-QoS %.0f ns (%.2fx), "
              "strict-budget %.0f ns (%.2fx; band <= %.2fx)\n",
              solo.p99_latency_ns, noqos.p99_latency_ns,
              noqos.p99_latency_ns / solo.p99_latency_ns, strict.p99_latency_ns,
              strict.p99_latency_ns / solo.p99_latency_ns, kStrictBand);

  // Chaos row: the auditor (including tenant-residency conservation) stayed green under
  // fault injection, and QoS kept working — CheckMigrationLedger already asserted that
  // audits ran.
  const ct::ExperimentResult& chaos = find_cell("chaos").result;
  CHECK_GT(SumRefusals(chaos), 0u)
      << "chaos row: strict-budget never refused anything under faults";
  std::printf("chaos row: %" PRIu64 " audits clean under fault injection, %" PRIu64
              " tenant QoS refusals\n",
              chaos.audits_run, SumRefusals(chaos));

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    ct::JsonWriter json(out);
    json.set_pretty(true);
    json.BeginObject();
    json.Field("quick", quick);
    json.Key("noisy_neighbor");
    json.BeginObject();
    json.Field("solo_p99_ns", solo.p99_latency_ns);
    json.Field("noqos_p99_ns", noqos.p99_latency_ns);
    json.Field("strict_p99_ns", strict.p99_latency_ns);
    json.Field("noqos_degradation", noqos.p99_latency_ns / solo.p99_latency_ns);
    json.Field("strict_vs_solo", strict.p99_latency_ns / solo.p99_latency_ns);
    json.Field("strict_band", kStrictBand);
    json.Field("min_noqos_degradation", kNoQosDegradation);
    json.EndObject();
    json.Key("runs");
    json.BeginArray();
    for (const ct::MatrixCell& cell : cells) {
      const ct::ExperimentResult& r = cell.result;
      json.BeginObject();
      json.Field("row", cell.row);
      json.Field("policy", cell.policy);
      json.Field("throughput_ops", r.throughput_ops);
      json.Field("fmar", r.fmar);
      json.Field("committed", r.migrations_committed);
      json.Field("refused", r.migrations_refused);
      json.Field("audits_run", r.audits_run);
      json.Field("commit_hash", r.migration_commit_hash);
      json.Key("tenants");
      json.BeginArray();
      for (const ct::TenantResult& t : r.tenants) {
        json.BeginObject();
        json.Field("name", t.name);
        json.Field("accesses", t.accesses);
        json.Field("p50_latency_ns", t.p50_latency_ns);
        json.Field("p99_latency_ns", t.p99_latency_ns);
        json.Field("resident_fast_pages", t.resident_fast_pages);
        json.Field("resident_total_pages", t.resident_total_pages);
        json.Field("qos_checks", t.qos_checks);
        json.Field("qos_refusals", t.qos_refusals);
        json.Field("qos_admits", t.qos_admits);
        json.Field("borrows", t.borrows);
        json.Field("migration_pages_admitted", t.migration_pages_admitted);
        json.Field("migration_bytes_admitted", t.migration_bytes_admitted);
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    out << "\n";
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
