// Fabric chaos soak: every policy in the topology lineup runs on multi-endpoint CXL
// trees while the fabric itself misbehaves — link bandwidth collapses and total link-down
// windows force in-flight multi-hop copies to dirty-abort and re-route, and endpoint
// failures trigger engine-driven page evacuation to the surviving endpoints. The invariant
// auditor is armed throughout with the fabric invariants (no resident pages on an offline
// endpoint, no bytes booked on a down link, residency conservation); any violation aborts
// this binary. Three schedules run per policy:
//
//   Nep-fabric:    base chaos faults + randomized link degrade/down windows + a periodic
//                  endpoint failure that recovers, on the 4- and 8-endpoint chains
//   4ep-hot-remove: one scripted, permanent endpoint hot-remove mid-measure; the run
//                  asserts the endpoint drained to zero resident pages and went offline
//   4ep-clean:     base chaos faults only, no fabric plan — asserts every fabric counter
//                  is exactly zero (the fabric layer is inert when not scheduled)
//
// Everything runs twice and is checked bit-identical in every result field
// (RunMatrixTwice): fault-domain recovery must be exactly as deterministic as the
// healthy fabric.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/check.h"
#include "src/common/json.h"
#include "src/topology/health.h"

namespace ct = chronotier;

namespace {

// The leaf endpoint under node 1 in the 4-endpoint chain (1,(2,4),(3,5)): node id 3.
constexpr ct::NodeId kHotRemoveNode = 3;

// Randomized fabric faults on top of the base schedule: link windows fire often enough
// that multi-hop copies cross them, and one endpoint periodically fails and recovers so
// evacuation, allocation steering, and recovery all get exercised in a single run.
ct::FaultPlan FabricPlan(uint64_t seed) {
  ct::FaultPlan plan = ct::BaseChaosPlan(seed);
  plan.fabric.link_fault_period = 700 * ct::kMillisecond;
  plan.fabric.link_fault_fire_p = 0.6;
  plan.fabric.link_down_p = 0.5;
  plan.fabric.link_down_duration = 30 * ct::kMillisecond;
  plan.fabric.link_degrade_duration = 60 * ct::kMillisecond;
  plan.fabric.link_degrade_factor = 8.0;
  plan.fabric.endpoint_fail_period = 6 * ct::kSecond;
  plan.fabric.endpoint_fail_fire_p = 1.0;
  plan.fabric.endpoint_recovery_after = 4 * ct::kSecond;
  return plan;
}

ct::ExperimentConfig SoakMachine(int endpoints, uint64_t fault_seed, bool quick) {
  ct::ExperimentConfig config;
  config.total_pages = (64ull << 20) / ct::kBasePageSize;  // 64 MB miniature machine.
  config.topology = ct::BenchChainTopology(endpoints, config.total_pages, 0.25);
  config.bandwidth_scale = ct::kBenchBandwidthScale;
  config.warmup = quick ? 2 * ct::kSecond : 5 * ct::kSecond;
  config.measure = quick ? 10 * ct::kSecond : 20 * ct::kSecond;
  config.seed = 42 + fault_seed;
  config.audit_period = 250 * ct::kMillisecond;
  return config;
}

std::vector<ct::ProcessSpec> SoakProcesses(ct::SimDuration per_op_delay) {
  return {ct::BenchPmbenchProc(/*working_set_mb=*/20, 0.5, per_op_delay),
          ct::BenchPmbenchProc(/*working_set_mb=*/20, 0.5, per_op_delay)};
}

// Shared per-run assertions — stateless, safe across concurrently running soak cells.
void CheckSoakRun(ct::Machine& machine, ct::ExperimentResult& result) {
  ct::CheckMigrationLedger(machine, result);
  // Fabric invariant, re-asserted at the bench layer: an offline endpoint holds nothing.
  const ct::TopologyHealth& health = machine.memory().health();
  for (ct::NodeId id = 0; id < machine.memory().num_nodes(); ++id) {
    if (health.endpoint(id) != ct::EndpointHealth::kOffline) {
      continue;
    }
    CHECK_EQ(machine.memory().node(id).allocated_pages(), 0u)
        << "offline endpoint " << int{id} << " still holds resident pages";
    CHECK_EQ(machine.migration().inflight_reserved_pages_on(id), 0u)
        << "offline endpoint " << int{id} << " still holds in-flight reservations";
  }
}

// Hot-remove rows additionally require the scripted removal to have completed: the
// endpoint must have drained fully and gone offline before the run ended.
void CheckHotRemoveRun(ct::Machine& machine, ct::ExperimentResult& result) {
  CheckSoakRun(machine, result);
  const ct::TopologyHealth& health = machine.memory().health();
  CHECK(health.endpoint(kHotRemoveNode) == ct::EndpointHealth::kOffline)
      << "policy " << result.policy_name
      << ": hot-removed endpoint never finished draining (still "
      << (health.endpoint(kHotRemoveNode) == ct::EndpointHealth::kFailing ? "FAILING"
                                                                          : "HEALTHY")
      << ")";
  CHECK_EQ(result.evacuation_refused, 0u)
      << "policy " << result.policy_name << " hit the drain deadline";
  CHECK_GT(result.evacuated_pages, 0u)
      << "policy " << result.policy_name << " evacuated nothing from a populated endpoint";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool quick = false;
  const ct::BenchFlags flags = ct::ParseBenchFlags(
      argc, argv,
      "Fabric chaos soak: every topology policy on 4/8-endpoint trees under link\n"
      "degrade/down windows, endpoint failures with evacuation, and a scripted\n"
      "permanent hot-remove; runs twice, checked bit-identical.",
      {{"--out", "FILE", "also write the fabric degradation profile as JSON",
        [&out_path](const std::string& v) { out_path = v; }},
       {"--quick", "", "4-endpoint rows only, short windows (CI smoke)",
        [&quick](const std::string&) { quick = true; }}});
  ct::PrintBanner("Fabric soak: policies under link/endpoint fault schedules");
  const auto policies = ct::TopologyPolicySet(ct::BenchGeometry());

  // Randomized-schedule rows: base chaos + fabric faults on the chain fabrics, plus the
  // clean control row that must leave every fabric counter at zero.
  std::vector<ct::MatrixRow> chaos_rows;
  const std::vector<int> fabric_endpoints = quick ? std::vector<int>{4}
                                                  : std::vector<int>{4, 8};
  for (const int endpoints : fabric_endpoints) {
    ct::MatrixRow row;
    row.label = std::to_string(endpoints) + "ep-fabric";
    row.config = SoakMachine(endpoints, /*fault_seed=*/7 + endpoints, quick);
    row.config.fault = FabricPlan(7 + endpoints);
    row.processes = SoakProcesses(2 * ct::kMicrosecond);
    chaos_rows.push_back(std::move(row));
  }
  {
    ct::MatrixRow row;
    row.label = "4ep-clean";
    row.config = SoakMachine(4, /*fault_seed=*/7, quick);
    // No fabric plan: the fabric layer must stay inert.
    row.config.fault = ct::BaseChaosPlan(7);
    row.processes = SoakProcesses(2 * ct::kMicrosecond);
    chaos_rows.push_back(std::move(row));
  }

  // Scripted hot-remove row: one permanent endpoint failure early in the measured window,
  // no other faults — the assertion is that the drain completes. The row runs the fig14
  // 12 us/op load (congestion transient, not permanent): evacuation flows through the
  // existing reclaim-class admission, which refuses while a channel's backlog exceeds its
  // limit, so on a permanently saturated fabric a drain can never finish — that saturated
  // regime is what the Nep-fabric rows cover, where refusal (not completion) is the
  // OOM-safe contract being exercised.
  std::vector<ct::MatrixRow> remove_rows;
  {
    ct::MatrixRow row;
    row.label = "4ep-hot-remove";
    row.config = SoakMachine(4, /*fault_seed=*/11, quick);
    ct::FaultPlan plan;
    plan.enabled = true;
    plan.seed = 11;
    plan.fabric.endpoint_drain_deadline = 6 * ct::kSecond;
    ct::FabricFaultPlan::EndpointEvent ev;
    ev.at = row.config.warmup + 2 * ct::kSecond;
    ev.node = kHotRemoveNode;
    ev.recover_after = 0;  // Permanent hot-remove.
    plan.fabric.endpoint_events.push_back(ev);
    row.config.fault = plan;
    row.processes = SoakProcesses(12 * ct::kMicrosecond);
    remove_rows.push_back(std::move(row));
  }

  std::vector<ct::MatrixCell> cells;
  ct::RunMatrixTwice(chaos_rows, policies, flags, CheckSoakRun, cells);
  ct::RunMatrixTwice(remove_rows, policies, flags, CheckHotRemoveRun, cells);
  std::printf("determinism: %zu configurations bit-identical across two runs\n\n",
              cells.size());

  // The clean row proves the fabric layer is inert when nothing is scheduled.
  for (const ct::MatrixCell& cell : cells) {
    if (cell.row != "4ep-clean") {
      continue;
    }
    const ct::ExperimentResult& r = cell.result;
    CHECK(r.links_down == 0 && r.endpoint_failures == 0 && r.evacuated_pages == 0 &&
          r.evacuation_refused == 0 && r.reroutes == 0 && r.reroute_parks == 0)
        << "fabric counters moved in the clean row (policy " << cell.policy << ")";
  }

  ct::TextTable table({"row", "policy", "committed", "reroutes", "parks", "links down",
                       "ep fails", "evacuated", "refused", "audits"});
  for (const ct::MatrixCell& cell : cells) {
    const ct::ExperimentResult& r = cell.result;
    table.AddRow({cell.row, cell.policy, std::to_string(r.migrations_committed),
                  std::to_string(r.reroutes), std::to_string(r.reroute_parks),
                  std::to_string(r.links_down), std::to_string(r.endpoint_failures),
                  std::to_string(r.evacuated_pages), std::to_string(r.evacuation_refused),
                  std::to_string(r.audits_run)});
  }
  table.Print();
  std::printf("\nEvery run above finished with a clean invariant audit (fabric invariants\n"
              "included); the hot-remove rows drained their endpoint to zero resident\n"
              "pages before going offline.\n");

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
    json.Key("runs");
    json.BeginArray();
    for (const ct::MatrixCell& cell : cells) {
      const ct::ExperimentResult& r = cell.result;
      json.BeginObject();
      json.Field("row", cell.row);
      json.Field("policy", cell.policy);
      json.Field("throughput_ops", r.throughput_ops);
      json.Field("committed", r.migrations_committed);
      json.Field("aborted", r.migrations_aborted);
      json.Field("parked", r.migrations_parked);
      json.Field("reroutes", r.reroutes);
      json.Field("reroute_parks", r.reroute_parks);
      json.Field("links_down", r.links_down);
      json.Field("endpoint_failures", r.endpoint_failures);
      json.Field("evacuated_pages", r.evacuated_pages);
      json.Field("evacuation_refused", r.evacuation_refused);
      json.Field("audits_run", r.audits_run);
      json.Field("commit_hash", r.migration_commit_hash);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    out << "\n";
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
