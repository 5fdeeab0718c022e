// Figure 14 (extension): tiering policies on N-endpoint CXL topologies.
//
// The paper's testbed is a two-tier DRAM + Optane box; this bench extends the sweep to the
// CXL fabric shapes CXLMemSim-style emulators describe with topology strings. Endpoint
// count sweeps 1 -> 8 over a fixed physical budget (25% DRAM at the root, the rest split
// evenly across endpoints), wired as two chains under the root so larger fabrics contain
// genuinely multi-hop endpoints:
//
//   1 endpoint:  (1,2)                      8 endpoints: (1,(2,(4,(6,8))),(3,(5,(7,9))))
//   4 endpoints: (1,(2,4),(3,5))                          [depth-4 chains; promotions from
//                                                          the leaves route 4 links]
//
// Each topology runs the six paper policies plus endpoint_aware_hotness (the placement
// policy from src/policies that weighs hotness against endpoint distance and live link
// congestion). Reported per cell: throughput, FMAR, p99, congestion totals, and the
// routed-copy counters. Every configuration is run twice and checked bit-identical in
// every result field (RunMatrixTwice) — the N-tier machine must be exactly as
// deterministic as the two-tier one. Results go to BENCH_topology.json.
//
// Expected shape: throughput degrades as endpoints deepen (hop latency + shared links);
// endpoint_aware_hotness holds up best at 4-8 endpoints because demotions spread across
// near, quiet endpoints instead of piling onto the next node in index order.

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/json.h"
#include "src/topology/topology.h"

namespace ct = chronotier;

int main(int argc, char** argv) {
  std::string out_path = "BENCH_topology.json";
  bool quick = false;
  const ct::BenchFlags flags = ct::ParseBenchFlags(
      argc, argv,
      "Figure 14 (extension): policy sweep over 1-8 endpoint CXL topologies, with\n"
      "per-endpoint congestion and routed multi-hop migration.",
      {{"--out", "FILE", "result JSON path (default BENCH_topology.json)",
        [&out_path](const std::string& v) { out_path = v; }},
       {"--quick", "", "CI smoke: 1/4/8 endpoints, short windows",
        [&quick](const std::string&) { quick = true; }}});

  const std::vector<int> endpoint_counts =
      quick ? std::vector<int>{1, 4, 8} : std::vector<int>{1, 2, 4, 8};
  const uint64_t total_pages = (256ull << 20) / ct::kBasePageSize;
  const auto policies = ct::TopologyPolicySet(ct::BenchGeometry());

  std::vector<ct::MatrixRow> rows;
  for (const int endpoints : endpoint_counts) {
    ct::MatrixRow row;
    row.label = std::to_string(endpoints) + "ep";
    row.config = ct::BenchMachine();
    row.config.topology = ct::BenchChainTopology(endpoints, total_pages, 0.25);
    row.config.warmup = quick ? 5 * ct::kSecond : 15 * ct::kSecond;
    row.config.measure = quick ? 8 * ct::kSecond : 25 * ct::kSecond;
    // 12 us/op keeps the combined access stream just above a single scaled endpoint
    // link's service rate and below the aggregate of several: the 1-endpoint row runs
    // congested, larger fabrics relieve it, and migration bursts re-congest individual
    // links — the gradient the sweep is about. (At the benches' usual 2 us/op every link
    // saturates permanently and all rows pin at the per-access delay cap.)
    row.processes = {ct::BenchPmbenchProc(96, 0.70, 12 * ct::kMicrosecond),
                     ct::BenchPmbenchProc(96, 0.70, 12 * ct::kMicrosecond)};
    rows.push_back(std::move(row));
  }

  ct::PrintBanner("Fig 14: policy x endpoint-count sweep (run twice, checked identical)");
  std::vector<ct::MatrixCell> cells;
  ct::RunMatrixTwice(rows, policies, flags, nullptr, cells);
  std::printf("determinism: %zu configurations bit-identical across two runs\n\n",
              cells.size());

  for (size_t r = 0; r < rows.size(); ++r) {
    std::printf("--- %d endpoint(s): %s\n", endpoint_counts[r],
                rows[r].config.topology.tree.c_str());
    ct::TextTable table({"policy", "ops/s", "FMAR", "p99 ns", "congested acc",
                         "queued ms", "multi-hop copies", "legs", "committed"});
    for (size_t i = 0; i < policies.size(); ++i) {
      const ct::ExperimentResult& result = cells[r * policies.size() + i].result;
      table.AddRow(
          {policies[i].name, ct::TextTable::Num(result.throughput_ops, 0),
           ct::TextTable::Percent(result.fmar), ct::TextTable::Num(result.p99_latency_ns, 0),
           ct::TextTable::Int(static_cast<long long>(result.congested_accesses)),
           ct::TextTable::Num(static_cast<double>(result.congestion_queued_ns) / 1e6),
           ct::TextTable::Int(static_cast<long long>(result.multi_hop_copies)),
           ct::TextTable::Int(static_cast<long long>(result.multi_hop_legs)),
           ct::TextTable::Int(static_cast<long long>(result.migrations_committed))});
    }
    table.Print();
    std::printf("\n");
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  {
    ct::JsonWriter json(out);
    json.set_pretty(true);
    json.BeginObject();
    json.Field("quick", quick);
    json.Key("cells");
    json.BeginArray();
    for (size_t k = 0; k < cells.size(); ++k) {
      const ct::MatrixCell& cell = cells[k];
      json.BeginObject();
      json.Field("endpoints", endpoint_counts[k / policies.size()]);
      json.Field("policy", cell.policy);
      json.Field("throughput_ops", cell.result.throughput_ops);
      json.Field("fmar", cell.result.fmar);
      json.Field("p99_latency_ns", cell.result.p99_latency_ns);
      json.Field("congested_accesses", cell.result.congested_accesses);
      json.Field("congestion_queued_ns", cell.result.congestion_queued_ns);
      json.Field("multi_hop_copies", cell.result.multi_hop_copies);
      json.Field("multi_hop_legs", cell.result.multi_hop_legs);
      json.Field("migrations_committed", cell.result.migrations_committed);
      json.Field("migrations_refused", cell.result.migrations_refused);
      json.Field("commit_hash", cell.result.migration_commit_hash);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  out << "\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
