// Chaos soak: every policy in the paper's lineup runs under a randomized fault schedule —
// transient/persistent copy faults, channel stalls with bandwidth collapse, fast-tier
// pressure spikes (degraded mode + emergency reclaim), and allocation-failure windows —
// with the invariant auditor armed at a tight period. The run itself is the assertion:
// Experiment::Run CHECK-fails (aborting this binary) if any audit ever reports a frame
// leak, LRU divergence, residency skew, or watermark disorder, and the soak additionally
// CHECKs the transaction ledger (submitted = committed + aborted + parked + in flight).
// The table it prints is the degradation profile each policy exhibited while surviving.

#include <cstdio>
#include <fstream>
#include <string>

#include "bench/bench_common.h"
#include "src/common/json.h"

namespace ct = chronotier;

namespace {

ct::ExperimentConfig SoakMachine(uint64_t fault_seed) {
  ct::ExperimentConfig config;
  config.total_pages = (64ull << 20) / ct::kBasePageSize;  // 64 MB miniature machine.
  config.fast_fraction = 0.25;
  config.bandwidth_scale = ct::kBenchBandwidthScale;
  config.warmup = 5 * ct::kSecond;
  config.measure = 20 * ct::kSecond;
  config.seed = 42 + fault_seed;
  config.fault = ct::BaseChaosPlan(fault_seed);
  config.audit_period = 250 * ct::kMillisecond;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool quick = false;
  const ct::BenchFlags flags = ct::ParseBenchFlags(
      argc, argv,
      "Chaos soak: every policy runs under a randomized fault schedule with the\n"
      "invariant auditor armed; the run itself is the assertion.",
      {{"--out", "FILE", "also write the degradation profile as JSON",
        [&out_path](const std::string& v) { out_path = v; }},
       {"--quick", "", "one fault seed, short windows (CI smoke)",
        [&quick](const std::string&) { quick = true; }}});
  ct::PrintBanner("Chaos soak: all policies under randomized fault schedules");
  // The topology lineup = the six paper policies + endpoint_aware_hotness, so the
  // placement policy survives the same chaos schedules as everything else.
  const auto policies = ct::TopologyPolicySet(ct::BenchGeometry());
  const std::vector<uint64_t> fault_seeds = quick ? std::vector<uint64_t>{7}
                                                  : std::vector<uint64_t>{7, 19};

  std::vector<ct::MatrixRow> rows;
  for (const uint64_t seed : fault_seeds) {
    ct::MatrixRow row;
    row.label = "seed-" + std::to_string(seed);
    row.config = SoakMachine(seed);
    if (quick) {
      row.config.warmup = 2 * ct::kSecond;
      row.config.measure = 6 * ct::kSecond;
    }
    row.processes = {ct::BenchPmbenchProc(/*working_set_mb=*/20, 0.5),
                     ct::BenchPmbenchProc(/*working_set_mb=*/20, 0.5)};
    rows.push_back(std::move(row));
  }
  // One N-tier row: the same (non-fabric) fault schedule on the 4-endpoint chain fabric,
  // so stalls, pressure spikes, and allocation failures also soak the routed engine.
  {
    ct::MatrixRow row;
    row.label = "seed-7-4ep";
    row.config = SoakMachine(7);
    row.config.topology = ct::BenchChainTopology(4, row.config.total_pages, 0.25);
    if (quick) {
      row.config.warmup = 2 * ct::kSecond;
      row.config.measure = 6 * ct::kSecond;
    }
    row.processes = {ct::BenchPmbenchProc(/*working_set_mb=*/20, 0.5),
                     ct::BenchPmbenchProc(/*working_set_mb=*/20, 0.5)};
    rows.push_back(std::move(row));
  }
  const auto results = ct::RunMatrix(rows, policies, flags, /*inspect=*/nullptr,
                                     ct::CheckMigrationLedger);

  ct::TextTable table({"policy", "row", "committed", "parked", "transient", "persistent",
                       "quarantined", "stalls", "spikes", "alloc refusals", "audits"});
  for (size_t p = 0; p < policies.size(); ++p) {
    for (size_t s = 0; s < rows.size(); ++s) {
      const ct::ExperimentResult& r = results[s][p];
      table.AddRow({policies[p].name, rows[s].label,
                    std::to_string(r.migrations_committed),
                    std::to_string(r.migrations_parked),
                    std::to_string(r.faults_injected_transient),
                    std::to_string(r.faults_injected_persistent),
                    std::to_string(r.frames_quarantined), std::to_string(r.stall_windows),
                    std::to_string(r.pressure_spikes), std::to_string(r.alloc_refusals),
                    std::to_string(r.audits_run)});
    }
  }
  table.Print();
  std::printf("\nEvery run above finished with a clean end-of-run invariant audit; any\n"
              "violation (frame leak, LRU divergence, residency skew) aborts this binary.\n");

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    ct::JsonWriter json(out);
    json.set_pretty(true);
    json.BeginObject();
    json.Key("runs");
    json.BeginArray();
    for (size_t p = 0; p < policies.size(); ++p) {
      for (size_t s = 0; s < rows.size(); ++s) {
        const ct::ExperimentResult& r = results[s][p];
        json.BeginObject();
        json.Field("policy", policies[p].name);
        json.Field("row", rows[s].label);
        json.Field("committed", r.migrations_committed);
        json.Field("aborted", r.migrations_aborted);
        json.Field("parked", r.migrations_parked);
        json.Field("transient_faults", r.faults_injected_transient);
        json.Field("persistent_faults", r.faults_injected_persistent);
        json.Field("quarantined", r.frames_quarantined);
        json.Field("stall_windows", r.stall_windows);
        json.Field("pressure_spikes", r.pressure_spikes);
        json.Field("alloc_refusals", r.alloc_refusals);
        json.Field("audits_run", r.audits_run);
        json.Field("trace_events_dropped", r.trace_events_dropped);
        json.EndObject();
      }
    }
    json.EndArray();
    json.EndObject();
    out << "\n";
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
