// Tests for the observability subsystem (src/trace): the tracing-on/off
// bitwise-determinism guarantee, ring overwrite accounting, category masks, per-page
// provenance, telemetry sampling, and the Chrome-trace exporter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/standard_policies.h"
#include "src/harness/experiment.h"
#include "src/harness/machine.h"
#include "src/trace/exporter.h"
#include "src/trace/tracer.h"
#include "src/workloads/pmbench.h"
#include "tests/experiment_result_testutil.h"

namespace chronotier {
namespace {

ScanGeometry ObsGeometry() {
  ScanGeometry geometry;
  geometry.scan_period = 2 * kSecond;
  geometry.scan_step_pages = 512;
  return geometry;
}

ExperimentConfig ObsMachine() {
  ExperimentConfig config;
  config.total_pages = 8192;  // 32 MB machine, 8 MB DRAM.
  config.bandwidth_scale = 256.0;
  config.warmup = 2 * kSecond;
  config.measure = 3 * kSecond;
  config.seed = 7;
  config.residency_sample_interval = kSecond;
  return config;
}

std::vector<ProcessSpec> ObsProcs() {
  PmbenchConfig w;
  w.working_set_bytes = 3072 * kBasePageSize;  // 12 MB > DRAM: forces migration traffic.
  w.read_ratio = 0.5;
  w.per_op_delay = 8 * kMicrosecond;
  w.sequential_init = true;
  return {{"pm", [w] { return std::make_unique<PmbenchStream>(w); }},
          {"pm", [w] { return std::make_unique<PmbenchStream>(w); }}};
}

// Everything on, ring sized so nothing is ever overwritten (the equivalence claim needs
// the full volume recorded, and the drops counter is part of the compared result).
TraceConfig FullTracing() {
  TraceConfig trace;
  trace.enabled = true;
  trace.categories = kTraceAllCategories;
  trace.ring_capacity = 1ull << 21;
  trace.provenance_sample_period = 16;
  trace.telemetry_period = 100 * kMillisecond;
  return trace;
}

// The subsystem's core guarantee: tracing is strictly observational. With every category
// enabled (including per-access events on the fast path), every policy must produce an
// ExperimentResult bitwise identical to the untraced run — any divergence means an
// instrumentation site perturbed simulation state, RNG draws, or event interleaving.
TEST(ObservabilityTest, TracingOnIsBitwiseIdenticalForEveryPolicy) {
  for (const auto& named : StandardPolicySet(ObsGeometry())) {
    ExperimentConfig off = ObsMachine();
    ExperimentConfig on = ObsMachine();
    on.trace = FullTracing();

    const ExperimentResult result_off = Experiment::Run(off, named.make, ObsProcs());
    uint64_t recorded = 0;
    const ExperimentResult result_on = Experiment::Run(
        on, named.make, ObsProcs(), nullptr, [&recorded](Machine& machine, ExperimentResult&) {
          ASSERT_NE(machine.tracer(), nullptr);
          recorded = machine.tracer()->recorded();
        });

    EXPECT_GT(recorded, 0u) << named.name;
    // The ring must have been big enough, or the comparison below proves nothing.
    EXPECT_EQ(result_on.trace_events_dropped, 0u) << named.name;
    ExpectResultsIdentical(result_off, result_on, named.name);
  }
}

TEST(ObservabilityTest, RingOverwriteAccountingIsExact) {
  TraceConfig config;
  config.enabled = true;
  config.ring_capacity = 8;
  config.telemetry_period = 0;
  Tracer tracer(config);
  for (int i = 0; i < 20; ++i) {
    tracer.Emit(TraceCategory::kMigration, TraceEventType::kMigrationCommit,
                /*ts=*/i * kMillisecond, /*pid=*/0, /*vpn=*/kTraceNoVpn);
  }
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.overwritten(), 12u);
  EXPECT_EQ(tracer.size(), 8u);
  // Retained events are the newest 8, iterated oldest-to-newest.
  std::vector<SimTime> ts;
  tracer.ForEachEvent([&ts](const TraceEvent& event) { ts.push_back(event.ts); });
  ASSERT_EQ(ts.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ts[i], (12 + i) * kMillisecond);
  }
}

TEST(ObservabilityTest, CategoryMaskFiltersEmissions) {
  TraceConfig config;
  config.enabled = true;
  config.categories =
      TraceCategoryBit(TraceCategory::kMigration) | TraceCategoryBit(TraceCategory::kFault);
  config.telemetry_period = 0;
  Tracer tracer(config);
  EXPECT_TRUE(tracer.wants(TraceCategory::kMigration));
  EXPECT_FALSE(tracer.wants(TraceCategory::kAccess));

  tracer.Emit(TraceCategory::kAccess, TraceEventType::kAccess, 0, 0, 1);
  tracer.Emit(TraceCategory::kScan, TraceEventType::kScanLap, 0, 0, kTraceNoVpn);
  EXPECT_EQ(tracer.recorded(), 0u);
  tracer.Emit(TraceCategory::kMigration, TraceEventType::kMigrationSubmit, 0, 0, 1);
  tracer.Emit(TraceCategory::kFault, TraceEventType::kDemandFault, 0, 0, 2);
  EXPECT_EQ(tracer.recorded(), 2u);
  EXPECT_EQ(tracer.overwritten(), 0u);
}

TEST(ObservabilityTest, ProvenanceKeepsBoundedHistoryPerSampledPage) {
  TraceConfig config;
  config.enabled = true;
  config.provenance_sample_period = 1;  // Sample every page.
  config.provenance_depth = 4;
  config.telemetry_period = 0;
  Tracer tracer(config);
  for (int i = 0; i < 10; ++i) {
    tracer.Emit(TraceCategory::kFault, TraceEventType::kHintFault, i * kMillisecond,
                /*pid=*/3, /*vpn=*/0x42);
  }
  tracer.Emit(TraceCategory::kFault, TraceEventType::kHintFault, 10 * kMillisecond,
              /*pid=*/4, /*vpn=*/0x43);

  // One page per sampled (pid, vpn); the bounded history keeps the newest 4 of the 10,
  // oldest-to-newest.
  std::ostringstream dump;
  tracer.WriteProvenance(dump);
  std::istringstream lines(dump.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("# page provenance: 2 sampled pages", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "page pid=3 vpn=0x42 events=10 (showing last 4)");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.rfind("  " + std::to_string(6 + i) + "ms ", 0), 0u) << line;
  }
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "page pid=4 vpn=0x43 events=1");
}

TEST(ObservabilityTest, ProvenanceDisabledWhenPeriodZero) {
  TraceConfig config;
  config.enabled = true;
  config.provenance_sample_period = 0;
  config.telemetry_period = 0;
  Tracer tracer(config);
  tracer.Emit(TraceCategory::kFault, TraceEventType::kHintFault, 0, 0, 0x42);
  std::ostringstream dump;
  tracer.WriteProvenance(dump);
  EXPECT_EQ(dump.str().rfind("# page provenance: 0 sampled pages", 0), 0u) << dump.str();
  EXPECT_EQ(dump.str().find("page pid="), std::string::npos);
}

TEST(ObservabilityTest, TelemetrySamplerHonorsPeriod) {
  TelemetrySampler sampler(100 * kMillisecond);
  sampler.set_snapshot_fn([](SimTime, TelemetrySample* sample) {
    sample->tiers.resize(2);
    sample->tiers[0].allocated = 7;
  });
  sampler.MaybeSample(0);
  sampler.MaybeSample(50 * kMillisecond);   // Not due.
  sampler.MaybeSample(100 * kMillisecond);
  sampler.MaybeSample(101 * kMillisecond);  // Not due.
  sampler.MaybeSample(350 * kMillisecond);
  ASSERT_EQ(sampler.samples().size(), 3u);
  EXPECT_EQ(sampler.samples()[0].ts, 0);
  EXPECT_EQ(sampler.samples()[1].ts, 100 * kMillisecond);
  EXPECT_EQ(sampler.samples()[2].ts, 350 * kMillisecond);
  sampler.ForceSample(350 * kMillisecond);  // Dedups on identical timestamp.
  EXPECT_EQ(sampler.samples().size(), 3u);
  sampler.ForceSample(400 * kMillisecond);
  EXPECT_EQ(sampler.samples().size(), 4u);

  std::ostringstream csv;
  sampler.WriteCsv(csv);
  const std::string text = csv.str();
  EXPECT_EQ(text.rfind("ts_ms,", 0), 0u);  // Header row first.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);  // Header + 4 samples.

  std::ostringstream json;
  sampler.WriteJson(json);
  EXPECT_EQ(json.str().front(), '[');
}

// Structural well-formedness: every brace/bracket outside a string literal balances.
// (CI additionally runs `python3 -m json.tool` over a real exported trace.)
void ExpectBalancedJson(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST(ObservabilityTest, ExporterSortsEachTrackByTimestamp) {
  TraceConfig config;
  config.enabled = true;
  config.telemetry_period = 0;
  Tracer tracer(config);
  tracer.SetProcessName(0, "worker");
  // Engine lifecycle track (pid 2 / tid 0), deliberately emitted out of time order —
  // the global ring is emission-ordered, not per-track time-ordered.
  tracer.Emit(TraceCategory::kMigration, TraceEventType::kMigrationSubmit,
              300 * kMicrosecond, 0, 5, kSlowNode, kFastNode);
  tracer.Emit(TraceCategory::kMigration, TraceEventType::kMigrationCommit,
              100 * kMicrosecond, 0, 4, kSlowNode, kFastNode);
  tracer.Emit(TraceCategory::kMigration, TraceEventType::kMigrationCopy,
              200 * kMicrosecond, 0, 4, kSlowNode, kFastNode, 1, 50000);
  tracer.Emit(TraceCategory::kReclaim, TraceEventType::kReclaimWake, 10 * kMicrosecond,
              kTraceNoPid, kTraceNoVpn, kFastNode);

  std::ostringstream out;
  WriteChromeTrace(tracer, out);
  const std::string json = out.str();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"migration engine\""), std::string::npos);
  EXPECT_NE(json.find("\"reclaim\""), std::string::npos);
  // The copy event renders as a duration slice on its own channel track.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Within the engine lifecycle track the commit (ts 100) must precede the submit
  // (ts 300) after the exporter's per-track sort.
  const size_t commit = json.find("migration_commit");
  const size_t submit = json.find("migration_submit");
  ASSERT_NE(commit, std::string::npos);
  ASSERT_NE(submit, std::string::npos);
  EXPECT_LT(commit, submit);
}

TEST(ObservabilityTest, ExperimentWritesAllExportFiles) {
  const std::string dir = ::testing::TempDir();
  ExperimentConfig config = ObsMachine();
  config.warmup = kSecond;
  config.measure = kSecond;
  config.trace = FullTracing();
  config.trace.export_path = dir + "/obs_trace.json";
  config.trace.timeseries_path = dir + "/obs_telemetry.csv";
  config.trace.provenance_path = dir + "/obs_provenance.txt";
  config.trace.provenance_sample_period = 4;

  const auto policies = StandardPolicySet(ObsGeometry());
  const ExperimentResult result =
      Experiment::Run(config, policies.front().make, ObsProcs());
  EXPECT_EQ(result.trace_events_dropped, 0u);

  std::ifstream trace_file(config.trace.export_path);
  ASSERT_TRUE(trace_file.good());
  std::stringstream trace_text;
  trace_text << trace_file.rdbuf();
  ExpectBalancedJson(trace_text.str());
  EXPECT_EQ(trace_text.str().front(), '{');
  EXPECT_NE(trace_text.str().find("\"displayTimeUnit\""), std::string::npos);

  std::ifstream csv_file(config.trace.timeseries_path);
  ASSERT_TRUE(csv_file.good());
  std::string header;
  std::getline(csv_file, header);
  EXPECT_EQ(header.rfind("ts_ms,", 0), 0u);

  std::ifstream prov_file(config.trace.provenance_path);
  ASSERT_TRUE(prov_file.good());
  std::string first;
  std::getline(prov_file, first);
  EXPECT_EQ(first.rfind("# page provenance:", 0), 0u);

  std::remove(config.trace.export_path.c_str());
  std::remove(config.trace.timeseries_path.c_str());
  std::remove(config.trace.provenance_path.c_str());
}

TEST(ObservabilityTest, TinyRingSurfacesDropsInResult) {
  ExperimentConfig config = ObsMachine();
  config.warmup = kSecond;
  config.measure = kSecond;
  config.trace = FullTracing();
  config.trace.ring_capacity = 64;  // Guaranteed to wrap under the access firehose.

  const auto policies = StandardPolicySet(ObsGeometry());
  const ExperimentResult result =
      Experiment::Run(config, policies.front().make, ObsProcs());
  EXPECT_GT(result.trace_events_dropped, 0u);
}

}  // namespace
}  // namespace chronotier
