// Table 2: Chrono's configurable parameters and their defaults, printed from ChronoConfig's
// fields and constants so the table cannot drift from the code.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/chrono_config.h"

namespace ct = chronotier;

int main(int argc, char** argv) {
  ct::ParseBenchFlags(argc, argv,
                      "Table 2: Chrono parameter defaults (read from ChronoConfig).");
  std::printf("Table 2: Chrono parameter defaults (paper values; read from ChronoConfig).\n");
  const ct::ChronoConfig config;  // Paper defaults.

  ct::PrintBanner("Table 2: summary of parameter default values in Chrono");
  ct::TextTable table({"name", "default", "description"});
  table.AddRow({"Scan step",
                std::to_string(config.geometry.scan_step_pages * ct::kBasePageSize >> 20) +
                    " MB",
                "Marked page set size of a Ticking-scan event"});
  table.AddRow({"Scan period", ct::FormatDuration(config.geometry.scan_period),
                "Period for Ticking-scan to loop over address space"});
  table.AddRow({"P-victim", ct::TextTable::Percent(config.p_victim, 3),
                "Ratio of pages sampled in the DCSC scheme"});
  table.AddRow({"B-bucket", ct::TextTable::Int(ct::ChronoConfig::kBBuckets),
                "Number of different CIT-levels in DCSC stats"});
  table.AddRow({"delta-step", ct::TextTable::Num(config.delta_step, 1),
                "Adaption step for CIT threshold adjustment"});
  table.AddRow({"CIT threshold", ct::FormatDuration(ct::ChronoConfig::kInitialCitThreshold),
                "Auto-tuned (initial value)"});
  table.AddRow({"Rate limit", ct::TextTable::Num(config.initial_rate_limit_mbps, 0) + " MBps",
                "Auto-tuned (initial value)"});
  table.Print();

  ct::PrintBanner("Derived constants");
  ct::TextTable derived({"constant", "value"});
  derived.AddRow({"filter rounds (default)", ct::TextTable::Int(config.filter_rounds)});
  derived.AddRow({"tuning mode (default)", "DCSC (fully automatic)"});
  derived.AddRow({"max CIT threshold",
                  ct::FormatDuration(ct::ChronoConfig::kMaxCitThreshold) +
                      " (2^27 ms ~ 37.3 h)"});
  derived.AddRow({"thrash ratio threshold",
                  ct::TextTable::Percent(ct::ChronoConfig::kThrashRatioThreshold, 0)});
  derived.AddRow({"TH(2MB) scaling", "TH(4KB) / 512"});
  derived.AddRow({"TH(1GB) scaling", "TH(4KB) / 512^2"});
  derived.Print();
  return 0;
}
