// Multi-tenant example: several co-located applications of different hotness share one
// tiered machine (the Fig. 9 scenario as an API walkthrough).
//
//   $ ./examples/multi_tenant
//
// Shows per-process numa_stat-style accounting (Process::FastTierResidencyPercent) and how
// Chrono allocates DRAM to the hot tenants while draining the cold ones.

#include <cstdio>
#include <memory>

#include "src/common/table.h"
#include "src/core/chrono_policy.h"
#include "src/harness/machine.h"
#include "src/workloads/patterns.h"

namespace ct = chronotier;

int main() {
  ct::PrintBanner("Multi-tenant tiering with Chrono");

  // 128 MB machine, 25% DRAM, copy engines scaled with capacity (miniature of a 128 GB box).
  ct::MachineConfig machine_config =
      ct::MachineConfig::StandardTwoTier((128ull << 20) / ct::kBasePageSize, 0.25);
  machine_config.bandwidth_scale = 1024.0;

  ct::ChronoConfig chrono_config = ct::ChronoConfig::Full();
  chrono_config.geometry.scan_period = 5 * ct::kSecond;
  chrono_config.geometry.scan_step_pages = 1024;
  ct::Machine machine(machine_config, std::make_unique<ct::ChronoPolicy>(chrono_config));

  // Four tenants with a 1x / 3x / 9x / 27x spread of per-access stall (decreasing hotness).
  constexpr int kTenants = 4;
  for (int i = 0; i < kTenants; ++i) {
    ct::Process& process = machine.CreateProcess("tenant-" + std::to_string(i));
    ct::SegmentedConfig workload;
    workload.working_set_bytes = 24ull << 20;
    workload.per_op_delay = 700 * ct::kNanosecond;
    workload.sequential_init = true;
    process.set_access_delay(static_cast<ct::SimDuration>(1) * ct::kMicrosecond *
                             (i == 0 ? 0 : 1 << (2 * i - 1)));
    machine.AttachWorkload(process, std::make_unique<ct::SegmentedStream>(workload),
                           /*seed=*/100 + i);
  }
  machine.Start();

  ct::TextTable table({"time", "tenant-0 (hottest)", "tenant-1", "tenant-2",
                       "tenant-3 (coldest)"});
  for (int step = 1; step <= 6; ++step) {
    machine.Run(20 * ct::kSecond);
    std::vector<std::string> row = {ct::FormatDuration(machine.now())};
    for (auto& process : machine.processes()) {
      row.push_back(ct::TextTable::Num(process->FastTierResidencyPercent(), 1) + "%");
    }
    table.AddRow(row);
  }
  table.Print();

  std::printf("\nDRAM gravitates to the hottest tenant; the Fig. 9 bench runs the full\n"
              "6-policy comparison of this scenario.\n");
  return 0;
}
