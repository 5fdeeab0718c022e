// Figure 2(b): PEBS counter-bin distribution under huge-page vs base-page tracking.
//
// Runs the Memtis sampler over the same workload twice — once with 2 MB hotness units, once
// with 4 KB units — and reports the share of tracked units whose access counters land in
// each bin group. Expected shape (the paper's Fig. 2b): with huge pages most counters reach
// bin 4+ (counter >= 8); with base pages the fixed sampling budget is spread over 512x more
// units, so the overwhelming majority of counters sit in the lowest bins — too noisy for
// stable hot/cold classification.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/policies/memtis.h"

namespace ct = chronotier;

namespace {

std::vector<double> RunBinDistribution(ct::PageSizeKind kind) {
  ct::ExperimentConfig config = ct::BenchMachine();
  config.page_kind = kind;
  config.warmup = 10 * ct::kSecond;
  config.measure = 20 * ct::kSecond;
  std::vector<ct::ProcessSpec> procs = {ct::BenchPmbenchProc(96, 0.95)};

  std::vector<double> proportions;
  ct::Experiment::Run(
      config,
      [] {
        // Splitting off: isolate the counter-starvation effect.
        return std::make_unique<ct::MemtisPolicy>(/*enable_splitting=*/false);
      },
      procs, nullptr, [&proportions](ct::Machine& machine, ct::ExperimentResult&) {
        // Count tracked units (not base pages) per counter bin directly from page metadata.
        std::vector<uint64_t> bins(32, 0);
        uint64_t total = 0;
        for (auto& process : machine.processes()) {
          for (auto& vma : process->aspace().vmas()) {
            vma->ForEachUnit([&](ct::PageInfo& unit) {
              if (!unit.present()) {
                return;
              }
              bins[static_cast<size_t>(
                  ct::Log2Histogram::BucketFor(unit.policy_word))] += 1;
              ++total;
            });
          }
        }
        // Paper's bin grouping: #1, #2-3, #4-5, #6-7, #8-9, >9.
        const std::vector<std::pair<int, int>> groups = {{0, 1}, {2, 3}, {4, 5},
                                                         {6, 7}, {8, 9}, {10, 31}};
        for (const auto& [lo, hi] : groups) {
          uint64_t count = 0;
          for (int b = lo; b <= hi; ++b) {
            count += bins[static_cast<size_t>(b)];
          }
          proportions.push_back(total == 0 ? 0.0
                                           : static_cast<double>(count) /
                                                 static_cast<double>(total));
        }
      });
  return proportions;
}

}  // namespace

int main(int argc, char** argv) {
  ct::ParseBenchFlags(argc, argv,
                      "Figure 2(b): PEBS bin distribution under different page granularity.");
  std::printf("Figure 2(b): PEBS bin distribution under different page granularity.\n");
  ct::PrintBanner("Fig 2(b): share of units per counter bin (Memtis sampler)");

  const std::vector<double> huge = RunBinDistribution(ct::PageSizeKind::kHuge);
  const std::vector<double> base = RunBinDistribution(ct::PageSizeKind::kBase);

  ct::TextTable table({"bin group", "huge-page", "base-page"});
  const char* labels[] = {"bin#1", "bin#2-3", "bin#4-5", "bin#6-7", "bin#8-9", "bin#>9"};
  for (size_t i = 0; i < huge.size(); ++i) {
    table.AddRow({labels[i], ct::TextTable::Percent(huge[i]), ct::TextTable::Percent(base[i])});
  }
  table.Print();

  double huge_high = 0;
  double base_high = 0;
  for (size_t i = 2; i < huge.size(); ++i) {  // bin#4 and above (counter >= 8).
    huge_high += huge[i];
    base_high += base[i];
  }
  std::printf("Counters >= 8 (bin#4+): huge-page %.1f%% vs base-page %.1f%% — base-page\n"
              "tracking starves the counters, destabilizing PEBS classification.\n",
              100 * huge_high, 100 * base_high);
  return 0;
}
