// KV-store example: an in-memory database (the Memcached stand-in) on tiered memory.
//
//   $ ./examples/kvstore_tiering
//
// Demonstrates the KvStoreStream substrate: sequential initialization fills DRAM with the
// first items in address order; the Gaussian-popular items then have to be *identified* and
// promoted. Compares Linux-NB, TPP and Chrono on the resulting GET latency.

#include <cstdio>
#include <memory>

#include "src/common/table.h"
#include "src/core/chrono_policy.h"
#include "src/harness/machine.h"
#include "src/policies/linux_nb.h"
#include "src/policies/tpp.h"
#include "src/workloads/kvstore.h"

namespace ct = chronotier;

namespace {

struct KvOutcome {
  double throughput_kops = 0;
  double read_avg_ns = 0;
  double read_p99_ns = 0;
  double fmar = 0;
};

KvOutcome RunStore(std::unique_ptr<ct::TieringPolicy> policy) {
  ct::MachineConfig machine_config =
      ct::MachineConfig::StandardTwoTier((256ull << 20) / ct::kBasePageSize, 0.25);
  machine_config.bandwidth_scale = 1024.0;
  ct::Machine machine(machine_config, std::move(policy));

  ct::Process& server = machine.CreateProcess("memcached");
  ct::KvStoreConfig store;
  store.num_items = 500000;   // ~122 MB of values.
  store.value_bytes = 256;
  store.set_fraction = 1.0 / 11.0;  // memtier default SET:GET = 1:10.
  machine.AttachWorkload(server, std::make_unique<ct::KvStoreStream>(store), /*seed=*/99);

  machine.Start();
  machine.Run(40 * ct::kSecond);  // Initialization + settling.
  machine.metrics().Reset();
  machine.Run(30 * ct::kSecond);

  const ct::Metrics& metrics = machine.metrics();
  KvOutcome outcome;
  outcome.throughput_kops = metrics.Throughput(30 * ct::kSecond) / 1e3;
  outcome.read_avg_ns = metrics.read_latency().Mean();
  outcome.read_p99_ns = metrics.read_latency().Percentile(99);
  outcome.fmar = metrics.Fmar();
  return outcome;
}

}  // namespace

int main() {
  ct::PrintBanner("KV store on tiered memory: Linux-NB vs TPP vs Chrono");

  ct::ScanGeometry geometry;
  geometry.scan_period = 5 * ct::kSecond;
  geometry.scan_step_pages = 1024;

  ct::ChronoConfig chrono_config = ct::ChronoConfig::Full();
  chrono_config.geometry = geometry;

  ct::TextTable table({"policy", "throughput (kop/s)", "GET avg (ns)", "GET p99 (ns)",
                       "FMAR"});
  struct Row {
    const char* name;
    KvOutcome outcome;
  };
  const Row rows[] = {
      {"Linux-NB", RunStore(std::make_unique<ct::LinuxNumaBalancingPolicy>(geometry))},
      {"TPP", RunStore(std::make_unique<ct::TppPolicy>(geometry))},
      {"Chrono", RunStore(std::make_unique<ct::ChronoPolicy>(chrono_config))},
  };
  for (const Row& row : rows) {
    table.AddRow({row.name, ct::TextTable::Num(row.outcome.throughput_kops, 0),
                  ct::TextTable::Num(row.outcome.read_avg_ns, 0),
                  ct::TextTable::Num(row.outcome.read_p99_ns, 0),
                  ct::TextTable::Percent(row.outcome.fmar)});
  }
  table.Print();
  std::printf("\nThe popular (Gaussian-center) items migrate to DRAM under Chrono; the full\n"
              "Memcached/Redis comparison is bench/fig12_kvstore.\n");
  return 0;
}
