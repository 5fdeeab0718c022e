#include "src/core/standard_policies.h"

#include "src/core/chrono_policy.h"
#include "src/policies/autotiering.h"
#include "src/policies/endpoint_aware.h"
#include "src/policies/linux_nb.h"
#include "src/policies/memtis.h"
#include "src/policies/multiclock.h"
#include "src/policies/tpp.h"

namespace chronotier {

std::vector<NamedPolicyFactory> StandardPolicySet(ScanGeometry geometry) {
  return {
      {"Linux-NB",
       [geometry] { return std::make_unique<LinuxNumaBalancingPolicy>(geometry); }},
      {"AutoTiering", [geometry] { return std::make_unique<AutoTieringPolicy>(geometry); }},
      {"Multi-Clock", [geometry] { return std::make_unique<MultiClockPolicy>(geometry); }},
      {"TPP", [geometry] { return std::make_unique<TppPolicy>(geometry); }},
      {"Memtis", [] { return std::make_unique<MemtisPolicy>(); }},
      {"Chrono",
       [geometry] {
         ChronoConfig config = ChronoConfig::Full();
         config.geometry = geometry;
         return std::make_unique<ChronoPolicy>(config);
       }},
  };
}

std::vector<NamedPolicyFactory> TopologyPolicySet(ScanGeometry geometry) {
  std::vector<NamedPolicyFactory> set = StandardPolicySet(geometry);
  set.push_back({"endpoint_aware_hotness",
                 [geometry] { return std::make_unique<EndpointAwarePolicy>(geometry); }});
  return set;
}

std::vector<NamedPolicyFactory> ChronoVariantSet(double manual_rate_mbps,
                                                 ScanGeometry geometry) {
  auto variant = [geometry](ChronoConfig config, const char* label) {
    config.geometry = geometry;
    return std::make_unique<ChronoPolicy>(config, label);
  };
  return {
      {"Linux-NB",
       [geometry] { return std::make_unique<LinuxNumaBalancingPolicy>(geometry); }},
      {"Chrono-basic",
       [variant] { return variant(ChronoConfig::Basic(), "Chrono-basic"); }},
      {"Chrono-twice",
       [variant] { return variant(ChronoConfig::Twice(), "Chrono-twice"); }},
      {"Chrono-thrice",
       [variant] { return variant(ChronoConfig::Thrice(), "Chrono-thrice"); }},
      {"Chrono-full", [variant] { return variant(ChronoConfig::Full(), "Chrono-full"); }},
      {"Chrono-manual",
       [variant, manual_rate_mbps] {
         return variant(ChronoConfig::Manual(manual_rate_mbps), "Chrono-manual");
       }},
  };
}

}  // namespace chronotier
