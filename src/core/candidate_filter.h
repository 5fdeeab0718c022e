// The conditional-promotion candidate filter (Section 3.1.2, Fig. 4).
//
// A single sub-threshold CIT sample is noisy: scan timing randomness lets genuinely cold
// pages occasionally measure hot. The filter requires N consecutive sub-threshold rounds
// (default two) before a page may enter the promotion queue — equivalent to classifying on
// the *maximum* of N CIT samples, the minimum-variance unbiased estimator of the access
// period (Appendix B.1). Candidates live in an XArray keyed by (pid, vpn), matching the
// kernel implementation's index structure and its small memory footprint.

#pragma once

#include <cstdint>

#include "src/common/xarray.h"
#include "src/vm/page.h"

namespace chronotier {

class CandidateFilter {
 public:
  // `required_rounds` sub-threshold CIT measurements admit a page (1 = no filtering).
  explicit CandidateFilter(int required_rounds = 2) : required_rounds_(required_rounds) {}

  // Outcome of recording one sub-threshold CIT sample for a page.
  enum class Outcome {
    kBecameCandidate,   // First qualifying round; page now tracked.
    kAdvanced,          // Another qualifying round recorded, more still needed.
    kReadyToPromote,    // Round quota met; page removed from the filter.
  };

  // Records a qualifying (CIT < threshold) measurement.
  Outcome RecordQualifyingCit(PageInfo& page, uint32_t cit_ms);

  // Records a disqualifying measurement (CIT >= threshold): the page is dropped, its round
  // progress reset. Returns true if the page had been a candidate.
  bool RecordDisqualifyingCit(PageInfo& page);

  size_t size() const { return candidates_.size(); }
  size_t MemoryUsageBytes() const { return candidates_.MemoryUsageBytes(); }
  int required_rounds() const { return required_rounds_; }

  void Clear();

 private:
  struct CandidateState {
    PageInfo* page = nullptr;
    int rounds = 0;
    uint32_t max_cit_ms = 0;  // Max-value estimator state.
  };

  static uint64_t KeyFor(const PageInfo& page) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(page.owner)) << 40) | page.vpn;
  }

  int required_rounds_;
  XArray<CandidateState> candidates_;
};

}  // namespace chronotier
