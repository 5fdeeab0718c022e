#include "src/core/candidate_filter.h"

#include <algorithm>

namespace chronotier {

CandidateFilter::Outcome CandidateFilter::RecordQualifyingCit(PageInfo& page, uint32_t cit_ms) {
  if (required_rounds_ <= 1) {
    return Outcome::kReadyToPromote;
  }
  const uint64_t key = KeyFor(page);
  CandidateState* state = candidates_.Load(key);
  if (state == nullptr) {
    CandidateState fresh;
    fresh.page = &page;
    fresh.rounds = 1;
    fresh.max_cit_ms = cit_ms;
    candidates_.Store(key, fresh);
    page.Set(kPageCandidate);
    return Outcome::kBecameCandidate;
  }
  state->rounds += 1;
  state->max_cit_ms = std::max(state->max_cit_ms, cit_ms);
  if (state->rounds >= required_rounds_) {
    candidates_.Erase(key);
    page.ClearFlag(kPageCandidate);
    return Outcome::kReadyToPromote;
  }
  return Outcome::kAdvanced;
}

bool CandidateFilter::RecordDisqualifyingCit(PageInfo& page) {
  if (!page.Has(kPageCandidate)) {
    return false;
  }
  page.ClearFlag(kPageCandidate);
  return candidates_.Erase(KeyFor(page)).has_value();
}

void CandidateFilter::Clear() {
  candidates_.ForEach([](uint64_t, CandidateState& state) {
    if (state.page != nullptr) {
      state.page->ClearFlag(kPageCandidate);
    }
  });
  candidates_.Clear();
}

}  // namespace chronotier
