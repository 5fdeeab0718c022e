// Shared helper: exact comparison of two ExperimentResults over the whole field list.
//
// Used by the TLB-equivalence tests (fast lane on vs off) and the runner tests (parallel
// vs serial): both claim bit-identical replay, so doubles are compared by bit pattern,
// not near-equality — any ULP of drift means the replay diverged. A failure names the
// first differing field (FirstResultDifference, src/harness/experiment.h).

#pragma once

#include <gtest/gtest.h>

#include <string>

#include "src/harness/experiment.h"

namespace chronotier {

inline void ExpectResultsIdentical(const ExperimentResult& a, const ExperimentResult& b,
                                   const std::string& context) {
  EXPECT_EQ(FirstResultDifference(a, b), "") << context;
}

}  // namespace chronotier
