// detlint fixture: none of these may trigger DL014.
#include <cmath>

#include "src/common/det_math.h"

// A std::log mention in a comment is prose, not a finding.
struct Journal {
  void log(const char* line);  // declaration: a type name precedes it
};

namespace stats {
double pow(double x, int n);
}  // namespace stats

double Uses(Journal& journal, double x) {
  journal.log("std::exp(x) in a string");  // member call
  return chronotier::det_math::Log(x) + std::sqrt(x) + stats::pow(x, 2);
}
