// detlint fixture: DL014 host-libm must fire on every bare libm call below.
// This file is intentionally dirty and is never compiled or tree-scanned.
#include <cmath>

double Draws(double x, double y) {
  const double a = std::log(x);                               // line 6: DL014
  const double b = std::exp(x);                               // line 7: DL014
  const double c = std::pow(x, y);                            // line 8: DL014
  const double d = std::log2(x);                              // line 9: DL014
  const double e = ::log(x) + pow(x, 2.0);                    // line 10: DL014
  return a + b + c + d + e;
}
