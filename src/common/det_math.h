// The one place simulated code calls a transcendental function.
//
// IEEE 754 requires sqrt to be correctly rounded, but not log, exp or pow: their last bit
// may differ between libm builds, and any such difference moves a simulated result. Every
// call under src/ goes through these forwarders (detlint DL014 rejects a bare one), so a
// later in-repo implementation replaces the host libm in one file. Today they forward to
// std::, so they return exactly what the bare call did.

#pragma once

#include <cmath>

namespace chronotier::det_math {

inline double Log(double x) { return std::log(x); }
inline double Exp(double x) { return std::exp(x); }
inline double Pow(double x, double y) { return std::pow(x, y); }
// detlint:allow(dead-symbol) no simulated code takes a log2 today; DL014 bans the bare call
inline double Log2(double x) { return std::log2(x); }

}  // namespace chronotier::det_math
