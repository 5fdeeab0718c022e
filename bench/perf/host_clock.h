// Host-clock shim for chronobench: the benchmark's only reads of real time.
//
// The simulator itself never reads a wall clock (detlint DL001). This benchmark measures
// the host cost of running the simulator, so here real time is the measurement, not a
// contaminant: nothing read here feeds back into a simulated outcome. Every steady-clock
// read in bench/perf/ goes through HostNowNs(), so the exemption is one annotated line.

#pragma once

#include <chrono>
#include <cstdint>

namespace chronobench {

// Monotonic host time in nanoseconds since an unspecified epoch.
inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())  // detlint:allow(wall-clock) host-time benchmark; never reaches simulated state
      .count();
}

inline double NsToSeconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace chronobench
