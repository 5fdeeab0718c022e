// Simulated-time primitives.
//
// The whole library runs against a discrete-event simulated clock, not wall-clock time.
// SimTime is a signed 64-bit nanosecond count; signed so that time differences (e.g. CIT
// values) can be manipulated without casts and negative sentinels are representable.

#pragma once

#include <cstdint>
#include <string>

namespace chronotier {

// Nanoseconds of simulated time since machine boot.
using SimTime = int64_t;

// A difference of two SimTime values, also nanoseconds.
using SimDuration = int64_t;

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;
inline constexpr SimDuration kMinute = 60 * kSecond;
inline constexpr SimDuration kHour = 60 * kMinute;

// Sentinel for "never happened" timestamps.
inline constexpr SimTime kNeverTime = -1;

// Converts a duration to fractional seconds (for reporting only).
constexpr double ToSeconds(SimDuration d) { return static_cast<double>(d) / kSecond; }
constexpr double ToMilliseconds(SimDuration d) { return static_cast<double>(d) / kMillisecond; }

// Human-readable rendering such as "1.500ms" or "2.000s"; used by benches and logs.
std::string FormatDuration(SimDuration d);

}  // namespace chronotier
