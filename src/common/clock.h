// clock.h — shared monotonic clock and thread-id helpers.
//
// Telemetry (obs/trace, obs/flight_recorder) and any other subsystem that
// timestamps events read the same monotonic nanosecond clock, so spans and
// recorded events interleave consistently in one timeline.
// Thread ids are small dense integers assigned on first use — stable for
// the thread's lifetime and friendly to trace viewers (tid 0, 1, 2 …
// instead of opaque pthread handles).
#pragma once

#include <cstdint>

namespace fefet {

/// Nanoseconds on the monotonic clock since process start (first call).
/// Never decreases; unaffected by wall-clock adjustments.
std::uint64_t monotonicNanos();

/// Small dense id of the calling thread (0 for the first thread that
/// asks, 1 for the next, …).  Stable for the thread's lifetime.
int currentThreadId();

}  // namespace fefet
