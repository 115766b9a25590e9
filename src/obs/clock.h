// The harness's two clocks: the wall clock, and the monotonic clock behind
// every duration it reports.
//
// vdbench's determinism contract (enforced by the vdlint `vdl-wallclock`
// rule) bans std::chrono::system_clock outside src/obs: wall-clock time is
// an observability concern, never an input to computation. The two
// legitimate consumers — the driver's cache-recency timestamps (never
// byte-compared) and trace metadata — go through this helper, so the rest
// of the library stays clock-free by construction.
//
// now_ns() is the only monotonic read behind a reported duration: the stage
// tables, the manifest's experiment and attempt seconds and the trace's B/E
// timestamps are all differences of its readings, so the manifest and the
// trace cannot disagree about how long something took. (Deadlines and
// sleeps, which nothing reports, keep their own steady_clock.)
#pragma once

#include <cstdint>

namespace vdbench::obs {

/// Seconds since the Unix epoch. Monotonicity is NOT guaranteed (the wall
/// clock can step); use now_ns() for durations.
[[nodiscard]] std::uint64_t wall_clock_seconds() noexcept;

/// Nanoseconds on the monotonic clock, from an unspecified origin. Only
/// differences of two readings mean anything.
[[nodiscard]] std::int64_t now_ns() noexcept;

}  // namespace vdbench::obs
