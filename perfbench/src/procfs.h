// Process and host readings from /proc: peak resident set size, CPU time,
// steal time and load average.
#pragma once

#include <string>

namespace perfbench {

/// VmHWM of this process in KiB; 0 when unreadable.
[[nodiscard]] double peak_rss_kib();

/// Reset this process's peak-RSS mark to its current RSS, so a later
/// peak_rss_kib() covers only what follows. False when the kernel refused.
bool reset_peak_rss();

/// CPU seconds this process has used, all threads, user + system.
[[nodiscard]] double process_cpu_seconds();

/// Steal jiffies summed over all CPUs ("cpu" line of /proc/stat).
[[nodiscard]] double steal_jiffies();

/// The three load averages of /proc/loadavg, space separated.
[[nodiscard]] std::string load_average();

}  // namespace perfbench
