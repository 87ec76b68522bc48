// Host and process measurements: the host record every result carries,
// CPU steal from /proc/stat, process CPU time and peak resident set.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HostRecord {
  unsigned nproc = 0;
  std::string simd_isa;    // linalg::active_simd_isa()
  std::string build_type;  // CMAKE_BUILD_TYPE of this build
  std::string compiler;
  std::string commit;      // passed in by the runner (git or source hash)
};

HostRecord host_record(const std::string& commit);

/// Aggregate "cpu" line of /proc/stat (jiffies); all zero when
/// unreadable.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuJiffies read_cpu_jiffies();

/// Share of all CPU time the hypervisor stole between two readings
/// (0 when /proc/stat is unavailable).
double steal_share(const CpuJiffies& before, const CpuJiffies& after);

/// User + system CPU seconds of this process (all threads).
double process_cpu_seconds();

/// Peak resident set of this process, MB (VmHWM).
double peak_rss_mb();

/// Monotonic seconds (steady clock).
double now_seconds();

}  // namespace perfbench
