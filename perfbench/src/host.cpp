#include "host.hpp"

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "linalg/kernels.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

HostRecord host_record(const std::string& commit) {
  HostRecord h;
  h.nproc = std::thread::hardware_concurrency();
  h.simd_isa =
      safenn::linalg::to_string(safenn::linalg::active_simd_isa());
  h.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.commit = commit;
  return h;
}

CpuJiffies read_cpu_jiffies() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return j;
  std::istringstream ls(line.substr(4));
  // user nice system idle iowait irq softirq steal guest guest_nice;
  // guest time is already included in user/nice.
  std::uint64_t v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (auto& x : v) ls >> x;
  for (const auto x : v) j.total += x;
  j.steal = v[7];
  return j;
}

double steal_share(const CpuJiffies& before, const CpuJiffies& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = 0.0;
      ls >> kb;
      return kb / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
