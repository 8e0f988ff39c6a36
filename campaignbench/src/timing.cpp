#include "timing.hpp"

#include <sys/resource.h>

#include <chrono>

namespace campaignbench {

std::uint64_t now_ns() {
  // psched-lint: allow(wall-clock): benchmark timing, reported as a measurement and never fed to a simulation
  const auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch).count());
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace campaignbench
