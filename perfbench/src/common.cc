#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

double ChunkedQuantile(const std::vector<double>& v, double q) {
  std::vector<double> per_chunk;
  for (size_t c = 0; c < kWindows; ++c) {
    const auto from = static_cast<std::ptrdiff_t>(c * v.size() / kWindows);
    const auto to = static_cast<std::ptrdiff_t>((c + 1) * v.size() / kWindows);
    if (from < to) {
      per_chunk.push_back(Quantile({v.begin() + from, v.begin() + to}, q));
    }
  }
  return Median(per_chunk);
}

NarrowCpus::NarrowCpus(int cpus) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t narrowed;
  CPU_ZERO(&narrowed);
  int kept = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0 && kept < cpus; --c) {
    if (CPU_ISSET(c, &saved_)) {
      CPU_SET(c, &narrowed);
      ++kept;
    }
  }
  restore_ = sched_setaffinity(0, sizeof(narrowed), &narrowed) == 0;
}

NarrowCpus::~NarrowCpus() {
  if (restore_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
