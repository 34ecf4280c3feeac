#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the perfbench harness: run arguments, the metric
// sets a run reports, timing and order statistics.

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  /// Scratch directory inside the checkout for store directories.
  std::string workdir;
  /// Planted bug to switch on (selftest only): "", "publish-stale",
  /// "dred-skip-rederive" or "seminaive-skip-delta".
  std::string plant;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `e2e` are the end-to-end metrics of an
/// untraced run, `layers` the per-layer metrics of a traced run; `info`
/// lines are printed above the result line for readers and never parsed.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::string> info;
  /// First failed check, for the log.
  std::string why;

  void Fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
  void Check(bool ok, const std::string& reason) {
    if (!ok) Fail(reason);
  }
  void Info(const std::string& line) { info.push_back(line); }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back(Metric{name, value, unit});
  }
};

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Nearest-rank quantile (q in [0,1]) of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Latency figures are medians over this many stretches of a run of each
/// stretch's figure, so a burst of neighbour load on the host moves the
/// stretches it falls in rather than the run's figure.
constexpr int kWindows = 10;

/// Median over kWindows consecutive, equal chunks of `v`, in the order
/// the samples were taken, of each chunk's q-quantile.
double ChunkedQuantile(const std::vector<double>& v, double q);

/// Restricts the calling thread, and the threads it starts from now on, to
/// `cpus` of the CPUs it may use (the highest-numbered ones), and restores
/// the thread's own CPU set when it goes. A request handed between threads
/// on a shared VM often wakes an idle CPU, at whatever cost the host's load
/// sets; on fewer CPUs that the work keeps busy, fewer handoffs do.
class NarrowCpus {
 public:
  explicit NarrowCpus(int cpus);
  ~NarrowCpus();
  NarrowCpus(const NarrowCpus&) = delete;
  NarrowCpus& operator=(const NarrowCpus&) = delete;

 private:
  cpu_set_t saved_;
  bool restore_ = false;
};

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Formats `value` with all its digits.
std::string Num(double value);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
