// perfbench: one workload run against the library built from this
// checkout. Prints host facts and notes as `# ` lines, then one JSON
// result line: {"correct", "attempted", "failed", "metrics"}. The
// metrics are the end-to-end set, or with --trace 1 the per-layer set.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--plant <bug>]
//   perfbench --checker-selftest

#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common.h"
#include "eval/test_hooks.h"
#include "obs/trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--plant") {
      args->plant = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->workdir.empty();
}

bool Plant(const std::string& bug) {
  namespace hooks = datalog::internal;
  if (bug.empty()) return true;
  if (bug == "publish-stale") {
    hooks::g_server_publish_stale = true;
  } else if (bug == "dred-skip-rederive") {
    hooks::g_dred_skip_rederive = true;
  } else if (bug == "seminaive-skip-delta") {
    hooks::g_seminaive_skip_delta_rule = 1;  // the recursive TC rule
  } else {
    return false;
  }
  return true;
}

std::string FsType(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

/// Host-speed reference: a fixed pointer chase through a 16 MiB random
/// cycle, so its time follows the memory system rather than the program.
class HostSpeed {
 public:
  HostSpeed() : next_(1u << 22) {
    std::iota(next_.begin(), next_.end(), 0u);
    uint64_t state = 0x2545F4914F6CDD1DULL;
    for (size_t i = next_.size() - 1; i > 0; --i) {  // Sattolo: one cycle
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(next_[i], next_[(state >> 33) % i]);
    }
  }
  double TimeMs() {
    const auto start = Clock::now();
    uint32_t at = 0;
    for (int step = 0; step < (1 << 19); ++step) at = next_[at];
    sink_ = at;
    return MsSince(start);
  }

 private:
  std::vector<uint32_t> next_;
  volatile uint32_t sink_ = 0;
};

void PrintResult(const Outcome& out, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::string(argv[1]) == "--checker-selftest") {
    const std::vector<std::string> failures = SelfTestCheckers();
    for (const std::string& f : failures) {
      std::fprintf(stderr, "checker self-test failed: %s\n", f.c_str());
    }
    std::printf("checker self-test: %s\n", failures.empty() ? "ok" : "FAILED");
    return failures.empty() ? 0 : 1;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args) || !Plant(args.plant)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir> [--plant <bug>]\n");
    return 2;
  }
  const bool is_server = IsServerWorkload(args.workload);
  if (!is_server && args.workload != "eval_family") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.workdir);

  HostSpeed host;
  const double host_start_ms = host.TimeMs();
  Outcome out;
  // A traced run also records the program's own spans; the gap between
  // its end-to-end figures and an untraced run's is the tracing overhead.
  // Each thread that records a span keeps its own ring until the tracer
  // is enabled again, and every evaluation starts a fresh worker pool, so
  // the default 64k-event rings would add megabytes per worker thread per
  // evaluation (over 5 GB in one eval_family run); 1k-event rings keep a
  // traced run near a hundred megabytes and still hold each server
  // thread's recent spans.
  constexpr size_t kTraceEventsPerThread = 1024;
  if (args.trace) {
    datalog::obs::Tracer::Get().Enable(kTraceEventsPerThread);
  }
  if (is_server) {
    RunServerWorkload(args, &out);
  } else {
    RunEvalWorkload(args, &out);
  }
  if (args.trace) {
    // Every traced run reports the whole per-layer set, so both probe
    // sets run whatever the workload.
    datalog::obs::Tracer::Get().Disable();
    ServerLayerProbes(args, &out);
    EvalLayerProbes(args, &out);
  }
  const double host_end_ms = host.TimeMs();

  std::printf("# host: hardware_threads=%u compiler=%s build_type=%s "
              "store_fs=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, FsType(args.workdir).c_str());
  std::printf("# host speed (not a metric): memory-bound reference loop "
              "%.3f ms at start, %.3f ms at end\n",
              host_start_ms, host_end_ms);
  std::printf("# run: workload=%s seed=%llu seconds=%d trace=%d%s%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              args.plant.empty() ? "" : " plant=", args.plant.c_str());
  for (const std::string& line : out.info) std::printf("# %s\n", line.c_str());
  if (args.trace) {
    for (const Metric& m : out.e2e) {
      std::printf("# traced end-to-end %s %s %s\n", m.name.c_str(),
                  Num(m.value).c_str(), m.unit.c_str());
    }
  }
  if (!out.correct) std::printf("# check failed: %s\n", out.why.c_str());
  PrintResult(out, args.trace ? out.layers : out.e2e);
  return 0;
}
