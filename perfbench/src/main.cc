// The repository benchmark.
//
//   focus_perfbench --workload crawl|sharded-crawl|analytics --seed N
//                   --seconds S --trace 0|1 [--scratch-dir DIR]
//
// Runs one workload (see README.md) and prints, as the last line of
// standard output, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// (from a second, traced loop) with --trace 1. A human-readable table of
// everything measured goes to standard error. Exits non-zero, printing no
// result, when the arguments are bad or no operation succeeded.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/report.h"
#include "src/workloads.h"
#include "util/logging.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: focus_perfbench --workload crawl|sharded-crawl|"
               "analytics --seed N --seconds S --trace 0|1 "
               "[--scratch-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--scratch-dir") {
      options.scratch_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return Usage();

  RunResult result;
  if (workload == "crawl") {
    RunCrawlWorkload(options, &result);
  } else if (workload == "sharded-crawl") {
    RunShardedCrawlWorkload(options, &result);
  } else if (workload == "analytics") {
    RunAnalyticsWorkload(options, &result);
  } else {
    return Usage();
  }
  Report& report = result.report;
  report.Set("peak_rss_mib", PeakRssMiB());
  if (result.attempted > 0) {
    report.Set("error_rate", static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted));
  }
  std::fprintf(stderr, "%s: %llu operations, %llu failed\n%s",
               workload.c_str(),
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed),
               report.ToText().c_str());
  std::string json = report.ToJson(
      options.trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd,
      result.failed == 0, result.attempted, result.failed);
  if (json.empty() || result.attempted == 0) {
    std::fprintf(stderr, "%s: no successful operation to measure\n",
                 workload.c_str());
    return 1;
  }
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  focus::SetLogLevel(focus::LogLevel::kWarning);
  return perfbench::Main(argc, argv);
}
