// The benchmark's three workloads. Each runs its set-up several times
// (median reported as setup_s), then a closed loop of operations for the
// requested wall time with tracing off (end-to-end metrics) and, when
// asked, a second loop through the tracing wrappers (per-layer metrics).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "src/report.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory for the analytics workload's data file (created if needed).
  std::string scratch_dir = ".";
};

struct RunResult {
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Counts one operation; a failed status or output check marks it failed.
  void CountOp(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

// 4 crawler threads, in-memory session, 4x web.
void RunCrawlWorkload(const RunOptions& options, RunResult* result);
// DistCrawl, 4 shards x 1 thread over WAL-backed in-memory devices.
void RunShardedCrawlWorkload(const RunOptions& options, RunResult* result);
// JudgeBatch + JoinDistiller iterations over one file-backed store.
void RunAnalyticsWorkload(const RunOptions& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
