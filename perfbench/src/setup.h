// Inputs and session assembly shared by the crawl workloads.
#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/focus.h"
#include "crawl/crawler.h"
#include "crawl/metrics.h"
#include "crawl/relevance_evaluator.h"
#include "src/report.h"
#include "src/traced.h"
#include "src/workloads.h"

namespace perfbench {

namespace core = focus::core;
namespace crawl = focus::crawl;
namespace webgraph = focus::webgraph;

// Total fetch budget of one crawl operation (split evenly across shards in
// the sharded workload).
inline constexpr int kCrawlBudget = 8000;
// Seed of the crawl workloads' web and classifier (fixed inputs).
inline constexpr uint64_t kWebSeed = 73;
// A visit with R(d) >= this is relevant (the harvest threshold).
inline constexpr double kRelevantThreshold = 0.5;

// Wall time of each set-up phase of one repetition.
struct SetupTimes {
  double web_s = 0;     // web / corpus generation
  double train_s = 0;   // classifier training
  double tables_s = 0;  // tables, graphs and warm-up before timing

  double total() const { return web_s + train_s + tables_s; }
};
// Records setup_s (median total) and the setup.* split (per-phase medians).
void ReportSetup(const std::vector<SetupTimes>& reps, Report* report);

// The crawl workloads' system: the sample taxonomy with "cycling" good, a
// fault-free web about four times tab_throughput's full web, a trained
// classifier, and the topic's 240 best-ranked keyword pages. Each crawl
// starts from 12 of them, drawn from the workload seed and the crawl's
// ordinal, so a run's median spans many start sets.
struct CrawlInputs {
  std::unique_ptr<core::FocusSystem> system;
  std::vector<std::string> candidates;
  uint64_t seed = 0;
  uint64_t crawls = 0;  // start sets drawn so far

  std::vector<std::string> NextStartSet();
};
// Builds the inputs kSetupRepeats times, warming each up with one
// `warm_up` operation (counted in `result`; its time is charged to the
// set-up), keeps the last and records setup_s. False if a build fails.
bool SetUpCrawlInputs(uint64_t seed,
                      const std::function<bool(CrawlInputs*)>& warm_up,
                      CrawlInputs* inputs, RunResult* result);

// One in-memory crawl session assembled the way FocusSystem::NewCrawl
// builds its default (no WAL) session, so the traced variant can put a
// TracedDisk under the buffer pool and a TracedEvaluator in front of the
// classifier. Members are declared in dependency order.
struct CrawlSession {
  std::unique_ptr<storage::MemDiskManager> mem;
  std::unique_ptr<TracedDisk> traced_disk;  // traced sessions only
  std::unique_ptr<focus::storage::BufferPool> pool;
  std::unique_ptr<focus::sql::Catalog> catalog;
  std::unique_ptr<crawl::CrawlDb> db;
  std::unique_ptr<crawl::ClassifierEvaluator> evaluator;
  std::unique_ptr<TracedEvaluator> traced_evaluator;  // traced only
  std::unique_ptr<crawl::Crawler> crawler;
};
Result<std::unique_ptr<CrawlSession>> NewCrawlSession(
    core::FocusSystem* system, const std::vector<std::string>& seeds,
    const crawl::CrawlerOptions& options, bool traced);

// Output checks shared by the crawl workloads.
bool UrlsUnique(const std::vector<crawl::Visit>& visits);
// Re-fetches `samples` evenly spaced visits (attempt 1: the web is
// fault-free, so every visit succeeded on its first attempt), rebuilds the
// term vector and re-judges it with the in-memory classifier; true when
// every relevance matches within 1e-9 and every best leaf is equal.
bool RejudgeMatches(core::FocusSystem* system,
                    const std::vector<crawl::Visit>& visits, int samples);

// The environment's cost per page: SimulatedWeb::Fetch and
// text::BuildTermVector replayed over `urls`.
struct ReplayCost {
  double fetch_us = 0;
  double term_vector_us = 0;
  uint64_t pages = 0;
};
ReplayCost PriceEnvironment(webgraph::SimulatedWeb* web,
                            const std::vector<std::string>& urls);

// One crawl operation's end-to-end measurements (a crawl, or a fixpoint
// crawl of all shards).
struct CrawlOp {
  double pages = 0;     // visits
  double relevant = 0;  // visits with R(d) >= kRelevantThreshold
  double wall_s = 0;    // crawl phase
  double virtual_s = 0;
  double cpu_s = 0;
  double log_bytes = 0;  // written to log devices (sharded only)
};
// Median over `ops` of `f(op)`.
double MedianOf(const std::vector<CrawlOp>& ops, double (*f)(const CrawlOp&));
// Median visits per wall second of the crawl phase.
double PagesPerSecond(const std::vector<CrawlOp>& ops);
// Records pages_per_s, cpu_us_per_page, harvest_rate, relevant_pages_per_s
// and pages_per_virtual_s (medians over `ops`).
void ReportCrawlOps(const std::vector<CrawlOp>& ops, Report* report);

// Per-layer sums and reporting shared by the workloads. Counts and times
// are reported per operation (`ops` operations were traced).
void AddStage(const crawl::StageMetricsSnapshot& s,
              crawl::StageMetricsSnapshot* sum);
void AddReplay(const ReplayCost& r, ReplayCost* sum);
void ReportStage(const crawl::StageMetricsSnapshot& sum, uint64_t attempts,
                 double ops, Report* report);
void ReportReplay(const ReplayCost& sum, Report* report);
void ReportPool(const focus::storage::BufferPool::Stats& stats, double ops,
                Report* report);
void ReportDisk(const char* device, const DiskCounters& counters, double ops,
                Report* report);
void ReportCalls(const CallStats& calls, double ops, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
