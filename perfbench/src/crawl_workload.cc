// Workload `crawl`: one in-memory session (the FocusSystem default, no WAL)
// crawled by 4 threads with soft focus, repeated in a closed loop. Most of
// its time is the crawl loop itself — frontier, the crawler's web/state
// locks, CrawlDb record/expand, the simulator and the in-memory classifier.
// Its CrawlDb fits the 4096-frame pool and it runs no SQL plan and no WAL,
// so storage and sql/exec changes should leave it unchanged (the bypass).
#include <cstdio>

#include "crawl/metrics.h"
#include "obs/metrics.h"
#include "src/setup.h"
#include "src/workloads.h"
#include "util/clock.h"

namespace perfbench {
namespace {

constexpr int kThreads = 4;
constexpr int kRejudgeSamples = 24;

crawl::CrawlerOptions Options(focus::obs::MetricsRegistry* registry,
                              int budget) {
  crawl::CrawlerOptions o;
  o.max_fetches = budget;
  o.num_threads = kThreads;
  o.expansion = crawl::ExpansionRule::kSoftFocus;
  o.metrics_registry = registry;
  return o;
}

// Per-layer sums over the traced crawls.
struct CrawlLayers {
  int ops = 0;
  crawl::StageMetricsSnapshot stage;
  uint64_t attempts = 0;
  focus::storage::BufferPool::Stats pool;
  DiskCounters disk;
  CallStats calls;
  ReplayCost replay;
};

struct Crawls {
  std::vector<CrawlOp> ops;
  CrawlLayers layers;
};

bool RunOneCrawl(CrawlInputs* in, const crawl::CrawlerOptions& options,
                 bool traced, Crawls* out) {
  auto session_or =
      NewCrawlSession(in->system.get(), in->NextStartSet(), options, traced);
  if (!session_or.ok()) {
    std::fprintf(stderr, "crawl: session: %s\n",
                 session_or.status().ToString().c_str());
    return false;
  }
  std::unique_ptr<CrawlSession> session = std::move(session_or).TakeValue();
  crawl::Crawler& crawler = *session->crawler;

  double cpu0 = ProcessCpuSeconds();
  focus::Stopwatch wall;
  Status st = crawler.Crawl();
  CrawlOp op;
  op.wall_s = wall.ElapsedSeconds();
  op.cpu_s = ProcessCpuSeconds() - cpu0;
  if (!st.ok()) {
    std::fprintf(stderr, "crawl: %s\n", st.ToString().c_str());
    return false;
  }
  const std::vector<crawl::Visit>& visits = crawler.visits();
  op.pages = static_cast<double>(visits.size());
  for (const crawl::Visit& v : visits) {
    if (v.relevance >= kRelevantThreshold) op.relevant += 1;
  }
  op.virtual_s = crawler.clock().NowSeconds();

  bool ok = (static_cast<int>(visits.size()) == options.max_fetches ||
             crawler.stats().stagnated) &&
            UrlsUnique(visits) &&
            RejudgeMatches(in->system.get(), visits, kRejudgeSamples);
  if (!ok) {
    std::fprintf(stderr, "crawl: output check failed (%zu visits)\n",
                 visits.size());
    return false;
  }
  out->ops.push_back(op);

  if (traced) {
    CrawlLayers& l = out->layers;
    ++l.ops;
    AddStage(crawler.stage_metrics().Snapshot(), &l.stage);
    l.attempts += crawler.stats().attempts;
    focus::storage::BufferPool::Stats pool = session->pool->stats();
    l.pool.fetches += pool.fetches;
    l.pool.hits += pool.hits;
    l.pool.misses += pool.misses;
    l.pool.evictions += pool.evictions;
    l.pool.dirty_writebacks += pool.dirty_writebacks;
    l.pool.readahead_issued += pool.readahead_issued;
    l.pool.readahead_used += pool.readahead_used;
    l.disk += session->traced_disk->counters();
    l.calls += session->traced_evaluator->stats();
    std::vector<std::string> urls;
    urls.reserve(visits.size());
    for (const crawl::Visit& v : visits) urls.push_back(v.url);
    AddReplay(PriceEnvironment(&in->system->web(), urls), &l.replay);
  }
  return true;
}

// Closed loop: crawl after crawl until `seconds` of wall time have passed.
Crawls Loop(CrawlInputs* in, focus::obs::MetricsRegistry* registry,
            double seconds, bool traced, RunResult* result) {
  Crawls crawls;
  focus::Stopwatch elapsed;
  do {
    result->CountOp(
        RunOneCrawl(in, Options(registry, kCrawlBudget), traced, &crawls));
  } while (elapsed.ElapsedSeconds() < seconds);
  return crawls;
}

}  // namespace

void RunCrawlWorkload(const RunOptions& options, RunResult* result) {
  Report& r = result->report;
  focus::obs::MetricsRegistry registry;

  CrawlInputs inputs;
  auto warm_up = [&registry](CrawlInputs* in) {
    Crawls discard;
    return RunOneCrawl(in, Options(&registry, kCrawlBudget / 4), false,
                       &discard);
  };
  if (!SetUpCrawlInputs(options.seed, warm_up, &inputs, result)) return;

  Crawls plain = Loop(&inputs, &registry, options.seconds, false, result);
  if (plain.ops.empty()) return;
  ReportCrawlOps(plain.ops, &r);
  if (!options.trace) return;

  Crawls traced = Loop(&inputs, &registry, options.seconds, true, result);
  const CrawlLayers& l = traced.layers;
  if (l.ops == 0) return;
  double ops = l.ops;
  r.Set("trace.overhead_frac",
        1.0 - PagesPerSecond(traced.ops) / r.Get("pages_per_s"));
  ReportStage(l.stage, l.attempts, ops, &r);
  ReportCalls(l.calls, ops, &r);
  ReportPool(l.pool, ops, &r);
  ReportDisk("data", l.disk, ops, &r);
  ReportReplay(l.replay, &r);
}

}  // namespace perfbench
