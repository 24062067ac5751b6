#include "src/setup.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "core/sample_taxonomy.h"
#include "text/document.h"
#include "util/clock.h"
#include "util/random.h"

namespace perfbench {

void ReportSetup(const std::vector<SetupTimes>& reps, Report* report) {
  std::vector<double> total, web, train, tables;
  for (const SetupTimes& t : reps) {
    total.push_back(t.total());
    web.push_back(t.web_s);
    train.push_back(t.train_s);
    tables.push_back(t.tables_s);
  }
  report->Set("setup_s", Median(total));
  report->Set("setup.web_s", Median(web));
  report->Set("setup.train_s", Median(train));
  report->Set("setup.tables_s", Median(tables));
}

namespace {

Result<CrawlInputs> BuildCrawlInputs(uint64_t seed, SetupTimes* times) {
  focus::Stopwatch timer;
  core::FocusOptions options;
  // The web and the classifier are fixed inputs (tab_throughput's seed):
  // throughput differs by up to 15% between webs drawn from different
  // seeds, which would swamp the run-to-run spread the benchmark bounds.
  options.seed = kWebSeed;
  options.web.seed = kWebSeed;
  // tab_throughput's full web is 1500 pages/topic, 30k background pages
  // on 800 servers; this is four times that, so an 8000-page budget stays
  // inside the relevant community.
  options.web.pages_per_topic = 6000;
  options.web.background_pages = 120000;
  options.web.background_servers = 3200;
  options.web.fetch_latency_mean_ms = 120;
  options.web.fetch_failure_prob = 0;  // fault-free: no operation fails
  FOCUS_ASSIGN_OR_RETURN(
      auto system,
      core::FocusSystem::Create(core::BuildSampleTaxonomy(), options));
  times->web_s = timer.ElapsedSeconds();

  timer.Restart();
  FOCUS_RETURN_IF_ERROR(system->MarkGood("cycling"));
  FOCUS_RETURN_IF_ERROR(system->Train());
  times->train_s = timer.ElapsedSeconds();

  timer.Restart();
  FOCUS_ASSIGN_OR_RETURN(auto cycling, system->tax().FindByName("cycling"));
  CrawlInputs inputs;
  inputs.candidates = system->web().KeywordSeeds(cycling, 240);
  inputs.seed = seed;
  times->web_s += timer.ElapsedSeconds();
  inputs.system = std::move(system);
  return inputs;
}

}  // namespace

bool SetUpCrawlInputs(uint64_t seed,
                      const std::function<bool(CrawlInputs*)>& warm_up,
                      CrawlInputs* inputs, RunResult* result) {
  std::vector<SetupTimes> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    *inputs = CrawlInputs();  // free the previous repetition first
    SetupTimes t;
    auto built = BuildCrawlInputs(seed, &t);
    if (!built.ok()) {
      std::fprintf(stderr, "setup: %s\n", built.status().ToString().c_str());
      result->CountOp(false);
      return false;
    }
    *inputs = std::move(built).TakeValue();
    // Allocator and lazily built web state warm up before timing.
    focus::Stopwatch warm;
    result->CountOp(warm_up(inputs));
    t.tables_s = warm.ElapsedSeconds();
    setups.push_back(t);
  }
  ReportSetup(setups, &result->report);
  return true;
}

std::vector<std::string> CrawlInputs::NextStartSet() {
  focus::Rng rng(seed ^ (0x9E3779B97F4A7C15ull * ++crawls));
  std::vector<size_t> picked = rng.SampleIndices(candidates.size(), 12);
  std::sort(picked.begin(), picked.end());
  std::vector<std::string> start;
  for (size_t i : picked) start.push_back(candidates[i]);
  return start;
}

Result<std::unique_ptr<CrawlSession>> NewCrawlSession(
    core::FocusSystem* system, const std::vector<std::string>& seeds,
    const crawl::CrawlerOptions& options, bool traced) {
  auto s = std::make_unique<CrawlSession>();
  s->mem = std::make_unique<storage::MemDiskManager>();
  storage::DiskManager* disk = s->mem.get();
  if (traced) {
    s->traced_disk = std::make_unique<TracedDisk>(disk);
    disk = s->traced_disk.get();
  }
  // FocusOptions::session_buffer_frames' default.
  s->pool = std::make_unique<focus::storage::BufferPool>(disk, 4096);
  s->catalog = std::make_unique<focus::sql::Catalog>(s->pool.get());
  FOCUS_ASSIGN_OR_RETURN(crawl::CrawlDb db,
                         crawl::CrawlDb::Create(s->catalog.get()));
  s->db = std::make_unique<crawl::CrawlDb>(std::move(db));
  s->evaluator =
      std::make_unique<crawl::ClassifierEvaluator>(&system->classifier());
  crawl::RelevanceEvaluator* evaluator = s->evaluator.get();
  if (traced) {
    s->traced_evaluator = std::make_unique<TracedEvaluator>(evaluator);
    evaluator = s->traced_evaluator.get();
  }
  s->crawler = std::make_unique<crawl::Crawler>(
      &system->web(), evaluator, s->db.get(), s->catalog.get(), options);
  for (const std::string& url : seeds) {
    FOCUS_RETURN_IF_ERROR(s->crawler->AddSeed(url));
  }
  return s;
}

bool UrlsUnique(const std::vector<crawl::Visit>& visits) {
  std::unordered_set<std::string> seen;
  for (const crawl::Visit& v : visits) {
    if (!seen.insert(v.url).second) return false;
  }
  return true;
}

bool RejudgeMatches(core::FocusSystem* system,
                    const std::vector<crawl::Visit>& visits, int samples) {
  if (visits.empty()) return true;
  crawl::ClassifierEvaluator reference(&system->classifier());
  size_t n = visits.size();
  size_t count = std::min<size_t>(n, static_cast<size_t>(samples));
  for (size_t i = 0; i < count; ++i) {
    const crawl::Visit& v = visits[i * n / count];
    focus::VirtualClock clock;
    auto fetched = system->web().Fetch(v.url, &clock, /*attempt=*/1);
    if (!fetched.ok()) return false;
    auto judged =
        reference.Judge(focus::text::BuildTermVector(fetched.value().tokens));
    if (!judged.ok()) return false;
    if (std::fabs(judged.value().relevance - v.relevance) > 1e-9 ||
        judged.value().best_leaf != v.best_leaf) {
      return false;
    }
  }
  return true;
}

ReplayCost PriceEnvironment(webgraph::SimulatedWeb* web,
                            const std::vector<std::string>& urls) {
  using Clock = std::chrono::steady_clock;
  auto us = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  ReplayCost cost;
  for (const std::string& url : urls) {
    focus::VirtualClock clock;
    Clock::time_point t0 = Clock::now();
    auto fetched = web->Fetch(url, &clock, /*attempt=*/1);
    Clock::time_point t1 = Clock::now();
    if (!fetched.ok()) continue;
    focus::text::TermVector terms =
        focus::text::BuildTermVector(fetched.value().tokens);
    Clock::time_point t2 = Clock::now();
    cost.fetch_us += us(t1 - t0);
    cost.term_vector_us += us(t2 - t1);
    ++cost.pages;
  }
  return cost;
}

double MedianOf(const std::vector<CrawlOp>& ops,
                double (*f)(const CrawlOp&)) {
  std::vector<double> v;
  for (const CrawlOp& op : ops) v.push_back(f(op));
  return Median(v);
}

double PagesPerSecond(const std::vector<CrawlOp>& ops) {
  return MedianOf(ops, [](const CrawlOp& o) { return o.pages / o.wall_s; });
}

void ReportCrawlOps(const std::vector<CrawlOp>& ops, Report* report) {
  report->Set("pages_per_s", PagesPerSecond(ops));
  report->Set("cpu_us_per_page", MedianOf(ops, [](const CrawlOp& o) {
                return o.cpu_s * 1e6 / o.pages;
              }));
  report->Set("harvest_rate", MedianOf(ops, [](const CrawlOp& o) {
                return o.relevant / o.pages;
              }));
  report->Set("relevant_pages_per_s", MedianOf(ops, [](const CrawlOp& o) {
                return o.relevant / o.wall_s;
              }));
  report->Set("pages_per_virtual_s", MedianOf(ops, [](const CrawlOp& o) {
                return o.pages / o.virtual_s;
              }));
}

void AddStage(const crawl::StageMetricsSnapshot& s,
              crawl::StageMetricsSnapshot* sum) {
  sum->fetch_micros += s.fetch_micros;
  sum->classify_micros += s.classify_micros;
  sum->expand_micros += s.expand_micros;
  sum->lock_wait_micros += s.lock_wait_micros;
  sum->batches += s.batches;
  sum->batched_pages += s.batched_pages;
  sum->frontier_pops += s.frontier_pops;
  sum->frontier_steals += s.frontier_steals;
}

void AddReplay(const ReplayCost& r, ReplayCost* sum) {
  sum->fetch_us += r.fetch_us;
  sum->term_vector_us += r.term_vector_us;
  sum->pages += r.pages;
}

void ReportStage(const crawl::StageMetricsSnapshot& sum, uint64_t attempts,
                 double ops, Report* report) {
  auto per_op_ms = [ops](uint64_t micros) {
    return static_cast<double>(micros) / 1e3 / ops;
  };
  report->Set("crawl.fetch_ms", per_op_ms(sum.fetch_micros));
  report->Set("crawl.classify_ms", per_op_ms(sum.classify_micros));
  report->Set("crawl.expand_ms", per_op_ms(sum.expand_micros));
  report->Set("crawl.lock_wait_ms", per_op_ms(sum.lock_wait_micros));
  report->Set("crawl.frontier_pops",
              static_cast<double>(sum.frontier_pops) / ops);
  report->Set("crawl.frontier_steals",
              static_cast<double>(sum.frontier_steals) / ops);
  report->Set("crawl.batch_occupancy", sum.AvgBatchOccupancy());
  report->Set("crawl.attempts", static_cast<double>(attempts) / ops);
}

void ReportReplay(const ReplayCost& sum, Report* report) {
  if (sum.pages == 0) return;
  double pages = static_cast<double>(sum.pages);
  report->Set("webgraph.fetch_us_per_page", sum.fetch_us / pages);
  report->Set("text.term_vector_us_per_page", sum.term_vector_us / pages);
}

void ReportPool(const focus::storage::BufferPool::Stats& stats, double ops,
                Report* report) {
  report->Set("pool.fetches", static_cast<double>(stats.fetches) / ops);
  report->Set("pool.hit_ratio", stats.hit_ratio());
  report->Set("pool.misses", static_cast<double>(stats.misses) / ops);
  report->Set("pool.evictions", static_cast<double>(stats.evictions) / ops);
  report->Set("pool.dirty_writebacks",
              static_cast<double>(stats.dirty_writebacks) / ops);
  report->Set("pool.readahead_used_frac",
              stats.readahead_issued == 0
                  ? 0.0
                  : static_cast<double>(stats.readahead_used) /
                        static_cast<double>(stats.readahead_issued));
}

void ReportDisk(const char* device, const DiskCounters& c, double ops,
                Report* report) {
  std::string p = std::string("disk.") + device + ".";
  report->Set(p + "reads", static_cast<double>(c.reads) / ops);
  report->Set(p + "batch_reads", static_cast<double>(c.batch_reads) / ops);
  report->Set(p + "pages_written",
              static_cast<double>(c.pages_written) / ops);
  report->Set(p + "syncs", static_cast<double>(c.syncs) / ops);
  report->Set(p + "read_ms", c.read_ms / ops);
  report->Set(p + "write_ms", c.write_ms / ops);
  report->Set(p + "sync_ms", c.sync_ms / ops);
}

void ReportCalls(const CallStats& calls, double ops, Report* report) {
  report->Set("classify.calls", static_cast<double>(calls.calls) / ops);
  report->Set("classify.docs_per_call",
              calls.calls == 0 ? 0.0
                               : static_cast<double>(calls.docs) /
                                     static_cast<double>(calls.calls));
  report->Set("classify.busy_ms", calls.busy_us * 1e-3 / ops);
  report->Set("classify.call_us_p50", Percentile(calls.call_us, 0.50).value);
  report->Set("classify.call_us_p95", Percentile(calls.call_us, 0.95).value);
  report->Set("classify.call_samples",
              static_cast<double>(calls.call_us.size()));
}

}  // namespace perfbench
