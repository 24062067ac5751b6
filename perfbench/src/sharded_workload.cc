// Workload `sharded-crawl`: DistCrawl with 4 shards of 1 crawler thread
// each, over the same web, seeds and topic as `crawl` and the same total
// budget split evenly, run to its fixpoint over WAL-backed shards on
// in-memory devices; the run ends with one GlobalDistill over the merged
// graph of its last crawl (it costs more than a crawl). It exercises
// dist (router, exchange, supervisor rounds), the 1-thread crawl path, the
// WAL commit path and the distiller. In-memory devices keep fsync noise out
// while log bytes stay exact.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "dist/dist_crawl.h"
#include "crawl/metrics.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "src/setup.h"
#include "src/workloads.h"
#include "storage/page.h"
#include "util/clock.h"

namespace perfbench {
namespace {

namespace dist = focus::dist;
namespace obs = focus::obs;

constexpr int kShards = 4;
// Per-shard event ring for the traced run: large enough that no WAL
// commit event is overwritten during one fixpoint.
constexpr size_t kEventRing = size_t{1} << 18;

// One shard's devices for every boot (contents survive restarts, exactly
// as DistCrawl's default provider keeps them).
struct ShardStore {
  std::unique_ptr<storage::MemDiskManager> data;
  std::unique_ptr<storage::MemDiskManager> log;
  std::unique_ptr<TracedDisk> traced_data;
  std::unique_ptr<TracedDisk> traced_log;
  // EventLog::TotalRecorded() at each log-device sync (traced only).
  std::vector<uint64_t> sync_event_seq;
};

struct WalCounts {
  uint64_t commits = 0;
  uint64_t appends = 0;
  uint64_t checkpoints = 0;
  uint64_t max_group = 0;
};

struct ShardedLayers {
  int ops = 0;
  crawl::StageMetricsSnapshot stage;
  uint64_t attempts = 0;
  DiskCounters data;
  DiskCounters log;
  WalCounts wal;
  CallStats calls;
  dist::ExchangeStats exchange;
  ReplayCost replay;
  std::vector<double> shard_pages_min, shard_pages_max, shard_harvest_min,
      shard_harvest_max, shard_virtual_s_max;
};

struct Runs {
  std::vector<CrawlOp> ops;
  ShardedLayers layers;
  double distill_s = 0;  // the closing GlobalDistill
  double links = 0;      // edges it merged
};

// WAL commits, page-image appends and checkpoints of one shard, read back
// from its provenance log, and the most commits one log-device sync
// covered (each commit event is recorded right after its sync returns).
WalCounts CountWal(const obs::EventLog& log, const ShardStore& store) {
  WalCounts c;
  obs::EventFilter commits;
  commits.type = static_cast<int32_t>(obs::CrawlEventType::kWalCommit);
  std::map<size_t, uint64_t> per_sync;
  for (const obs::CrawlEvent& e : log.Snapshot(commits)) {
    ++c.commits;
    c.appends += static_cast<uint64_t>(e.value);
    auto it = std::upper_bound(store.sync_event_seq.begin(),
                               store.sync_event_seq.end(), e.seq);
    c.max_group = std::max(c.max_group,
                           ++per_sync[it - store.sync_event_seq.begin()]);
  }
  obs::EventFilter checkpoints;
  checkpoints.type = static_cast<int32_t>(obs::CrawlEventType::kWalCheckpoint);
  c.checkpoints = log.Snapshot(checkpoints).size();
  return c;
}

bool ScoresValid(const std::vector<std::pair<uint64_t, double>>& scores) {
  for (const auto& [oid, s] : scores) {
    if (!std::isfinite(s) || s < 0) return false;
  }
  return true;
}

// Everything one fixpoint crawl owns. Held by pointer (the store provider
// captures member addresses); the DistCrawl is declared last so it is torn
// down before the devices and evaluators it borrows.
struct Fixpoint {
  std::vector<ShardStore> stores = std::vector<ShardStore>(kShards);
  std::vector<const obs::EventLog*> logs =
      std::vector<const obs::EventLog*>(kShards, nullptr);
  std::unique_ptr<crawl::ClassifierEvaluator> evaluator;
  std::unique_ptr<TracedEvaluator> traced_evaluator;
  std::unique_ptr<dist::DistCrawl> dc;
};

// Adds one traced fixpoint's per-layer counts.
void AddLayers(const Fixpoint& fp, const CrawlOp& op, ShardedLayers* layers,
               CrawlInputs* in) {
  dist::DistCrawl* dc = fp.dc.get();
  ShardedLayers& l = *layers;
  ++l.ops;
  double pages_min = 1e300, pages_max = 0, harvest_min = 1e300,
         harvest_max = 0;
  std::vector<std::string> urls;
  for (int s = 0; s < kShards; ++s) {
    crawl::Crawler* c = dc->crawler(s);
    AddStage(c->stage_metrics().Snapshot(), &l.stage);
    l.attempts += c->stats().attempts;
    double pages = static_cast<double>(c->visits().size());
    double relevant = 0;
    for (const crawl::Visit& v : c->visits()) {
      if (v.relevance >= kRelevantThreshold) relevant += 1;
      urls.push_back(v.url);
    }
    double harvest = pages == 0 ? 0 : relevant / pages;
    pages_min = std::min(pages_min, pages);
    pages_max = std::max(pages_max, pages);
    harvest_min = std::min(harvest_min, harvest);
    harvest_max = std::max(harvest_max, harvest);
    const ShardStore& store = fp.stores[static_cast<size_t>(s)];
    l.data += store.traced_data->counters();
    l.log += store.traced_log->counters();
    WalCounts w = CountWal(*dc->event_log(s), store);
    l.wal.commits += w.commits;
    l.wal.appends += w.appends;
    l.wal.checkpoints += w.checkpoints;
    l.wal.max_group = std::max(l.wal.max_group, w.max_group);
  }
  l.shard_pages_min.push_back(pages_min);
  l.shard_pages_max.push_back(pages_max);
  l.shard_harvest_min.push_back(harvest_min);
  l.shard_harvest_max.push_back(harvest_max);
  l.shard_virtual_s_max.push_back(op.virtual_s);
  const dist::ExchangeStats& ex = dc->exchange_stats();
  l.exchange.delivered += ex.delivered;
  l.exchange.batches += ex.batches;
  l.exchange.replayed += ex.replayed;
  l.calls += fp.traced_evaluator->stats();
  AddReplay(PriceEnvironment(&in->system->web(), urls), &l.replay);
}

// Runs one fixpoint crawl; on success `*keep` holds it (for the run's
// closing GlobalDistill).
bool RunOneFixpoint(CrawlInputs* in, obs::MetricsRegistry* registry,
                    int budget, bool traced, Runs* out,
                    std::unique_ptr<Fixpoint>* keep) {
  keep->reset();  // at most one fixpoint's state alive at a time
  auto fp = std::make_unique<Fixpoint>();
  fp->evaluator =
      std::make_unique<crawl::ClassifierEvaluator>(&in->system->classifier());
  crawl::RelevanceEvaluator* evaluator = fp->evaluator.get();
  if (traced) {
    fp->traced_evaluator = std::make_unique<TracedEvaluator>(evaluator);
    evaluator = fp->traced_evaluator.get();
  }

  dist::DistCrawlOptions o;
  o.num_shards = kShards;
  o.crawler.max_fetches = budget / kShards;
  o.crawler.num_threads = 1;
  o.crawler.expansion = crawl::ExpansionRule::kSoftFocus;
  o.metrics_registry = registry;
  o.enable_event_logs = traced;
  o.event_ring_capacity = kEventRing;
  Fixpoint* f = fp.get();
  o.store_provider = [f, traced](int shard,
                                 int) -> Result<dist::ShardDevices> {
    ShardStore& st = f->stores[static_cast<size_t>(shard)];
    if (st.data == nullptr) {
      st.data = std::make_unique<storage::MemDiskManager>();
      st.log = std::make_unique<storage::MemDiskManager>();
      if (traced) {
        st.traced_data = std::make_unique<TracedDisk>(st.data.get());
        st.traced_log = std::make_unique<TracedDisk>(st.log.get());
        const obs::EventLog** log = &f->logs[static_cast<size_t>(shard)];
        std::vector<uint64_t>* seqs = &st.sync_event_seq;
        st.traced_log->set_sync_observer([log, seqs] {
          seqs->push_back(*log == nullptr ? 0 : (*log)->TotalRecorded());
        });
      }
    }
    if (traced) {
      return dist::ShardDevices{st.traced_data.get(), st.traced_log.get()};
    }
    return dist::ShardDevices{st.data.get(), st.log.get()};
  };

  auto dc_or = dist::DistCrawl::Create(&in->system->web(), evaluator, o);
  if (!dc_or.ok()) {
    std::fprintf(stderr, "sharded-crawl: create: %s\n",
                 dc_or.status().ToString().c_str());
    return false;
  }
  fp->dc = std::move(dc_or).TakeValue();
  dist::DistCrawl* dc = fp->dc.get();
  for (int s = 0; s < kShards; ++s) {
    fp->logs[static_cast<size_t>(s)] = dc->event_log(s);
  }
  for (const std::string& url : in->NextStartSet()) {
    Status st = dc->AddSeed(url);
    if (!st.ok()) {
      std::fprintf(stderr, "sharded-crawl: seed: %s\n", st.ToString().c_str());
      return false;
    }
  }

  CrawlOp op;
  double cpu0 = ProcessCpuSeconds();
  focus::Stopwatch wall;
  Status st = dc->RunToFixpoint();
  op.wall_s = wall.ElapsedSeconds();
  op.cpu_s = ProcessCpuSeconds() - cpu0;
  if (!st.ok()) {
    std::fprintf(stderr, "sharded-crawl: %s\n", st.ToString().c_str());
    return false;
  }

  auto visited = dc->VisitedRelevance();
  auto audit = dc->AuditExchange();
  if (!visited.ok() || !audit.ok()) {
    std::fprintf(stderr, "sharded-crawl: visited/audit failed\n");
    return false;
  }

  // Output checks: the exchange is drained, shard visit sets are disjoint
  // and their union is exactly VisitedRelevance().
  bool ok = true;
  for (const dist::WatermarkAudit& a : audit.value()) {
    if (a.pending != 0) ok = false;
  }
  std::map<std::string, double> from_shards;
  for (int s = 0; s < kShards; ++s) {
    for (const crawl::Visit& v : dc->crawler(s)->visits()) {
      if (!from_shards.emplace(v.url, v.relevance).second) ok = false;
    }
  }
  if (from_shards != visited.value()) ok = false;
  if (!ok) {
    std::fprintf(stderr, "sharded-crawl: output check failed\n");
    return false;
  }

  op.pages = static_cast<double>(visited.value().size());
  for (const auto& [url, relevance] : visited.value()) {
    if (relevance >= kRelevantThreshold) op.relevant += 1;
  }
  for (int s = 0; s < kShards; ++s) {
    op.virtual_s = std::max(op.virtual_s, dc->crawler(s)->clock().NowSeconds());
    op.log_bytes +=
        static_cast<double>(fp->stores[static_cast<size_t>(s)].log->stats().writes) *
        focus::storage::kPageSize;
  }
  out->ops.push_back(op);
  if (traced) AddLayers(*fp, op, &out->layers, in);
  *keep = std::move(fp);
  return true;
}

// Closed loop of fixpoint crawls for `seconds`, then one GlobalDistill over
// the last crawl (hub and authority scores must be finite and
// non-negative).
Runs Loop(CrawlInputs* in, obs::MetricsRegistry* registry, double seconds,
          bool traced, RunResult* result) {
  Runs runs;
  std::unique_ptr<Fixpoint> last;
  focus::Stopwatch elapsed;
  do {
    result->CountOp(
        RunOneFixpoint(in, registry, kCrawlBudget, traced, &runs, &last));
  } while (elapsed.ElapsedSeconds() < seconds);
  if (last == nullptr) return runs;
  focus::Stopwatch timer;
  auto distilled = last->dc->GlobalDistill(focus::distill::HitsOptions{});
  runs.distill_s = timer.ElapsedSeconds();
  bool ok = distilled.ok() && ScoresValid(distilled.value().hubs) &&
            ScoresValid(distilled.value().auths);
  result->CountOp(ok);
  if (!ok) {
    std::fprintf(stderr, "sharded-crawl: GlobalDistill failed or gave "
                         "invalid scores\n");
    runs.distill_s = 0;
    return runs;
  }
  runs.links = static_cast<double>(distilled.value().merged_links);
  return runs;
}

}  // namespace

void RunShardedCrawlWorkload(const RunOptions& options, RunResult* result) {
  Report& r = result->report;
  obs::MetricsRegistry registry;

  CrawlInputs inputs;
  auto warm_up = [&registry](CrawlInputs* in) {
    Runs discard;
    std::unique_ptr<Fixpoint> unused;
    return RunOneFixpoint(in, &registry, kCrawlBudget / 8, false, &discard,
                          &unused);
  };
  if (!SetUpCrawlInputs(options.seed, warm_up, &inputs, result)) return;

  Runs plain = Loop(&inputs, &registry, options.seconds, false, result);
  if (plain.ops.empty()) return;
  ReportCrawlOps(plain.ops, &r);
  r.Set("wal_bytes_per_page",
        MedianOf(plain.ops,
                 [](const CrawlOp& o) { return o.log_bytes / o.pages; }));
  r.Set("global_distill_s", plain.distill_s);
  if (!options.trace) return;

  Runs traced = Loop(&inputs, &registry, options.seconds, true, result);
  const ShardedLayers& l = traced.layers;
  if (l.ops == 0) return;
  double ops = l.ops;
  r.Set("trace.overhead_frac",
        1.0 - PagesPerSecond(traced.ops) / r.Get("pages_per_s"));
  ReportStage(l.stage, l.attempts, ops, &r);
  ReportCalls(l.calls, ops, &r);
  ReportDisk("data", l.data, ops, &r);
  ReportDisk("log", l.log, ops, &r);
  r.Set("wal.commits", static_cast<double>(l.wal.commits) / ops);
  r.Set("wal.appends", static_cast<double>(l.wal.appends) / ops);
  r.Set("wal.log_bytes", static_cast<double>(l.log.pages_written) *
                             focus::storage::kPageSize / ops);
  r.Set("wal.syncs", static_cast<double>(l.log.syncs) / ops);
  r.Set("wal.checkpoints", static_cast<double>(l.wal.checkpoints) / ops);
  r.Set("wal.group_commit_max_batch", static_cast<double>(l.wal.max_group));
  r.Set("distill.links", traced.links);
  r.Set("dist.exchange_delivered",
        static_cast<double>(l.exchange.delivered) / ops);
  r.Set("dist.exchange_batches", static_cast<double>(l.exchange.batches) / ops);
  r.Set("dist.exchange_replayed",
        static_cast<double>(l.exchange.replayed) / ops);
  r.Set("dist.shard_pages_min", Median(l.shard_pages_min));
  r.Set("dist.shard_pages_max", Median(l.shard_pages_max));
  r.Set("dist.shard_harvest_min", Median(l.shard_harvest_min));
  r.Set("dist.shard_harvest_max", Median(l.shard_harvest_max));
  r.Set("dist.shard_virtual_s_max", Median(l.shard_virtual_s_max));
  ReportReplay(l.replay, &r);
}

}  // namespace perfbench
