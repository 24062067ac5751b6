// Multi-shard distributed crawl: the N-shard fixpoint must be
// bit-identical to the single-shard crawl — same visited set, same judged
// relevances, same harvest rate, same global distillation scores — no
// matter how many shards run and no matter how often they die.
//
// Three death modes are exercised: none (pure partitioning), scheduled
// virtual-time kills (ShardFaultPlan firing through the crawler's
// interrupt hook), and a disk-op crash matrix (CrashFaultDiskManager
// pulling the plug at every stride-th mutating operation of the whole
// multi-shard run, exchange-batch commits included). After every
// recovery the exchange watermarks must prove exactly-once delivery:
// zero pending messages, watermark equal to the outbox tail, no lost or
// duplicated cross-shard link.
//
// FOCUS_WAL_CRASH_STRIDE=<n> widens the sweep stride (CI smoke knob,
// shared with wal_recovery_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/focus.h"
#include "core/sample_taxonomy.h"
#include "crawl/metrics.h"
#include "dist/dist_crawl.h"
#include "dist/shard_router.h"
#include "storage/crash_fault_disk.h"
#include "webgraph/web_config.h"

namespace focus {
namespace {

using core::FocusOptions;
using core::FocusSystem;
using dist::DistCrawl;
using dist::DistCrawlOptions;
using dist::ShardDevices;
using dist::ShardFaultPlan;
using dist::ShardRouter;
using dist::WatermarkAudit;
using taxonomy::Cid;

// ---------------------------------------------------------------------
// ShardRouter partitioning.

TEST(ShardRouterTest, PartitionsByServerStably) {
  ShardRouter router(4);
  EXPECT_EQ(router.num_shards(), 4);
  std::set<int> used;
  for (int s = 0; s < 64; ++s) {
    std::string a = "http://server" + std::to_string(s) + ".web/p0";
    std::string b = "http://server" + std::to_string(s) + ".web/deep/p9";
    int shard = router.ShardOfUrl(a);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    // The unit of ownership is the server: every URL of a host lands on
    // the same shard, so breaker/retry/load state never crosses shards.
    EXPECT_EQ(shard, router.ShardOfUrl(b)) << a;
    EXPECT_EQ(shard, router.ShardOfServer(crawl::ServerIdOf(a)));
    used.insert(shard);
  }
  EXPECT_EQ(used.size(), 4u) << "64 servers left some shard empty";
  // Degenerate single-shard router owns everything.
  ShardRouter one(1);
  for (int s = 0; s < 16; ++s) {
    EXPECT_EQ(one.ShardOfUrl("http://server" + std::to_string(s) + ".web/"),
              0);
  }
}

// ---------------------------------------------------------------------
// Shared fixtures.

// A hostile web: transient failures plus permanent losses, so the
// identity claims below cover the retry/drop machinery too.
FocusOptions DistOptions(uint64_t seed) {
  FocusOptions options;
  options.seed = seed;
  options.web.pages_per_topic = 120;
  options.web.background_pages = 800;
  options.web.background_servers = 40;
  options.web.fetch_failure_prob = 0.10;
  options.web.faults.permanent_prob = 0.02;
  return options;
}

std::unique_ptr<FocusSystem> TrainedSystem(FocusOptions options) {
  auto system =
      FocusSystem::Create(core::BuildSampleTaxonomy(), std::move(options))
          .TakeValue();
  EXPECT_TRUE(system->MarkGood("cycling").ok());
  EXPECT_TRUE(system->Train().ok());
  return system;
}

std::map<std::string, double> VisitedByUrl(crawl::CrawlDb* db) {
  std::map<std::string, double> out;
  auto it = db->crawl_table()->Scan();
  storage::Rid rid;
  sql::Tuple row;
  while (it.Next(&rid, &row)) {
    crawl::CrawlRecord rec = crawl::CrawlDb::RecordFromTuple(row);
    if (rec.visited) out[rec.url] = rec.relevance;
  }
  EXPECT_TRUE(it.status().ok()) << it.status().ToString();
  return out;
}

// Every (src, dst) queue fully applied: nothing pending, watermark at the
// outbox tail. This is the durable exactly-once witness.
void ExpectExchangeSettled(DistCrawl* dc) {
  auto audit = dc->AuditExchange();
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  for (const WatermarkAudit& a : *audit) {
    EXPECT_EQ(a.pending, 0)
        << a.src_shard << "->" << a.dst_shard << " lost messages";
    EXPECT_EQ(a.watermark, a.outbox_high)
        << a.src_shard << "->" << a.dst_shard << " watermark lags outbox";
  }
}

struct DistRun {
  std::unique_ptr<DistCrawl> dc;
  std::map<std::string, double> visited;
  double harvest = 0.0;
  dist::GlobalDistillResult distill;
};

DistRun RunDistributed(FocusSystem* system, crawl::RelevanceEvaluator* ev,
                       DistCrawlOptions dopts,
                       const std::vector<std::string>& seeds) {
  DistRun run;
  dopts.crawler.max_fetches = 20000;  // > page count: run to exhaustion
  dopts.crawler.distill_every = 0;
  auto dc = DistCrawl::Create(&system->web(), ev, std::move(dopts));
  EXPECT_TRUE(dc.ok()) << dc.status().ToString();
  run.dc = std::move(dc).TakeValue();
  for (const std::string& url : seeds) {
    EXPECT_TRUE(run.dc->AddSeed(url).ok());
  }
  Status s = run.dc->RunToFixpoint();
  EXPECT_TRUE(s.ok()) << s.ToString();
  auto visited = run.dc->VisitedRelevance();
  EXPECT_TRUE(visited.ok());
  run.visited = std::move(visited).TakeValue();
  auto harvest = run.dc->HarvestRate(0.5);
  EXPECT_TRUE(harvest.ok());
  run.harvest = *harvest;
  auto distill = run.dc->GlobalDistill({.iterations = 10, .rho = 0.1});
  EXPECT_TRUE(distill.ok()) << distill.status().ToString();
  run.distill = std::move(distill).TakeValue();
  return run;
}

void ExpectIdenticalRuns(const DistRun& a, const DistRun& b) {
  ASSERT_EQ(a.visited.size(), b.visited.size());
  for (const auto& [url, relevance] : a.visited) {
    auto it = b.visited.find(url);
    ASSERT_NE(it, b.visited.end()) << url << " missing";
    EXPECT_EQ(relevance, it->second) << url;  // bit-identical, not approx
  }
  EXPECT_EQ(a.harvest, b.harvest);
  EXPECT_EQ(a.distill.merged_pages, b.distill.merged_pages);
  EXPECT_EQ(a.distill.merged_links, b.distill.merged_links);
  ASSERT_EQ(a.distill.hubs.size(), b.distill.hubs.size());
  ASSERT_EQ(a.distill.auths.size(), b.distill.auths.size());
  for (size_t i = 0; i < a.distill.hubs.size(); ++i) {
    EXPECT_EQ(a.distill.hubs[i], b.distill.hubs[i]) << "hub " << i;
  }
  for (size_t i = 0; i < a.distill.auths.size(); ++i) {
    EXPECT_EQ(a.distill.auths[i], b.distill.auths[i]) << "auth " << i;
  }
}

// ---------------------------------------------------------------------
// Partitioning alone: N shards converge to the 1-shard fixpoint.

TEST(DistributedCrawlTest, NShardFixpointBitIdenticalToSingleShard) {
  auto system = TrainedSystem(DistOptions(41));
  Cid cycling = system->tax().FindByName("cycling").value();
  std::vector<std::string> seeds = system->web().KeywordSeeds(cycling, 8);
  crawl::ClassifierEvaluator evaluator(&system->classifier());

  // Cross-check the 1-shard DistCrawl against a plain undistributed
  // crawler first, so the N-vs-1 comparisons below anchor to the
  // original code path and not merely to each other.
  std::map<std::string, double> plain;
  {
    crawl::CrawlerOptions copts;
    copts.max_fetches = 20000;
    copts.distill_every = 0;
    auto session = system->NewCrawl(seeds, copts).TakeValue();
    ASSERT_TRUE(session->crawler().Crawl().ok());
    ASSERT_TRUE(session->crawler().stats().stagnated);
    plain = VisitedByUrl(&session->db());
  }
  ASSERT_GT(plain.size(), 50u);

  DistCrawlOptions base;
  base.num_shards = 1;
  DistRun one = RunDistributed(system.get(), &evaluator, base, seeds);
  EXPECT_EQ(one.visited, plain);
  EXPECT_EQ(one.dc->exchange_stats().delivered, 0u);

  for (int n : {2, 4, 8}) {
    SCOPED_TRACE(n);
    DistCrawlOptions dopts;
    dopts.num_shards = n;
    DistRun sharded = RunDistributed(system.get(), &evaluator, dopts, seeds);
    ExpectIdenticalRuns(one, sharded);
    // The identity is not vacuous: links really crossed shard
    // boundaries, and every one of them was durably applied.
    EXPECT_GT(sharded.dc->exchange_stats().delivered, 0u);
    EXPECT_GT(sharded.dc->exchange_stats().batches, 0u);
    EXPECT_EQ(sharded.dc->total_restarts(), 0);
    ExpectExchangeSettled(sharded.dc.get());
  }
}

// ---------------------------------------------------------------------
// Scheduled virtual-time kills: every shard dies once mid-crawl.

TEST(DistributedCrawlTest, ScheduledShardKillsRecoverAndConverge) {
  auto system = TrainedSystem(DistOptions(43));
  Cid cycling = system->tax().FindByName("cycling").value();
  std::vector<std::string> seeds = system->web().KeywordSeeds(cycling, 8);
  crawl::ClassifierEvaluator evaluator(&system->classifier());

  DistCrawlOptions clean;
  clean.num_shards = 4;
  DistRun reference = RunDistributed(system.get(), &evaluator, clean, seeds);
  ASSERT_GT(reference.visited.size(), 50u);

  // Kill all four shards at different points of their (virtual)
  // timelines — early enough that every shard still has work left.
  ShardFaultPlan plan;
  plan.KillAt(1, 250'000);
  plan.KillAt(3, 600'000);
  plan.KillAt(0, 1'000'000);
  plan.KillAt(2, 1'500'000);

  DistCrawlOptions chaos;
  chaos.num_shards = 4;
  chaos.fault_plan = &plan;
  chaos.enable_event_logs = true;
  obs::MetricsRegistry registry;
  chaos.metrics_registry = &registry;
  DistRun survived = RunDistributed(system.get(), &evaluator, chaos, seeds);

  EXPECT_EQ(plan.fired(), 4);
  EXPECT_EQ(survived.dc->total_restarts(), 4);
  ExpectIdenticalRuns(reference, survived);
  ExpectExchangeSettled(survived.dc.get());

  // The queue-depth gauge (kept from each round's delivery read, not from
  // an audit scan) agrees with the durable audit once the run is done.
  auto audit = survived.dc->AuditExchange();
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  std::vector<int64_t> pending(4, 0);
  for (const WatermarkAudit& a : *audit) {
    pending[static_cast<size_t>(a.src_shard)] += a.pending;
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(registry
                  .GetGauge("focus_shard_exchange_queue_depth",
                            {{"shard", std::to_string(s)}})
                  ->Value(),
              static_cast<double>(pending[static_cast<size_t>(s)]))
        << "shard " << s;
  }
  EXPECT_EQ(registry.GetGauge("focus_shard_exchange_delivered")->Value(),
            static_cast<double>(survived.dc->exchange_stats().delivered));

  // Provenance: each shard's own log recorded its death and rebirth,
  // stamped with that shard's id.
  for (int s = 0; s < 4; ++s) {
    SCOPED_TRACE(s);
    ASSERT_EQ(survived.dc->restarts(s), 1);
    obs::EventLog* log = survived.dc->event_log(s);
    ASSERT_NE(log, nullptr);
    obs::EventFilter deaths;
    deaths.type = static_cast<int32_t>(obs::CrawlEventType::kShardDeath);
    std::vector<obs::CrawlEvent> death_events = log->Snapshot(deaths);
    ASSERT_EQ(death_events.size(), 1u);
    EXPECT_EQ(death_events[0].shard_id, s);
    EXPECT_EQ(death_events[0].value, 0.0);  // scheduled kill, not storage
    obs::EventFilter restarts;
    restarts.type = static_cast<int32_t>(obs::CrawlEventType::kShardRestart);
    std::vector<obs::CrawlEvent> restart_events = log->Snapshot(restarts);
    ASSERT_EQ(restart_events.size(), 1u);
    EXPECT_EQ(restart_events[0].shard_id, s);
    EXPECT_EQ(restart_events[0].aux, 1);  // second boot
    // Cross-shard deliveries were journaled against the receiving shard.
    obs::EventFilter batches;
    batches.type = static_cast<int32_t>(obs::CrawlEventType::kExchangeBatch);
    for (const obs::CrawlEvent& ev : log->Snapshot(batches)) {
      EXPECT_EQ(ev.shard_id, s);
      EXPECT_GE(ev.parent_oid, 0);  // source shard
      EXPECT_NE(ev.parent_oid, s);
      EXPECT_GT(ev.aux, 0);  // messages delivered
    }
  }
}

// ---------------------------------------------------------------------
// Concurrency: the shards of a round crawl at the same time, each
// counting only its own work.

FocusOptions FaultFreeOptions(uint64_t seed) {
  FocusOptions options = DistOptions(seed);
  options.web.fetch_failure_prob = 0.0;
  options.web.faults.permanent_prob = 0.0;
  return options;
}

// Holds each thread's first JudgeBatch until `parties` threads have
// entered one, or 5 s have passed. The rendezvous completes only when that
// many shards are inside their crawls at the same time.
class RendezvousEvaluator final : public crawl::RelevanceEvaluator {
 public:
  RendezvousEvaluator(crawl::RelevanceEvaluator* inner, size_t parties)
      : inner_(inner), parties_(parties) {}

  Result<crawl::PageJudgment> Judge(const text::TermVector& terms) override {
    return inner_->Judge(terms);
  }

  Result<std::vector<crawl::PageJudgment>> JudgeBatch(
      const std::vector<text::TermVector>& docs) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (entered_.insert(std::this_thread::get_id()).second) {
        all_entered_.notify_all();
        if (!all_entered_.wait_for(lock, std::chrono::seconds(5), [this] {
              return entered_.size() >= parties_;
            })) {
          timed_out_ = true;
        }
      }
    }
    return inner_->JudgeBatch(docs);
  }

  bool met() const {
    std::lock_guard<std::mutex> lock(mu_);
    return !timed_out_ && entered_.size() >= parties_;
  }

 private:
  crawl::RelevanceEvaluator* inner_;
  const size_t parties_;
  mutable std::mutex mu_;
  std::condition_variable all_entered_;
  std::set<std::thread::id> entered_;
  bool timed_out_ = false;
};

TEST(DistributedCrawlTest, ShardsOfARoundCrawlConcurrently) {
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "four shards overlap only on four hardware threads";
  }
  auto system = TrainedSystem(FaultFreeOptions(47));
  // Two seeds on every shard, so each shard crawls in the first round.
  constexpr int kShards = 4;
  ShardRouter router(kShards);
  std::vector<std::string> seeds;
  std::vector<int> per_shard(kShards, 0);
  const webgraph::SimulatedWeb& web = system->web();
  for (uint32_t i = 0; i < web.num_pages(); ++i) {
    int s = router.ShardOfUrl(web.page(i).url);
    if (per_shard[static_cast<size_t>(s)] == 2) continue;
    ++per_shard[static_cast<size_t>(s)];
    seeds.push_back(web.page(i).url);
  }
  ASSERT_EQ(seeds.size(), 2u * kShards);

  crawl::ClassifierEvaluator classifier(&system->classifier());
  RendezvousEvaluator rendezvous(&classifier, kShards);
  DistCrawlOptions dopts;
  dopts.num_shards = kShards;
  DistRun run = RunDistributed(system.get(), &rendezvous, dopts, seeds);
  EXPECT_TRUE(rendezvous.met())
      << "the four shards were never inside their crawls at once";
  EXPECT_GT(run.visited.size(), 50u);
  ExpectExchangeSettled(run.dc.get());
}

TEST(DistributedCrawlTest, EachShardsStageMetricsCountItsOwnWork) {
  auto system = TrainedSystem(FaultFreeOptions(53));
  Cid cycling = system->tax().FindByName("cycling").value();
  std::vector<std::string> seeds = system->web().KeywordSeeds(cycling, 8);
  crawl::ClassifierEvaluator evaluator(&system->classifier());
  obs::MetricsRegistry registry;
  DistCrawlOptions dopts;
  dopts.num_shards = 2;
  dopts.metrics_registry = &registry;
  DistRun run = RunDistributed(system.get(), &evaluator, dopts, seeds);

  uint64_t total_pops = 0;
  for (int s = 0; s < 2; ++s) {
    SCOPED_TRACE(s);
    const crawl::Crawler* crawler = run.dc->crawler(s);
    // Fault-free: every pop is exactly one fetch attempt.
    EXPECT_GT(crawler->stats().attempts, 0u);
    crawl::StageMetricsSnapshot own = crawler->stage_metrics().Snapshot();
    EXPECT_EQ(own.frontier_pops, crawler->stats().attempts);
    EXPECT_EQ(own.batched_pages, crawler->visits().size());
    total_pops += own.frontier_pops;
  }
  // The shared registry counter still sums both shards.
  EXPECT_EQ(registry.GetCounter("focus_crawl_frontier_pops_total")->Value(),
            total_pops);
}

// ---------------------------------------------------------------------
// The crash matrix: power loss at every stride-th disk op of the whole
// two-shard run, exchange-batch commits included.

// Judges everything maximally relevant, so the sweep's many passes stay
// cheap (no classifier, no training).
class ConstantEvaluator final : public crawl::RelevanceEvaluator {
 public:
  Result<crawl::PageJudgment> Judge(const text::TermVector&) override {
    crawl::PageJudgment j;
    j.relevance = 1.0;
    j.best_leaf_is_good = true;
    return j;
  }
};

uint64_t CrashStride() {
  if (const char* env = std::getenv("FOCUS_WAL_CRASH_STRIDE")) {
    long v = std::atol(env);
    if (v > 1) return static_cast<uint64_t>(v);
  }
  return 1;
}

TEST(DistributedCrawlTest, ExchangeCrashMatrixDeliversExactlyOnce) {
  taxonomy::Taxonomy tax;
  Cid rec = tax.AddTopic(taxonomy::kRootCid, "recreation").value();
  ASSERT_TRUE(tax.AddTopic(rec, "cycling").ok());
  webgraph::WebConfig config;
  config.seed = 5;
  config.pages_per_topic = 60;
  config.background_pages = 150;
  auto web = webgraph::SimulatedWeb::Generate(tax, config, {}).TakeValue();
  ConstantEvaluator evaluator;

  constexpr int kShards = 2;
  storage::CrashPlan plan;
  constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

  struct RunOutcome {
    std::map<std::string, double> visited;
    uint64_t raw_links = 0;  // LINK rows across shards, duplicates kept
    uint64_t merged_links = 0;
    uint64_t delivered = 0;
    uint64_t replayed = 0;
    int restarts = 0;
  };

  // The ops of the first round's delivery phase: (last op before it,
  // last op of it]. Crawl workers poll the interrupt hook before every
  // batch, so the hook sees the op counter on both sides of the phase:
  // polls before any delivery bound the window from below, the first
  // polls of the next round from above.
  struct DeliveryWindow {
    std::mutex mu;
    uint64_t lo = 0;
    uint64_t hi = std::numeric_limits<uint64_t>::max();
  };

  // One complete two-shard crawl over plan-decorated memory devices. The
  // plan is armed only around RunToFixpoint, so every crash point lands
  // in the supervised region; a rebooting shard gets fresh decorators
  // over the same surviving bytes and a disarmed plan (one power cut per
  // pass — the supervisor's recovery itself must then run clean).
  auto run = [&](uint64_t crash_at, uint64_t* total_ops, RunOutcome* out,
                 DeliveryWindow* window = nullptr) -> Status {
    storage::MemDiskManager data[kShards], log[kShards];
    std::deque<storage::CrashFaultDiskManager> decorators;
    DistCrawlOptions dopts;
    dopts.num_shards = kShards;
    dopts.crawler.max_fetches = 20000;
    dopts.crawler.distill_every = 0;
    dopts.crawler.checkpoint_every_batches = 4;
    // One page per durable batch keeps the crash points dense.
    dopts.crawler.classify_batch_size = 1;
    // Set once the supervisor exists; the hook runs only inside
    // RunToFixpoint's crawl phases, after every earlier delivery phase
    // has joined.
    DistCrawl* live = nullptr;
    if (window != nullptr) {
      dopts.crawler.interrupt = [&live, &plan, window](int64_t) {
        const uint64_t op = plan.op_count.load();
        std::lock_guard<std::mutex> lock(window->mu);
        if (live->exchange_stats().delivered == 0) {
          window->lo = std::max(window->lo, op);
        } else {
          window->hi = std::min(window->hi, op);
        }
        return Status::OK();
      };
    }
    dopts.store_provider = [&](int s, int boot) -> Result<ShardDevices> {
      if (boot > 0) plan.Reset(kNever);
      decorators.emplace_back(&data[s], &plan);
      storage::DiskManager* d = &decorators.back();
      decorators.emplace_back(&log[s], &plan);
      return ShardDevices{d, &decorators.back()};
    };
    plan.Reset(kNever);
    FOCUS_ASSIGN_OR_RETURN(std::unique_ptr<DistCrawl> dc,
                           DistCrawl::Create(&web, &evaluator, dopts));
    live = dc.get();
    FOCUS_RETURN_IF_ERROR(dc->AddSeed(web.page(0).url));
    plan.Reset(crash_at);
    FOCUS_RETURN_IF_ERROR(dc->RunToFixpoint());
    if (total_ops != nullptr) *total_ops = plan.op_count.load();
    plan.Reset(kNever);  // the verification scans below must not crash
    FOCUS_ASSIGN_OR_RETURN(out->visited, dc->VisitedRelevance());
    for (int s = 0; s < kShards; ++s) {
      out->raw_links += dc->db(s)->num_links();
    }
    FOCUS_ASSIGN_OR_RETURN(dist::GlobalDistillResult distill,
                           dc->GlobalDistill({.iterations = 5, .rho = 0.1}));
    out->merged_links = distill.merged_links;
    out->delivered = dc->exchange_stats().delivered;
    out->replayed = dc->exchange_stats().replayed;
    out->restarts = dc->total_restarts();
    FOCUS_ASSIGN_OR_RETURN(std::vector<WatermarkAudit> audit,
                           dc->AuditExchange());
    for (const WatermarkAudit& a : audit) {
      if (a.pending != 0 || a.watermark != a.outbox_high) {
        return Status::Internal("exchange not settled at fixpoint");
      }
    }
    return Status::OK();
  };

  // Golden pass: no crash, count the op stream and find the first
  // round's delivery phase in it.
  RunOutcome golden;
  uint64_t total_ops = 0;
  DeliveryWindow window;
  {
    Status s = run(kNever, &total_ops, &golden, &window);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  ASSERT_GT(golden.visited.size(), 100u);
  ASSERT_GT(golden.delivered, 0u) << "no cross-shard traffic to protect";
  ASSERT_EQ(golden.restarts, 0);
  ASSERT_GT(total_ops, 500u);
  ASSERT_LT(window.lo, window.hi);
  ASSERT_LE(window.hi, total_ops);

  // Sweep. The stride honors FOCUS_WAL_CRASH_STRIDE but also caps the
  // pass count, since every pass is a full crawl-to-exhaustion. On top of
  // the strided points the first delivery phase is walked op by op (at
  // most 64 passes), so crash points land inside delivery commits at any
  // stride.
  uint64_t stride = std::max(CrashStride(), total_ops / 160);
  std::set<uint64_t> crash_points;
  for (uint64_t k = 1; k < total_ops; k += stride) crash_points.insert(k);
  const uint64_t window_step =
      std::max<uint64_t>(1, (window.hi - window.lo + 63) / 64);
  for (uint64_t k = window.lo + 1; k <= window.hi; k += window_step) {
    crash_points.insert(k);
  }
  uint64_t swept = 0, crashed_passes = 0, replays = 0;
  for (uint64_t k : crash_points) {
    SCOPED_TRACE(testing::Message() << "crash at op " << k << " of "
                                    << total_ops);
    RunOutcome outcome;
    Status s = run(k, nullptr, &outcome);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ++swept;
    crashed_passes += outcome.restarts > 0 ? 1 : 0;
    replays += outcome.replayed;
    // Exactly-once across the power cut: the union state equals the
    // crash-free run's — nothing lost, and the raw (pre-dedup) LINK row
    // count proves nothing was applied twice either.
    ASSERT_EQ(outcome.visited.size(), golden.visited.size());
    EXPECT_EQ(outcome.visited, golden.visited);
    EXPECT_EQ(outcome.raw_links, golden.raw_links);
    EXPECT_EQ(outcome.merged_links, golden.merged_links);
  }
  ASSERT_GT(swept, 20u);
  // The sweep actually exercised deaths, and at least one crash point
  // fell inside a delivery window (read done, commit lost), forcing the
  // watermark protocol to redeliver.
  EXPECT_GT(crashed_passes, swept / 2);
  EXPECT_GT(replays, 0u);
}

}  // namespace
}  // namespace focus
