// Tests for the concurrent crawl pipeline: the server-sharded frontier,
// the batched relevance evaluator, and thread-count invariance of the
// crawl outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "classify/bulk_probe.h"
#include "classify/db_tables.h"
#include "core/focus.h"
#include "core/sample_taxonomy.h"
#include "crawl/batch_evaluator.h"
#include "crawl/frontier.h"
#include "crawl/metrics.h"
#include "crawl/monitor.h"
#include "sql/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "text/document.h"
#include "util/clock.h"

namespace focus::core {
namespace {

using crawl::BatchRelevanceEvaluator;
using crawl::ClassifierEvaluator;
using crawl::Crawler;
using crawl::CrawlerOptions;
using crawl::Frontier;
using crawl::FrontierEntry;
using crawl::PageJudgment;
using crawl::PriorityPolicy;
using crawl::ShardedFrontier;
using taxonomy::Cid;
using taxonomy::Taxonomy;

FrontierEntry Entry(uint64_t oid, const std::string& url, double relevance,
                    int32_t numtries = 0, int32_t serverload = 0) {
  FrontierEntry e;
  e.oid = oid;
  e.url = url;
  e.relevance = relevance;
  e.numtries = numtries;
  e.serverload = serverload;
  return e;
}

TEST(ShardedFrontierTest, SingleShardMatchesPlainFrontierOrder) {
  // With one shard the sharded frontier must reproduce the classic
  // frontier's pop sequence exactly (single-threaded crawls depend on it:
  // their lone worker pops with PopPreferShard(0, now)).
  Frontier plain(PriorityPolicy::kAggressiveDiscovery);
  ShardedFrontier sharded(PriorityPolicy::kAggressiveDiscovery, 1);
  std::vector<FrontierEntry> entries = {
      Entry(1, "http://a/1", 0.9, 0, 3), Entry(2, "http://b/2", 0.9, 0, 1),
      Entry(3, "http://c/3", 0.2, 1, 0), Entry(4, "http://d/4", 0.5, 0, 1),
      Entry(5, "http://e/5", 0.9, 0, 1), Entry(6, "http://f/6", 0.1, 0, 9),
  };
  for (const FrontierEntry& e : entries) {
    plain.AddOrUpdate(e);
    sharded.AddOrUpdate(e);
  }
  // Re-rank one entry through both paths.
  FrontierEntry update = Entry(6, "http://f/6", 0.95, 0, 0);
  plain.AddOrUpdate(update);
  sharded.AddOrUpdate(update);

  ASSERT_EQ(plain.size(), sharded.size());
  while (!plain.empty()) {
    auto expected = plain.PopBest();
    auto got = sharded.PopPreferShard(0, crawl::kNoTimeGate, nullptr);
    ASSERT_TRUE(expected.has_value());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(expected->oid, got->oid);
  }
  EXPECT_TRUE(sharded.empty());
}

TEST(ShardedFrontierTest, PreservesPriorityOrderWithinAServerShard) {
  // Same server => same shard, so the politeness-aware lexicographic
  // order is preserved among a server's pages.
  ShardedFrontier frontier(PriorityPolicy::kAggressiveDiscovery, 8);
  frontier.AddOrUpdate(Entry(1, "http://srv/a", 0.3));
  frontier.AddOrUpdate(Entry(2, "http://srv/b", 0.9));
  frontier.AddOrUpdate(Entry(3, "http://srv/c", 0.6, /*numtries=*/1));
  frontier.AddOrUpdate(Entry(4, "http://srv/d", 0.6));

  int shard = frontier.ShardOf("http://srv/a");
  EXPECT_EQ(shard, frontier.ShardOf("http://srv/d"));

  std::vector<uint64_t> order;
  bool stolen = true;
  while (auto e = frontier.PopPreferShard(shard, &stolen)) {
    EXPECT_FALSE(stolen);  // everything lives in the preferred shard
    order.push_back(e->oid);
  }
  // numtries asc first, then relevance desc.
  EXPECT_EQ(order, (std::vector<uint64_t>{2, 4, 1, 3}));
}

TEST(ShardedFrontierTest, StealsFromOtherShardsWhenPreferredRunsDry) {
  ShardedFrontier frontier(PriorityPolicy::kAggressiveDiscovery, 4);
  frontier.AddOrUpdate(Entry(1, "http://server-x/page", 0.8));
  int home = frontier.ShardOf("http://server-x/page");

  bool stolen = false;
  auto e = frontier.PopPreferShard((home + 1) % frontier.num_shards(),
                                   &stolen);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->oid, 1u);
  EXPECT_TRUE(stolen);
  EXPECT_TRUE(frontier.empty());

  // Popping the home shard directly is not a steal.
  frontier.AddOrUpdate(Entry(2, "http://server-x/other", 0.5));
  stolen = true;
  e = frontier.PopPreferShard(home, &stolen);
  ASSERT_TRUE(e.has_value());
  EXPECT_FALSE(stolen);
}

TEST(ShardedFrontierTest, LookupEraseAndSnapshotSpanShards) {
  ShardedFrontier frontier(PriorityPolicy::kAggressiveDiscovery, 4);
  for (int i = 0; i < 20; ++i) {
    frontier.AddOrUpdate(Entry(100 + i,
                               "http://host" + std::to_string(i) + "/p",
                               0.1 * (i % 7)));
  }
  EXPECT_EQ(frontier.size(), 20u);
  EXPECT_TRUE(frontier.Contains(105));
  std::string seen_url;
  EXPECT_TRUE(frontier.UpdateIfPresent(
      105, [&](FrontierEntry* e) { seen_url = e->url; }));
  EXPECT_EQ(seen_url, "http://host5/p");

  frontier.Erase(105);
  EXPECT_FALSE(frontier.Contains(105));
  // An absent entry (e.g. popped by another worker) is not re-inserted.
  EXPECT_FALSE(frontier.UpdateIfPresent(105, [](FrontierEntry*) {}));

  std::vector<FrontierEntry> all = frontier.Snapshot();
  EXPECT_EQ(all.size(), 19u);
  std::unordered_set<uint64_t> oids;
  for (const FrontierEntry& e : all) oids.insert(e.oid);
  EXPECT_EQ(oids.size(), 19u);
  EXPECT_FALSE(oids.contains(105));

  // An update re-ranks: the raised entry is its shard's best.
  EXPECT_TRUE(frontier.UpdateIfPresent(
      106, [](FrontierEntry* e) { e->relevance = 0.99; }));
  std::optional<FrontierEntry> best =
      frontier.PopPreferShard(frontier.ShardOf("http://host6/p"));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->oid, 106u);
}

FocusOptions TinyOptions(uint64_t seed) {
  FocusOptions options;
  options.seed = seed;
  options.web.seed = seed;
  options.web.pages_per_topic = 60;
  options.web.background_pages = 800;
  options.web.background_servers = 60;
  options.examples_per_topic = 15;
  options.trainer.max_features_per_node = 200;
  return options;
}

// `hostile_web` turns on the fault model: transient, timeout and permanent
// failures, truncated transfers, flaky, slow and dead servers.
std::unique_ptr<FocusSystem> TrainedSystem(uint64_t seed,
                                           bool hostile_web = false) {
  Taxonomy tax = BuildSampleTaxonomy();
  FocusOptions options = TinyOptions(seed);
  if (hostile_web) {
    options.web.fetch_failure_prob = 0.05;
    options.web.faults.permanent_prob = 0.03;
    options.web.faults.timeout_prob = 0.03;
    options.web.faults.truncate_prob = 0.05;
    options.web.faults.flaky_server_fraction = 0.15;
    options.web.faults.slow_server_fraction = 0.1;
    options.web.faults.dead_server_fraction = 0.1;  // trips breakers
  }
  auto system = FocusSystem::Create(std::move(tax), options);
  EXPECT_TRUE(system.ok()) << system.status();
  auto sys = system.TakeValue();
  EXPECT_TRUE(sys->MarkGood("cycling").ok());
  EXPECT_TRUE(sys->Train().ok());
  return sys;
}

std::vector<text::TermVector> SamplePages(FocusSystem* system, int count) {
  Cid cycling = system->tax().FindByName("cycling").value();
  std::vector<text::TermVector> docs;
  VirtualClock clock;
  for (const std::string& url :
       system->web().KeywordSeeds(cycling, count)) {
    auto fetched = system->web().Fetch(url, &clock);
    EXPECT_TRUE(fetched.ok()) << fetched.status();
    docs.push_back(text::BuildTermVector(fetched.value().tokens));
  }
  return docs;
}

TEST(BatchRelevanceEvaluatorTest, MatchesInMemoryEvaluatorExactly) {
  auto system = TrainedSystem(11);
  std::vector<text::TermVector> docs = SamplePages(system.get(), 8);
  // An empty document exercises the fallback for pages that materialize
  // no DOCUMENT rows.
  docs.push_back(text::TermVector{});

  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 4096);
  sql::Catalog catalog(&pool);
  auto tables =
      classify::BuildClassifierTables(&catalog, system->tax(),
                                      system->model());
  ASSERT_TRUE(tables.ok()) << tables.status();
  classify::BulkProbeClassifier bulk(&system->classifier(),
                                     &tables.value());
  BatchRelevanceEvaluator batch_eval(&bulk, &system->classifier(),
                                     &catalog);
  ClassifierEvaluator ref_eval(&system->classifier());

  auto batched = batch_eval.JudgeBatch(docs);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_EQ(batched.value().size(), docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    auto expected = ref_eval.Judge(docs[i]);
    ASSERT_TRUE(expected.ok());
    EXPECT_NEAR(batched.value()[i].relevance, expected.value().relevance,
                1e-9)
        << "doc " << i;
    EXPECT_EQ(batched.value()[i].best_leaf, expected.value().best_leaf)
        << "doc " << i;
    EXPECT_EQ(batched.value()[i].best_leaf_is_good,
              expected.value().best_leaf_is_good)
        << "doc " << i;
  }

  // Size-1 batches take the in-memory shortcut; scores must still agree.
  auto single = batch_eval.JudgeBatch({docs[0]});
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single.value().size(), 1u);
  auto expected = ref_eval.Judge(docs[0]);
  ASSERT_TRUE(expected.ok());
  EXPECT_NEAR(single.value()[0].relevance, expected.value().relevance,
              1e-9);

  // Empty batches are a no-op.
  auto empty = batch_eval.JudgeBatch({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(BatchRelevanceEvaluatorTest, ReusableAcrossBatches) {
  // The scratch DOCUMENT table is per-call; consecutive batches must not
  // contaminate each other.
  auto system = TrainedSystem(12);
  std::vector<text::TermVector> docs = SamplePages(system.get(), 6);

  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 4096);
  sql::Catalog catalog(&pool);
  auto tables =
      classify::BuildClassifierTables(&catalog, system->tax(),
                                      system->model());
  ASSERT_TRUE(tables.ok());
  classify::BulkProbeClassifier bulk(&system->classifier(),
                                     &tables.value());
  BatchRelevanceEvaluator batch_eval(&bulk, &system->classifier(),
                                     &catalog);

  std::vector<text::TermVector> first(docs.begin(), docs.begin() + 3);
  std::vector<text::TermVector> second(docs.begin() + 3, docs.end());
  auto all = batch_eval.JudgeBatch(docs);
  auto a = batch_eval.JudgeBatch(first);
  auto b = batch_eval.JudgeBatch(second);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_NEAR(a.value()[i].relevance, all.value()[i].relevance, 1e-12);
  }
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_NEAR(b.value()[i].relevance, all.value()[i + 3].relevance,
                1e-12);
  }
}

// A crawl run to frontier exhaustion, with its owning system kept alive.
struct ExhaustedCrawl {
  std::unique_ptr<FocusSystem> system;
  std::unique_ptr<CrawlSession> session;
  std::unordered_map<uint64_t, double> relevance_by_oid;
};

ExhaustedCrawl CrawlToExhaustion(uint64_t seed, int num_threads) {
  ExhaustedCrawl run;
  run.system = TrainedSystem(seed);
  Cid cycling = run.system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 5000;  // > total page count: crawl runs to stagnation
  copts.num_threads = num_threads;
  copts.distill_every = 0;  // boosts mutate priorities, not the reachable set
  run.session =
      run.system->NewCrawl(run.system->web().KeywordSeeds(cycling, 8),
                           copts)
          .TakeValue();
  EXPECT_TRUE(run.session->crawler().Crawl().ok());
  EXPECT_TRUE(run.session->crawler().stats().stagnated);
  for (const auto& v : run.session->crawler().visits()) {
    EXPECT_FALSE(run.relevance_by_oid.contains(v.oid))
        << "double visit: " << v.url;
    run.relevance_by_oid[v.oid] = v.relevance;
  }
  return run;
}

TEST(CrawlPipelineTest, EightThreadsVisitSamePagesAsOneThread) {
  // With no fetch failures and soft focus, the visited set is the link
  // closure of the seeds — independent of worker count and pop order.
  const std::unordered_map<uint64_t, double> solo =
      CrawlToExhaustion(21, /*num_threads=*/1).relevance_by_oid;
  ExhaustedCrawl run = CrawlToExhaustion(21, /*num_threads=*/8);
  const std::unordered_map<uint64_t, double>& pooled = run.relevance_by_oid;

  ASSERT_GT(solo.size(), 100u);
  ASSERT_EQ(solo.size(), pooled.size());
  for (const auto& [oid, relevance] : solo) {
    auto it = pooled.find(oid);
    ASSERT_NE(it, pooled.end()) << "oid " << oid << " missing from pooled";
    // Classification is a pure function of page text, so scores must be
    // identical no matter which worker judged the page.
    EXPECT_DOUBLE_EQ(relevance, it->second) << "oid " << oid;
  }

  // Stage counters must reflect a real batched pipeline run.
  const crawl::StageMetricsSnapshot metrics =
      run.session->crawler().stage_metrics().Snapshot();
  EXPECT_GT(metrics.batches, 0u);
  EXPECT_EQ(metrics.batched_pages, pooled.size());
  EXPECT_GE(metrics.frontier_pops, pooled.size());
  EXPECT_GE(metrics.AvgBatchOccupancy(), 1.0);
  EXPECT_LE(metrics.AvgBatchOccupancy(), 32.0);
  // The formatted report is for the monitoring console; just check it
  // renders every counter group.
  std::string report = crawl::FormatStageMetrics(metrics);
  EXPECT_NE(report.find("classify"), std::string::npos);
  EXPECT_NE(report.find("occupancy"), std::string::npos);
  EXPECT_NE(report.find("steal_rate"), std::string::npos);
}

// Eight workers on a hostile web with breakers and backlink expansion on:
// lock-free fetches and budget reservations must still spend the budget
// exactly and reach the same closure as one worker.
CrawlerOptions HostileCrawlOptions(int num_threads, int max_fetches) {
  CrawlerOptions copts;
  copts.max_fetches = max_fetches;
  copts.num_threads = num_threads;
  copts.distill_every = 0;
  copts.expand_backlinks = true;
  copts.breaker.enabled = true;
  return copts;
}

TEST(CrawlPipelineTest, HostileEightThreadCrawlSpendsExactBudget) {
  auto system = TrainedSystem(41, /*hostile_web=*/true);
  Cid cycling = system->tax().FindByName("cycling").value();
  auto session =
      system
          ->NewCrawl(system->web().KeywordSeeds(cycling, 8),
                     HostileCrawlOptions(/*num_threads=*/8,
                                         /*max_fetches=*/150))
          .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  const crawl::CrawlStats& stats = session->crawler().stats();
  EXPECT_FALSE(stats.stagnated);
  ASSERT_EQ(session->crawler().visits().size(), 150u);
  std::unordered_set<std::string> urls;
  for (const crawl::Visit& v : session->crawler().visits()) {
    EXPECT_TRUE(urls.insert(v.url).second) << "double visit: " << v.url;
  }
  EXPECT_GT(stats.transient_failures + stats.dropped_urls, 0u);
  EXPECT_EQ(stats.attempts,
            150u + stats.transient_failures + stats.dropped_urls);
}

TEST(CrawlPipelineTest, HostileCrawlVisitsSamePagesAtOneAndEightThreads) {
  auto crawl_to_exhaustion = [](int num_threads) {
    auto system = TrainedSystem(42, /*hostile_web=*/true);
    Cid cycling = system->tax().FindByName("cycling").value();
    auto session =
        system
            ->NewCrawl(system->web().KeywordSeeds(cycling, 8),
                       HostileCrawlOptions(num_threads,
                                           /*max_fetches=*/5000))
            .TakeValue();
    EXPECT_TRUE(session->crawler().Crawl().ok());
    EXPECT_TRUE(session->crawler().stats().stagnated);
    EXPECT_GT(session->crawler().stats().dropped_urls, 0u);
    EXPECT_GT(session->crawler().stats().breaker_skips, 0u);
    std::unordered_map<uint64_t, double> visited;
    for (const crawl::Visit& v : session->crawler().visits()) {
      EXPECT_TRUE(visited.emplace(v.oid, v.relevance).second)
          << "double visit: " << v.url;
    }
    return visited;
  };
  const std::unordered_map<uint64_t, double> solo = crawl_to_exhaustion(1);
  const std::unordered_map<uint64_t, double> pooled = crawl_to_exhaustion(8);
  ASSERT_GT(solo.size(), 100u);
  ASSERT_EQ(solo.size(), pooled.size());
  for (const auto& [oid, relevance] : solo) {
    auto it = pooled.find(oid);
    ASSERT_NE(it, pooled.end()) << "oid " << oid << " missing from pooled";
    EXPECT_DOUBLE_EQ(relevance, it->second) << "oid " << oid;
  }
}

// FNV-1a over the fields of a row, one field at a time, so the digest does
// not depend on struct padding. Relevances are rounded to 1e-9 before
// hashing so a last-bit difference in libm cannot flip the pin.
class RowDigest {
 public:
  RowDigest& Add(int64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
    return *this;
  }
  RowDigest& Add(double v) {
    return Add(static_cast<int64_t>(std::llround(v * 1e9)));
  }
  RowDigest& Add(const std::string& s) {
    Add(static_cast<int64_t>(s.size()));
    for (char c : s) Byte(static_cast<uint8_t>(c));
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  uint64_t h_ = 14695981039346656037ull;
};

// Order-insensitive digest of a table: each row is hashed on its own, the
// row digests are sorted and the sorted list is hashed again.
uint64_t TableDigest(const sql::Table* table) {
  std::vector<uint64_t> rows;
  auto it = table->Scan();
  storage::Rid rid;
  sql::Tuple row;
  while (it.Next(&rid, &row)) {
    RowDigest d;
    for (int c = 0; c < row.size(); ++c) {
      const sql::Value& v = row.Get(c);
      switch (v.type()) {
        case sql::TypeId::kInt32:
        case sql::TypeId::kInt64:
          d.Add(v.AsIntAny());
          break;
        case sql::TypeId::kDouble:
          d.Add(v.AsDouble());
          break;
        case sql::TypeId::kString:
          d.Add(v.AsString());
          break;
      }
    }
    rows.push_back(d.value());
  }
  EXPECT_TRUE(it.status().ok()) << it.status();
  std::sort(rows.begin(), rows.end());
  RowDigest all;
  for (uint64_t r : rows) all.Add(static_cast<int64_t>(r));
  return all.value();
}

// Digest of a one-thread crawl: its (url, relevance, best_leaf) visit
// sequence plus its CRAWL and LINK row multisets.
uint64_t OneThreadCrawlDigest(crawl::PriorityPolicy policy) {
  auto system = TrainedSystem(53);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 400;
  copts.num_threads = 1;
  copts.policy = policy;
  copts.expansion = crawl::ExpansionRule::kSoftFocus;
  copts.expand_backlinks = true;
  copts.try_truncated_urls = true;
  copts.distill_every = 60;
  auto session =
      system->NewCrawl(system->web().KeywordSeeds(cycling, 6), copts)
          .TakeValue();
  EXPECT_TRUE(session->crawler().Crawl().ok());
  EXPECT_EQ(session->crawler().visits().size(), 400u);
  EXPECT_GT(session->crawler().stats().distill_rounds, 0u);
  RowDigest d;
  for (const crawl::Visit& v : session->crawler().visits()) {
    d.Add(v.url).Add(v.relevance).Add(static_cast<int64_t>(v.best_leaf));
  }
  d.Add(static_cast<int64_t>(TableDigest(session->db().crawl_table())));
  d.Add(static_cast<int64_t>(TableDigest(session->db().link_table())));
  return d.value();
}

TEST(CrawlPipelineTest, OneThreadVisitOrderIsPinned) {
  // A one-thread crawl is deterministic: which page is fetched next
  // depends on every estimate, visited flag and backlink count the crawler
  // keeps for known URLs. The 1≡8 identity tests compare two crawls that
  // share that bookkeeping, so they cannot see it drift from CRAWL; these
  // digests, taken from the crawler before it kept its own URL-state map,
  // can. Soft focus, backlink and host-root expansion and periodic
  // distillation are all on, so every path that reads or raises a stored
  // estimate runs.
  EXPECT_EQ(OneThreadCrawlDigest(crawl::PriorityPolicy::kAggressiveDiscovery),
            0xa8baab005ea8f000ull);
  EXPECT_EQ(OneThreadCrawlDigest(crawl::PriorityPolicy::kBacklinkCount),
            0x4e19a986252f7fceull);
}

TEST(CrawlPipelineTest, BatchSizeOneStillCompletes) {
  auto system = TrainedSystem(31);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 120;
  copts.num_threads = 4;
  copts.classify_batch_size = 1;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 6),
                                  copts)
                     .TakeValue();
  ASSERT_TRUE(session->crawler().Crawl().ok());
  EXPECT_EQ(session->crawler().visits().size(), 120u);
}

TEST(CrawlPipelineTest, ExplicitShardCountIsRespected) {
  auto system = TrainedSystem(32);
  Cid cycling = system->tax().FindByName("cycling").value();
  CrawlerOptions copts;
  copts.max_fetches = 80;
  copts.num_threads = 4;
  copts.frontier_shards = 3;
  auto session = system->NewCrawl(system->web().KeywordSeeds(cycling, 6),
                                  copts)
                     .TakeValue();
  EXPECT_EQ(session->crawler().frontier()->num_shards(), 3);
  ASSERT_TRUE(session->crawler().Crawl().ok());
  EXPECT_EQ(session->crawler().visits().size(), 80u);
}

}  // namespace
}  // namespace focus::core
