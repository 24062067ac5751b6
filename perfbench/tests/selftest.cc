// Self-tests of the benchmark's own code: the metric catalog, the
// percentile rule, and the tracing wrappers (they must forward exactly —
// wrapped and unwrapped runs agree — and count what the program's own
// counters count).
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <cstring>
#include <regex>
#include <set>

#include "core/sample_taxonomy.h"
#include "crawl/crawl_db.h"
#include "distill/join_distiller.h"
#include "src/report.h"
#include "src/setup.h"
#include "src/traced.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"

namespace perfbench {
namespace {

TEST(MetricCatalog, NamesAreWellFormedAndUnique) {
  // [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 long; units
  // at most 16 of [A-Za-z0-9_/%.-].
  const std::regex name_pattern("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_pattern("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  int end_to_end = 0;
  for (const MetricSpec& m : MetricCatalog()) {
    EXPECT_TRUE(std::regex_match(m.name, name_pattern)) << m.name;
    EXPECT_TRUE(std::regex_match(m.unit, unit_pattern)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    if (m.kind == MetricKind::kEndToEnd) ++end_to_end;
  }
  EXPECT_GE(end_to_end, 1);
  ASSERT_NE(FindMetric("setup_s"), nullptr);
  EXPECT_EQ(FindMetric("setup_s")->kind, MetricKind::kEndToEnd);
  EXPECT_EQ(FindMetric("setup_s")->unit, "s");
}

TEST(Report, JsonCarriesEveryMetricOfItsKind) {
  Report r;
  for (const MetricSpec& m : MetricCatalog()) {
    if (m.kind == MetricKind::kEndToEnd) r.Set(m.name, 1.5);
  }
  std::string e2e = r.ToJson(MetricKind::kEndToEnd, true, 3, 0);
  std::string layers = r.ToJson(MetricKind::kPerLayer, true, 3, 0);
  for (const MetricSpec& m : MetricCatalog()) {
    std::string key = "\"" + m.name + "\": {";
    bool in_e2e = e2e.find(key) != std::string::npos;
    bool in_layers = layers.find(key) != std::string::npos;
    EXPECT_EQ(in_e2e, m.kind == MetricKind::kEndToEnd) << m.name;
    EXPECT_EQ(in_layers, m.kind == MetricKind::kPerLayer) << m.name;
  }
  // A missing end-to-end metric is an error, not a silent zero.
  Report partial;
  partial.Set("setup_s", 1);
  EXPECT_EQ(partial.ToJson(MetricKind::kEndToEnd, true, 1, 0), "");
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(v, 0.50).value, 50);
  EXPECT_EQ(Percentile(v, 0.95).value, 95);
  EXPECT_EQ(Percentile(v, 1.00).value, 100);
  EXPECT_EQ(Percentile({7.0}, 0.95).value, 7.0);
  EXPECT_EQ(Percentile({}, 0.5).samples, 0u);
  EXPECT_FALSE(Percentile({}, 0.5).tail_ok);
}

TEST(Percentile, TenSamplesBeyondRule) {
  std::vector<double> v(200);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  PercentileResult p95 = Percentile(v, 0.95);
  EXPECT_EQ(p95.samples, 200u);
  EXPECT_EQ(p95.beyond, 10u);
  EXPECT_TRUE(p95.tail_ok);
  v.pop_back();  // 199 samples: only 9 beyond p95
  EXPECT_EQ(Percentile(v, 0.95).beyond, 9u);
  EXPECT_FALSE(Percentile(v, 0.95).tail_ok);
  // p50 of 20 samples has 10 beyond it.
  EXPECT_TRUE(Percentile(std::vector<double>(20, 1.0), 0.5).tail_ok);
  EXPECT_FALSE(Percentile(std::vector<double>(19, 1.0), 0.5).tail_ok);
}

TEST(TracedDisk, ForwardsAndCountsLikeTheDeviceAndPool) {
  storage::MemDiskManager mem;
  TracedDisk traced(&mem);
  // Few frames so pages are evicted, written back and read again.
  focus::storage::BufferPool pool(&traced, 8);
  std::vector<storage::PageId> ids;
  for (int i = 0; i < 40; ++i) {
    storage::PageId id;
    auto page = pool.NewPage(&id);
    ASSERT_TRUE(page.ok());
    std::memset(page.value()->data, i + 1, 64);
    pool.UnpinPage(id, /*dirty=*/true);
    ids.push_back(id);
  }
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < ids.size(); ++i) {
      focus::storage::PageGuard guard(&pool, ids[i]);
      ASSERT_TRUE(guard.ok());
      EXPECT_EQ(guard.page()->data[0], static_cast<char>(i + 1));
    }
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(traced.Sync().ok());
  std::vector<char> batch(3 * storage::kPageSize);
  ASSERT_TRUE(traced.ReadPages(ids[0], 3, batch.data()).ok());
  EXPECT_EQ(batch[2 * storage::kPageSize], 3);

  DiskCounters c = traced.counters();
  const storage::DiskManager::Stats& inner = mem.stats();
  EXPECT_EQ(c.reads, inner.reads);
  EXPECT_EQ(c.batch_reads, inner.batch_reads);
  EXPECT_EQ(c.pages_written, inner.writes);
  EXPECT_EQ(c.syncs, 1u);
  EXPECT_EQ(traced.NumPages(), mem.NumPages());
  // Without readahead every device read below the pool is a pool miss and
  // every device write a dirty write-back.
  focus::storage::BufferPool::Stats s = pool.stats();
  EXPECT_GT(s.misses, 0u);
  EXPECT_EQ(c.reads - 3, s.misses);
  EXPECT_EQ(c.pages_written, s.dirty_writebacks);
}

TEST(TracedDisk, LogDeviceCountsMatchWalStats) {
  storage::MemDiskManager data_mem, log_mem;
  TracedDisk data(&data_mem), log(&log_mem);
  int observed_syncs = 0;
  log.set_sync_observer([&observed_syncs] { ++observed_syncs; });
  auto wal = storage::WalDiskManager::Open(&data, &log);
  ASSERT_TRUE(wal.ok());
  focus::storage::BufferPool pool(wal.value().get(), 64);
  focus::sql::Catalog catalog(&pool);
  auto db = crawl::CrawlDb::Create(&catalog);
  ASSERT_TRUE(db.ok());
  db.value().BindWal(wal.value().get());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        db.value().AddUrl("http://s" + std::to_string(i) + ".example/", 0.5, 0)
            .ok());
    ASSERT_TRUE(db.value().Commit().ok());
  }
  ASSERT_TRUE(db.value().Checkpoint().ok());
  storage::WalStats w = wal.value()->wal_stats();
  DiskCounters c = log.counters();
  EXPECT_EQ(c.syncs, w.syncs);
  EXPECT_EQ(observed_syncs, static_cast<int>(w.syncs));
  EXPECT_EQ(c.pages_written, log_mem.stats().writes);
  EXPECT_GE(c.pages_written * storage::kPageSize, w.log_bytes);
  EXPECT_EQ(data.counters().pages_written, data_mem.stats().writes);
}

// A small web (tab_throughput --tiny sized) shared by the crawl tests.
core::FocusSystem* TinySystem() {
  static std::unique_ptr<core::FocusSystem> system = [] {
    core::FocusOptions options;
    options.seed = 11;
    options.web.pages_per_topic = 150;
    options.web.background_pages = 3000;
    options.web.background_servers = 120;
    options.web.fetch_failure_prob = 0;
    auto s = core::FocusSystem::Create(core::BuildSampleTaxonomy(), options);
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE(s.value()->MarkGood("cycling").ok());
    EXPECT_TRUE(s.value()->Train().ok());
    return s.TakeValue();
  }();
  return system.get();
}

std::vector<std::string> TinySeeds() {
  core::FocusSystem* system = TinySystem();
  auto cycling = system->tax().FindByName("cycling");
  return system->web().KeywordSeeds(cycling.value(), 6);
}

// Distills a finished session's crawl graph; returns the hub scores.
std::unordered_map<uint64_t, double> Distill(CrawlSession* s) {
  EXPECT_TRUE(s->db->RefreshEdgeWeights().ok());
  focus::distill::DistillTables tables;
  tables.link = s->db->link_table();
  tables.crawl = s->db->crawl_table();
  EXPECT_TRUE(
      focus::distill::CreateHubsAuthTables(s->catalog.get(), &tables).ok());
  focus::distill::JoinDistiller distiller(tables);
  EXPECT_TRUE(distiller.Run({.iterations = 5, .rho = 0.1}).ok());
  auto scores = focus::distill::CollectScores(tables.hubs);
  EXPECT_TRUE(scores.ok());
  return scores.value();
}

TEST(TracedWrappers, WrappedCrawlIsIdenticalAndCountsAgree) {
  core::FocusSystem* system = TinySystem();
  crawl::CrawlerOptions options;
  options.max_fetches = 400;  // one thread: a deterministic visit order
  auto plain = NewCrawlSession(system, TinySeeds(), options, false);
  auto traced = NewCrawlSession(system, TinySeeds(), options, true);
  ASSERT_TRUE(plain.ok() && traced.ok());
  ASSERT_TRUE(plain.value()->crawler->Crawl().ok());
  ASSERT_TRUE(traced.value()->crawler->Crawl().ok());

  const auto& a = plain.value()->crawler->visits();
  const auto& b = traced.value()->crawler->visits();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 400u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].url, b[i].url) << i;
    EXPECT_EQ(a[i].relevance, b[i].relevance) << i;
    EXPECT_EQ(a[i].best_leaf, b[i].best_leaf) << i;
    EXPECT_EQ(a[i].virtual_time_us, b[i].virtual_time_us) << i;
  }
  EXPECT_TRUE(UrlsUnique(b));
  EXPECT_TRUE(RejudgeMatches(system, b, 50));

  CallStats calls = traced.value()->traced_evaluator->stats();
  EXPECT_EQ(calls.docs, b.size());
  EXPECT_EQ(calls.call_us.size(), calls.calls);
  DiskCounters disk = traced.value()->traced_disk->counters();
  focus::storage::BufferPool::Stats pool = traced.value()->pool->stats();
  EXPECT_EQ(disk.reads, pool.misses);
  EXPECT_EQ(disk.pages_written, pool.dirty_writebacks);

  EXPECT_EQ(Distill(plain.value().get()), Distill(traced.value().get()));
}

}  // namespace
}  // namespace perfbench
