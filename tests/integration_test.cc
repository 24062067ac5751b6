// End-to-end tests of the full Focus pipeline: train -> crawl -> distill,
// asserting the paper's qualitative claims at reduced scale.
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/focus.h"
#include "core/sample_taxonomy.h"
#include "crawl/metrics.h"
#include "crawl/monitor.h"
#include "util/hash.h"

namespace focus::core {
namespace {

using crawl::CrawlerOptions;
using crawl::ExpansionRule;
using crawl::PriorityPolicy;
using taxonomy::Cid;
using taxonomy::Taxonomy;

FocusOptions SmallOptions(uint64_t seed = 4) {
  FocusOptions options;
  options.seed = seed;
  options.web.seed = seed;
  options.web.pages_per_topic = 600;
  options.web.background_pages = 60000;
  options.web.background_servers = 1500;
  options.examples_per_topic = 20;
  options.trainer.max_features_per_node = 300;
  return options;
}

std::unique_ptr<FocusSystem> MakeSystem(uint64_t seed = 4) {
  Taxonomy tax = BuildSampleTaxonomy();
  Cid cycling = tax.FindByName("cycling").value();
  Cid first_aid = tax.FindByName("first_aid").value();
  auto system = FocusSystem::Create(
      std::move(tax), SmallOptions(seed),
      {webgraph::TopicAffinity{cycling, first_aid, 0.08}});
  EXPECT_TRUE(system.ok()) << system.status();
  return system.TakeValue();
}

TEST(FocusSystemTest, TrainBeforeCrawlEnforced) {
  auto system = MakeSystem();
  ASSERT_TRUE(system->MarkGood("cycling").ok());
  CrawlerOptions copts;
  auto session = system->NewCrawl({"http://x/"}, copts);
  EXPECT_EQ(session.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(system->MarkGood("no_such_topic").ok());
}

TEST(FocusSystemTest, SoftFocusBeatsUnfocusedHarvest) {
  // A larger community for this test so the focused crawler cannot simply
  // exhaust it within the budget (the paper's topics were inexhaustible at
  // its crawl scale).
  Taxonomy big_tax = BuildSampleTaxonomy();
  FocusOptions big = SmallOptions(4);
  big.web.pages_per_topic = 1200;
  auto system_or = FocusSystem::Create(std::move(big_tax), big, {});
  ASSERT_TRUE(system_or.ok());
  auto system = system_or.TakeValue();
  ASSERT_TRUE(system->MarkGood("cycling").ok());
  ASSERT_TRUE(system->Train().ok());
  Cid cycling = system->tax().FindByName("cycling").value();
  auto seeds = system->web().KeywordSeeds(cycling, 15);

  auto avg_rel = [](const std::vector<crawl::Visit>& visits, size_t skip) {
    double sum = 0;
    size_t n = 0;
    for (size_t i = skip; i < visits.size(); ++i) {
      sum += visits[i].relevance;
      ++n;
    }
    return n == 0 ? 0.0 : sum / n;
  };
  // Focus must hold for the lone-worker crawl and the concurrent one alike.
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " crawl threads");
    CrawlerOptions focused;
    focused.num_threads = threads;
    focused.max_fetches = 1200;
    focused.expansion = ExpansionRule::kSoftFocus;
    focused.distill_every = 300;  // the full system: distiller runs too
    auto focused_session = system->NewCrawl(seeds, focused);
    ASSERT_TRUE(focused_session.ok());
    ASSERT_TRUE(focused_session.value()->crawler().Crawl().ok());

    CrawlerOptions unfocused;
    unfocused.num_threads = threads;
    unfocused.max_fetches = 2400;  // BFS needs more runway to get fully lost
    unfocused.expansion = ExpansionRule::kUnfocused;
    unfocused.policy = PriorityPolicy::kBreadthFirst;
    auto unfocused_session = system->NewCrawl(seeds, unfocused);
    ASSERT_TRUE(unfocused_session.ok());
    ASSERT_TRUE(unfocused_session.value()->crawler().Crawl().ok());

    // Compare sustained harvest well past the seed neighbourhood (Figure
    // 5: the standard crawler is "completely lost within the next hundred
    // page fetches" while the focused crawler "keeps up a healthy pace").
    double focused_harvest =
        avg_rel(focused_session.value()->crawler().visits(), 600);
    double unfocused_harvest =
        avg_rel(unfocused_session.value()->crawler().visits(), 1200);
    EXPECT_GT(focused_harvest, 0.2);
    EXPECT_LT(unfocused_harvest, 0.12);
    EXPECT_GT(focused_harvest, 2 * unfocused_harvest);
  }
}

TEST(FocusSystemTest, FocusedCrawlStaysOnTrueTopic) {
  auto system = MakeSystem(9);
  ASSERT_TRUE(system->MarkGood("cycling").ok());
  ASSERT_TRUE(system->Train().ok());
  Cid cycling = system->tax().FindByName("cycling").value();
  auto seeds = system->web().KeywordSeeds(cycling, 15);
  CrawlerOptions copts;
  copts.max_fetches = 500;
  auto session = system->NewCrawl(seeds, copts);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->crawler().Crawl().ok());
  // Ground truth check (the crawler never sees it): most visited pages
  // belong to the cycling community.
  int on_topic = 0, total = 0;
  for (const auto& visit : session.value()->crawler().visits()) {
    auto idx = system->web().PageIndexByUrl(visit.url);
    ASSERT_TRUE(idx.ok());
    on_topic += (system->web().page(idx.value()).topic == cycling);
    ++total;
  }
  EXPECT_GT(total, 400);
  EXPECT_GT(static_cast<double>(on_topic) / total, 0.25);
}

TEST(FocusSystemTest, HardFocusCanStagnate) {
  // §2.1.2: hard-focus crawls may stop because the frontier is judged
  // unsuitable, while soft focus on the same inputs keeps crawling.
  auto system = MakeSystem(12);
  ASSERT_TRUE(system->MarkGood("mutual_funds").ok());
  ASSERT_TRUE(system->Train().ok());
  Cid funds = system->tax().FindByName("mutual_funds").value();
  auto seeds = system->web().KeywordSeeds(funds, 5);

  CrawlerOptions hard;
  hard.max_fetches = 8000;  // far beyond what stagnation will allow
  hard.expansion = ExpansionRule::kHardFocus;
  auto hard_session = system->NewCrawl(seeds, hard);
  ASSERT_TRUE(hard_session.ok());
  ASSERT_TRUE(hard_session.value()->crawler().Crawl().ok());

  CrawlerOptions soft = hard;
  soft.expansion = ExpansionRule::kSoftFocus;
  auto soft_session = system->NewCrawl(seeds, soft);
  ASSERT_TRUE(soft_session.ok());
  ASSERT_TRUE(soft_session.value()->crawler().Crawl().ok());

  // Hard focus visits at most the community it accepts; soft focus keeps
  // going (it can wade through mildly relevant pages).
  EXPECT_GE(soft_session.value()->crawler().visits().size(),
            hard_session.value()->crawler().visits().size());
  EXPECT_TRUE(hard_session.value()->crawler().stats().stagnated);
}

TEST(FocusSystemTest, CoverageFromDisjointSeeds) {
  // §3.5: a test crawl from a disjoint start set re-discovers most of the
  // reference crawl's relevant URLs and servers.
  auto system = MakeSystem(21);
  ASSERT_TRUE(system->MarkGood("cycling").ok());
  ASSERT_TRUE(system->Train().ok());
  Cid cycling = system->tax().FindByName("cycling").value();
  auto s1 = system->web().KeywordSeeds(cycling, 10, 0);
  auto s2 = system->web().KeywordSeeds(cycling, 10, 10);

  CrawlerOptions copts;
  copts.max_fetches = 1200;
  copts.distill_every = 300;  // hub boosts pull crawls into the same core
  auto ref = system->NewCrawl(s1, copts);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(ref.value()->crawler().Crawl().ok());
  auto test = system->NewCrawl(s2, copts);
  ASSERT_TRUE(test.ok());
  ASSERT_TRUE(test.value()->crawler().Crawl().ok());

  auto sets = crawl::RelevantReferenceSets(ref.value()->crawler().visits());
  ASSERT_GT(sets.oids.size(), 50u);
  auto coverage = crawl::Coverage(test.value()->crawler().visits(),
                                  sets.oids, sets.servers);
  EXPECT_GT(coverage.url_fraction.back(), 0.4);
  EXPECT_GT(coverage.server_fraction.back(), 0.7);
}

TEST(FocusSystemTest, DistillationSurfacesTrueHubs) {
  auto system = MakeSystem(33);
  ASSERT_TRUE(system->MarkGood("cycling").ok());
  ASSERT_TRUE(system->Train().ok());
  Cid cycling = system->tax().FindByName("cycling").value();
  auto seeds = system->web().KeywordSeeds(cycling, 15);
  CrawlerOptions copts;
  copts.max_fetches = 600;
  auto session = system->NewCrawl(seeds, copts);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->crawler().Crawl().ok());

  auto result =
      session.value()->Distill({.iterations = 15, .rho = 0.2}, 15);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result.value().hubs.size(), 15u);
  // Top hubs must be on-topic pages, and most should be ground-truth hubs.
  int true_hubs = 0, on_topic = 0;
  for (const auto& page : result.value().hubs) {
    auto idx = system->web().PageIndexByUrl(page.url);
    ASSERT_TRUE(idx.ok()) << page.url;
    on_topic += (system->web().page(idx.value()).topic == cycling);
    true_hubs += system->web().page(idx.value()).is_hub;
  }
  EXPECT_GE(on_topic, 13);
  EXPECT_GE(true_hubs, 8);
  // Authorities are on-topic too.
  int auth_on_topic = 0;
  for (const auto& page : result.value().authorities) {
    auto idx = system->web().PageIndexByUrl(page.url);
    if (idx.ok() &&
        system->web().page(idx.value()).topic == cycling) {
      ++auth_on_topic;
    }
  }
  EXPECT_GE(auth_on_topic, 12);
}

TEST(FocusSystemTest, PeriodicDistillationBoostRuns) {
  auto system = MakeSystem(44);
  ASSERT_TRUE(system->MarkGood("cycling").ok());
  ASSERT_TRUE(system->Train().ok());
  Cid cycling = system->tax().FindByName("cycling").value();
  auto seeds = system->web().KeywordSeeds(cycling, 10);
  CrawlerOptions copts;
  copts.max_fetches = 300;
  copts.distill_every = 100;
  copts.distill_iterations = 3;
  auto session = system->NewCrawl(seeds, copts);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->crawler().Crawl().ok());
  EXPECT_GE(session.value()->crawler().stats().distill_rounds, 2u);
  EXPECT_EQ(session.value()->crawler().visits().size(), 300u);
}

TEST(FocusSystemTest, MultiThreadedCrawlIsSafeAndComplete) {
  auto system = MakeSystem(55);
  ASSERT_TRUE(system->MarkGood("cycling").ok());
  ASSERT_TRUE(system->Train().ok());
  Cid cycling = system->tax().FindByName("cycling").value();
  auto seeds = system->web().KeywordSeeds(cycling, 10);
  CrawlerOptions copts;
  copts.max_fetches = 300;
  copts.num_threads = 8;
  auto session = system->NewCrawl(seeds, copts);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->crawler().Crawl().ok());
  const auto& visits = session.value()->crawler().visits();
  EXPECT_EQ(visits.size(), 300u);
  // No URL visited twice.
  std::unordered_set<uint64_t> oids;
  for (const auto& v : visits) {
    EXPECT_TRUE(oids.insert(v.oid).second) << v.url;
  }
}

TEST(FocusSystemTest, MonitoringQueriesRunOnLiveCrawl) {
  auto system = MakeSystem(66);
  ASSERT_TRUE(system->MarkGood("cycling").ok());
  ASSERT_TRUE(system->Train().ok());
  Cid cycling = system->tax().FindByName("cycling").value();
  auto seeds = system->web().KeywordSeeds(cycling, 10);
  CrawlerOptions copts;
  copts.max_fetches = 250;
  auto session = system->NewCrawl(seeds, copts);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->crawler().Crawl().ok());

  auto census = crawl::ClassCensus(session.value()->db(), system->tax());
  ASSERT_TRUE(census.ok());
  EXPECT_FALSE(census.value().empty());
  int64_t total = 0;
  for (const auto& row : census.value()) total += row.count;
  EXPECT_EQ(total, 250);

  auto by_minute = crawl::HarvestByMinute(session.value()->db());
  ASSERT_TRUE(by_minute.ok());
  EXPECT_FALSE(by_minute.value().empty());
  int64_t pages = 0;
  for (const auto& m : by_minute.value()) pages += m.pages;
  EXPECT_EQ(pages, 250);
}

}  // namespace
}  // namespace focus::core
