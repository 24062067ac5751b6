// Webgraph extras: universal portals, determinism of lazy text, config
// validation and fetch bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "taxonomy/taxonomy.h"
#include "util/clock.h"
#include "util/status.h"
#include "webgraph/simulated_web.h"

namespace focus::webgraph {
namespace {

using taxonomy::Cid;
using taxonomy::Taxonomy;

Taxonomy TwoTopicTax() {
  Taxonomy tax;
  Cid rec = tax.AddTopic(taxonomy::kRootCid, "recreation").value();
  tax.AddTopic(rec, "cycling").value();
  tax.AddTopic(rec, "gardening").value();
  return tax;
}

TEST(WebPortalsTest, PopularPagesAttractExtraInlinks) {
  Taxonomy tax = TwoTopicTax();
  WebConfig config;
  config.seed = 3;
  config.pages_per_topic = 150;
  config.background_pages = 3000;
  config.background_servers = 60;
  config.popular_background_pages = 5;
  config.popular_background_share = 0.3;
  auto web = SimulatedWeb::Generate(tax, config, {}).TakeValue();

  // Find the first background page index.
  uint32_t background_start = 0;
  for (uint32_t i = 0; i < web.num_pages(); ++i) {
    if (web.page(i).topic == kBackgroundTopic) {
      background_start = i;
      break;
    }
  }
  std::map<uint32_t, int> indegree;
  for (uint32_t i = 0; i < web.num_pages(); ++i) {
    for (uint32_t t : web.page(i).outlinks) ++indegree[t];
  }
  // Average in-degree of the 5 portals vs other background pages.
  double portal_in = 0, other_in = 0;
  int others = 0;
  for (uint32_t i = background_start; i < web.num_pages(); ++i) {
    if (i < background_start + 5) {
      portal_in += indegree[i];
    } else {
      other_in += indegree[i];
      ++others;
    }
  }
  portal_in /= 5;
  other_in /= others;
  EXPECT_GT(portal_in, 20 * other_in);
}

TEST(WebPortalsTest, ZeroPortalsDisablesSkew) {
  Taxonomy tax = TwoTopicTax();
  WebConfig config;
  config.seed = 3;
  config.pages_per_topic = 100;
  config.background_pages = 2000;
  config.background_servers = 50;
  config.popular_background_pages = 0;
  auto web = SimulatedWeb::Generate(tax, config, {}).TakeValue();
  std::map<uint32_t, int> indegree;
  for (uint32_t i = 0; i < web.num_pages(); ++i) {
    for (uint32_t t : web.page(i).outlinks) ++indegree[t];
  }
  int max_bg_in = 0;
  for (uint32_t i = 0; i < web.num_pages(); ++i) {
    if (web.page(i).topic == kBackgroundTopic) {
      max_bg_in = std::max(max_bg_in, indegree[i]);
    }
  }
  EXPECT_LT(max_bg_in, 30);  // no background page dominates
}

TEST(WebConfigTest, TooSmallWebRejected) {
  Taxonomy tax = TwoTopicTax();
  WebConfig config;
  config.pages_per_topic = 1;
  EXPECT_FALSE(SimulatedWeb::Generate(tax, config, {}).ok());
  config.pages_per_topic = 100;
  config.background_pages = 0;
  EXPECT_FALSE(SimulatedWeb::Generate(tax, config, {}).ok());
}

TEST(WebFetchTest, FetchCountTracksSuccesses) {
  Taxonomy tax = TwoTopicTax();
  WebConfig config;
  config.seed = 9;
  config.pages_per_topic = 50;
  config.background_pages = 500;
  config.background_servers = 20;
  config.fetch_failure_prob = 0.0;
  auto web = SimulatedWeb::Generate(tax, config, {}).TakeValue();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(web.Fetch(web.page(i).url).ok());
  }
  EXPECT_EQ(web.fetch_count(), 10u);
  EXPECT_FALSE(web.Fetch("http://not.a.page/").ok());
  EXPECT_EQ(web.fetch_count(), 10u);
}

TEST(WebFetchTest, ConcurrentExplicitAttemptFetchesMatchSerial) {
  // Fetch with an explicit attempt reads only immutable state and the
  // caller's clock, so disjoint URLs fetched from several threads give
  // exactly the serial outcomes.
  Taxonomy tax = TwoTopicTax();
  WebConfig config;
  config.seed = 17;
  config.pages_per_topic = 100;
  config.background_pages = 600;
  config.background_servers = 20;
  config.fetch_failure_prob = 0.1;
  config.faults.truncate_prob = 0.1;
  config.faults.timeout_prob = 0.05;
  config.faults.slow_server_fraction = 0.2;
  auto web = SimulatedWeb::Generate(tax, config, {}).TakeValue();

  struct Outcome {
    StatusCode code = StatusCode::kOk;
    int64_t latency_us = 0;
    std::vector<std::string> tokens;
    std::vector<std::string> outlinks;
    bool truncated = false;
    bool operator==(const Outcome&) const = default;
  };
  const uint32_t n = static_cast<uint32_t>(web.num_pages());
  auto fetch = [&web](uint32_t i) {
    VirtualClock clock;
    auto r = web.Fetch(web.page(i).url, &clock,
                       /*attempt=*/1 + static_cast<int32_t>(i % 3));
    Outcome o;
    o.code = r.status().code();
    o.latency_us = clock.NowMicros();
    if (r.ok()) {
      o.tokens = r.value().tokens;
      o.outlinks = r.value().outlink_urls;
      o.truncated = r.value().truncated;
    }
    return o;
  };

  std::vector<Outcome> expected(n);
  uint64_t successes = 0;
  for (uint32_t i = 0; i < n; ++i) {
    expected[i] = fetch(i);
    if (expected[i].code == StatusCode::kOk) ++successes;
  }
  ASSERT_GT(successes, 0u);
  ASSERT_LT(successes, n);  // the fault model produced some failures
  const uint64_t serial_count = web.fetch_count();
  EXPECT_EQ(serial_count, successes);

  constexpr uint32_t kThreads = 4;
  std::vector<Outcome> got(n);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint32_t i = t; i < n; i += kThreads) got[i] = fetch(i);
    });
  }
  for (std::thread& th : threads) th.join();
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], expected[i]) << "page " << i;
  }
  EXPECT_EQ(web.fetch_count(), serial_count + successes);
}

TEST(WebBacklinksTest, ConcurrentFirstCallsMatchSerial) {
  // The reverse index behind Backlinks is built on first use; threads that
  // race to that first use (DistCrawl shards crawl concurrently over one
  // web) must all see the complete index.
  Taxonomy tax = TwoTopicTax();
  WebConfig config;
  config.seed = 23;
  config.pages_per_topic = 100;
  config.background_pages = 20000;  // a build slow enough to overlap
  config.background_servers = 200;
  auto serial_web = SimulatedWeb::Generate(tax, config, {}).TakeValue();
  auto fresh_web = SimulatedWeb::Generate(tax, config, {}).TakeValue();

  const uint32_t n = static_cast<uint32_t>(serial_web.num_pages());
  using Citers = std::vector<std::string>;
  std::vector<Citers> expected(n);
  size_t cited = 0;
  for (uint32_t i = 0; i < n; ++i) {
    auto r = serial_web.Backlinks(serial_web.page(i).url, 8);
    ASSERT_TRUE(r.ok()) << r.status();
    expected[i] = r.TakeValue();
    if (!expected[i].empty()) ++cited;
  }
  ASSERT_GT(cited, n / 2);

  constexpr uint32_t kThreads = 4;
  std::vector<Citers> got(n);
  std::vector<std::thread> threads;
  // Released together, so the threads race to the index's first build.
  std::latch start(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (uint32_t i = t; i < n; i += kThreads) {
        auto r = fresh_web.Backlinks(fresh_web.page(i).url, 8);
        if (r.ok()) got[i] = r.TakeValue();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], expected[i]) << "page " << i;
  }
}

TEST(WebTextTest, PurityJitterVariesDocumentsButStaysDeterministic) {
  Taxonomy tax = TwoTopicTax();
  WebConfig config;
  config.seed = 21;
  config.pages_per_topic = 80;
  config.background_pages = 400;
  config.background_servers = 20;
  config.topic_fraction_jitter = 0.2;
  config.fetch_failure_prob = 0.0;
  auto web = SimulatedWeb::Generate(tax, config, {}).TakeValue();
  Cid cycling = tax.FindByName("cycling").value();
  auto members = web.PagesOfTopic(cycling);
  // Topic-token fraction should vary across pages.
  std::vector<double> fractions;
  for (int i = 0; i < 30; ++i) {
    auto fetch = web.Fetch(web.page(members[i]).url);
    ASSERT_TRUE(fetch.ok());
    int topical = 0;
    for (const auto& tok : fetch.value().tokens) {
      topical += tok.rfind("w", 0) == 0;  // topic tokens start with 'w'
    }
    fractions.push_back(static_cast<double>(topical) /
                        fetch.value().tokens.size());
  }
  auto [lo, hi] = std::minmax_element(fractions.begin(), fractions.end());
  EXPECT_GT(*hi - *lo, 0.15);
  // But refetching gives identical text.
  auto f1 = web.Fetch(web.page(members[0]).url);
  auto f2 = web.Fetch(web.page(members[0]).url);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f1.value().tokens, f2.value().tokens);
}

TEST(WebSeedsTest, SeedsAreRankedByKeywordDensity) {
  Taxonomy tax = TwoTopicTax();
  WebConfig config;
  config.seed = 33;
  config.pages_per_topic = 120;
  config.background_pages = 500;
  config.background_servers = 20;
  config.fetch_failure_prob = 0.0;
  auto web = SimulatedWeb::Generate(tax, config, {}).TakeValue();
  Cid cycling = tax.FindByName("cycling").value();
  auto keywords = web.TopicKeywords(cycling, 3);
  auto count_hits = [&](const std::string& url) {
    auto fetch = web.Fetch(url);
    EXPECT_TRUE(fetch.ok());
    int hits = 0;
    for (const auto& tok : fetch.value().tokens) {
      for (const auto& kw : keywords) hits += (tok == kw);
    }
    return hits;
  };
  auto top = web.KeywordSeeds(cycling, 3, 0);
  auto bottom = web.KeywordSeeds(cycling, 3, 110);
  int top_hits = 0, bottom_hits = 0;
  for (const auto& url : top) top_hits += count_hits(url);
  for (const auto& url : bottom) bottom_hits += count_hits(url);
  EXPECT_GT(top_hits, bottom_hits);
}

}  // namespace
}  // namespace focus::webgraph
