// The focused crawler (§2, §3.2): fetch → classify → expand, driven by the
// classifier's relevance judgments and (optionally) periodic distillation.
#ifndef FOCUS_CRAWL_CRAWLER_H_
#define FOCUS_CRAWL_CRAWLER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crawl/circuit_breaker.h"
#include "crawl/crawl_db.h"
#include "crawl/frontier.h"
#include "crawl/relevance_evaluator.h"
#include "crawl/retry_policy.h"
#include "distill/distiller.h"
#include "sql/catalog.h"
#include "text/document.h"
#include "util/clock.h"
#include "webgraph/simulated_web.h"

namespace focus::obs {
class EventLog;
class MetricsRegistry;
}  // namespace focus::obs

namespace focus::crawl {

// How relevance judgments gate link expansion (§2.1.2).
enum class ExpansionRule {
  // Insert outlinks always; the frontier priority (relevance-ordered) does
  // the focusing. The paper's preferred, stagnation-robust rule.
  kSoftFocus,
  // Expand only when the best leaf class has a good ancestor-or-self.
  // Faithful to the paper's description — and to its failure mode: crawls
  // can stagnate (§2.1.2, §3.7).
  kHardFocus,
  // Ignore the classifier for control (still recorded for measurement):
  // the standard-crawler baseline of Figure 5(a).
  kUnfocused,
};

// Routes link discoveries whose target belongs to another crawl shard
// (distributed crawl, src/dist). When a crawler has a sink, expansion of a
// non-owned target journals an admission for the owner (CrawlDb's OUTBOX)
// instead of touching the local frontier; the LINK row is still recorded
// locally, so the crawl graph stays lossless. All calls arrive under the
// crawler's state lock, inside the batch that will commit them.
class CrossShardLinkSink {
 public:
  virtual ~CrossShardLinkSink() = default;
  // True when this crawler's shard owns `url`.
  virtual bool Owns(std::string_view url) const = 0;
  // Journals an admission of `dst_url` discovered by `src_oid`.
  // `raise_if_known` carries the local expansion semantics the owner must
  // mirror (see ExchangeLink::raise_if_known).
  virtual Status ExportLink(uint64_t src_oid, std::string_view dst_url,
                            double relevance, bool raise_if_known) = 0;
};

struct CrawlerOptions {
  int max_fetches = 6000;
  int max_retries = 3;
  ExpansionRule expansion = ExpansionRule::kSoftFocus;
  PriorityPolicy policy = PriorityPolicy::kAggressiveDiscovery;

  // Periodic distillation (0 = off): every `distill_every` visits, refresh
  // edge weights, run the join distiller and raise the priority of
  // unvisited pages cited by the top hubs (§3.2, §3.7).
  int distill_every = 0;
  // For the kPageRankOrder policy: recompute PageRank over the known
  // crawl graph every `pagerank_every` visits and refresh frontier
  // priorities (0 = at seed time only).
  int pagerank_every = 0;
  int distill_iterations = 5;
  double distill_rho = 0.0;
  int top_hubs_to_boost = 15;
  double hub_boost_relevance = 0.9;

  // §3.2's URL-truncation device: when expanding links, also enqueue the
  // host root ("http://host/") of each target, hunting for server index
  // pages.
  bool try_truncated_urls = false;
  // §3.2's backward-crawling device: after fetching a strongly relevant
  // page, enqueue pages that point to it (they are radius-2 hub
  // candidates). Requires the web's backlink metadata service.
  bool expand_backlinks = false;
  int backlinks_per_page = 5;
  double backlink_relevance_threshold = 0.5;

  int num_threads = 1;
  // Pages accumulated by a fetch worker before one batched classify call
  // (the paper's §2.1.3 batching insight applied to the live crawl loop).
  // At every thread count one batch is also one durable WAL commit.
  int classify_batch_size = 32;
  // Frontier shards, keyed by ServerIdOf(url). 0 = auto: one shard
  // single-threaded (exactly the classic frontier), else two per thread.
  int frontier_shards = 0;

  // Hostile-web handling: failure classification + backoff (budgeted by
  // max_retries) and per-server circuit breakers. Both make purely
  // time-shifting decisions, so the set of pages a crawl-to-exhaustion
  // visits is identical at any thread count.
  RetryPolicyOptions retry;
  CircuitBreakerOptions breaker;

  // Every Nth committed crawl batch is promoted to a CrawlDb::Checkpoint
  // (overlay flush + log truncation), so crash recovery replays at most
  // one interval of commits. 0 disables periodic checkpoints. No-op
  // without a WAL-backed CrawlDb.
  int checkpoint_every_batches = 64;

  // Registry for the crawler's stage metrics; nullptr = process-global.
  // Benchmarks pass a private registry so repeated runs start from zero.
  obs::MetricsRegistry* metrics_registry = nullptr;

  // Provenance event log; nullptr = disabled (the default — the hot path
  // then pays only a branch per would-be event). When set, the crawler
  // records the full URL lifecycle and attaches the log to its frontier,
  // breaker registry and retry policy.
  obs::EventLog* event_log = nullptr;

  // Distributed crawl hooks (src/dist). `link_sink` diverts expansion of
  // non-owned URLs into the cross-shard exchange; nullptr = single-shard
  // behavior. `interrupt` is polled with the worker's virtual time before
  // every classify batch; a non-OK return aborts the crawl with that status
  // (the ShardFaultPlan's scheduled shard deaths). Both borrowed/copied;
  // the sink must outlive the crawler.
  CrossShardLinkSink* link_sink = nullptr;
  std::function<Status(int64_t virtual_us)> interrupt;
};

struct Visit {
  int fetch_index = 0;  // 0-based order of successful fetches
  uint64_t oid = 0;
  std::string url;
  double relevance = 0;
  taxonomy::Cid best_leaf = 0;
  int64_t virtual_time_us = 0;
};

struct CrawlStats {
  uint64_t attempts = 0;
  // Failed attempts that were rescheduled with backoff (transient /
  // timeout / outage classes). attempts == visits + transient_failures +
  // dropped_urls.
  uint64_t transient_failures = 0;
  // Entries abandoned: permanent (404) failures plus retry-budget
  // exhaustion. Deterministic per seed, unlike the timing-dependent
  // attempt counts.
  uint64_t dropped_urls = 0;
  // Frontier pops re-parked because the server's breaker was open.
  uint64_t breaker_skips = 0;
  uint64_t distill_rounds = 0;
  bool stagnated = false;  // frontier ran dry before the budget
};

class StageMetrics;

// The crawler's two locks, for per-lock wait accounting.
enum class CrawlLock { kState, kLink };

class Crawler {
 public:
  // `catalog` hosts the HUBS/AUTH tables for periodic distillation; all
  // pointers must outlive the crawler.
  Crawler(webgraph::SimulatedWeb* web, RelevanceEvaluator* evaluator,
          CrawlDb* db, sql::Catalog* catalog, CrawlerOptions options);
  ~Crawler();

  // Registers a start URL with relevance estimate 1.
  Status AddSeed(std::string_view url);

  // Rebuilds the in-memory crawl state from the CRAWL and LINK tables —
  // the recovery path §3.1 motivates ("Few pages on the Web are formally
  // checked for well-formedness, hence all crawlers crash"): the tables
  // are the durable crawl state; a fresh Crawler over the same CrawlDb
  // resumes where the dead one stopped. Every CRAWL row enters the
  // URL-state map (backlink counts restart at 0); unvisited rows within
  // the retry limit re-enter the frontier with their stored priority
  // fields. The link-dedup set is seeded from LINK's source oids, not from
  // visited rows: LINK rows are written before their batch's visits are
  // recorded, so a commit can hold the edges of a page that is still
  // unvisited, and its refetch must not duplicate them. A crawler over a
  // non-empty CrawlDb must call this before crawling.
  Status ResumeFromDb();

  // Runs until the fetch budget is spent or the frontier stagnates.
  Status Crawl();

  const std::vector<Visit>& visits() const { return visits_; }
  const CrawlStats& stats() const { return stats_; }
  const VirtualClock& clock() const { return clock_; }
  ShardedFrontier* frontier() { return &frontier_; }
  // Breaker states, for the admin /frontier endpoint (internally locked).
  const CircuitBreakerRegistry& breakers() const { return breaker_; }
  // Per-stage pipeline counters (fetch/classify/expand time, lock wait,
  // batch occupancy, work stealing).
  const StageMetrics& stage_metrics() const { return *stage_metrics_; }
  CrawlDb* db() const { return db_; }
  const distill::DistillTables& distill_tables() const {
    return distill_tables_;
  }

  // Switches the frontier ordering mid-crawl (§3.2's dynamically
  // reconfigurable priority controls).
  void SetPolicy(PriorityPolicy policy) { frontier_.SetPolicy(policy); }

  // Crawl maintenance (§3.2): re-enqueues up to `count` already-visited
  // pages under the (lastvisited asc, hub_score desc) ordering and raises
  // the fetch budget accordingly. `hubs` supplies hub scores from a
  // distillation round (may be null). Switches the frontier policy to
  // kRevisitHubs; under that ordering never-visited frontier entries
  // (lastvisited = 0) still drain first, then the stalest pages. Re-visits
  // refresh relevance, class and lastvisited; links are recorded only on
  // the first visit.
  Status ScheduleRevisits(const sql::Table* hubs, int count);

  // Applies one cross-shard admission delivered by the link exchange:
  // unknown URLs enter CRAWL and the frontier with `relevance` as their
  // estimate; known unvisited rows are raised to `relevance` when
  // `raise_if_known` (max semantics, so redelivery after a crash is
  // idempotent); visited rows are no-ops. The caller owns durability —
  // admissions and the exchange watermark commit as one batch.
  Status AdmitRemoteLink(std::string_view url, double relevance,
                         int64_t parent_oid, bool raise_if_known);

 private:
  // One outlink's keys, computed by the fetch worker outside every lock.
  struct OutLink {
    uint64_t oid = 0;
    int32_t sid = 0;
    // Host root of the target when try_truncated_urls is on and it differs
    // from the target, else empty. Same host, so same sid.
    std::string root;
    uint64_t root_oid = 0;
  };
  // A page that cleared the fetch stage, waiting for classification.
  struct FetchedPage {
    FrontierEntry entry;
    webgraph::SimulatedWeb::FetchResult fetch;
    int64_t fetched_at_us = 0;  // the fetching worker's virtual time
    uint64_t oid = 0;           // UrlOid(fetch.url)
    int32_t sid = 0;            // ServerIdOf(fetch.url)
    std::vector<OutLink> outlinks;  // parallel to fetch.outlink_urls
  };
  // What the crawler knows of a URL with a CRAWL row: the row's relevance
  // column (estimate, or judged R once visited), its visited flag, and the
  // citations seen so far by this crawler (Cho backlink ordering).
  struct UrlState {
    double relevance = 0;
    int32_t backlinks = 0;
    bool visited = false;
  };

  // The crawl loop at every thread count (one worker per thread): sharded
  // frontier pops, micro-batched classification, fine-grained critical
  // sections.
  Status RunPipeline();
  // One worker's loop. `worker` indexes its preferred frontier shard;
  // `worker_clock` accumulates the worker's virtual fetch timeline.
  Status PipelineWorker(int worker, VirtualClock* worker_clock);
  // One worker's pops for a fetch round.
  struct GatheredBatch {
    std::vector<FrontierEntry> entries;
    // Pops re-parked because their server's breaker was open.
    uint64_t breaker_skips = 0;
    // A budget slot is still held for a re-parked entry; the caller
    // releases it under state_mutex_.
    bool parked_slot = false;
  };
  // Pops up to classify_batch_size entries ready at the worker's virtual
  // time and admitted by their server's breaker, reserving a budget slot
  // for each in budget_used_. Takes no state_mutex_.
  GatheredBatch GatherBatch(int worker, VirtualClock* worker_clock);
  // Classifies a failed fetch, charges its retry budget (persisting via
  // CrawlDb::RecordFailure) and either drops the entry or re-parks it with
  // backoff. Caller holds state_mutex_.
  Status HandleFetchFailure(const FrontierEntry& entry, const Status& error,
                            int64_t at_us);
  // Records a breaker transition (metrics + persistence dirty queue).
  void NoteBreakerOutcome(const BreakerOutcome& outcome);
  // Writes queued breaker transitions to the BREAKER table. Caller holds
  // state_mutex_.
  Status FlushBreakerState();
  // Fills each page's oid, sid and outlink keys (no lock).
  void ComputeLinkKeys(std::vector<FetchedPage>* pages) const;
  // The link section: writes the LINK rows of every first-visited page of
  // a batch under link_mutex_, before its state section.
  Status RecordLinks(const std::vector<FetchedPage>& pages);
  // Records a classified batch under one state critical section.
  Status RecordBatch(std::vector<FetchedPage>* pages,
                     const std::vector<PageJudgment>& judgments);
  // Locks `mu`, charging the wait to `lock`'s lock-wait counter. Only for
  // a worker that holds no crawler lock: a wait nested in the record
  // section is that section's time, so the stage counters stay disjoint.
  std::unique_lock<std::mutex> TimedLock(std::mutex& mu, CrawlLock lock);
  // Inserts a URL absent from CRAWL into CRAWL, the URL-state map and the
  // frontier, and logs its admission (`aux` tells the discovery path).
  // Caller holds state_mutex_.
  Status AdmitUnknownUrl(std::string_view url, uint64_t oid, int32_t sid,
                         double relevance, int32_t backlinks,
                         int64_t parent_oid, int64_t at_us, int64_t aux);
  // Runs any distillation / PageRank refresh whose visit threshold has
  // been crossed. Caller holds state_mutex_.
  Status RunPeriodicBoosts();
  // Commits the current durable batch; every checkpoint_every_batches-th
  // commit is promoted to a full checkpoint so the WAL never holds more
  // than one interval of commits. Caller holds state_mutex_. With a WAL it
  // takes link_mutex_, so no LINK B+-tree is half-updated in the commit;
  // without one the commit does nothing and takes no lock.
  Status CommitBatch();

  // Admits or re-ranks a visited page's outlinks (and their host roots).
  Status ExpandLinks(const FetchedPage& page, const PageJudgment& judgment);
  // Journals a non-owned link target into the sink, suppressing exports
  // the owner would no-op (same estimate or lower for raise-mode targets;
  // any repeat for admit-if-unknown targets). Caller holds state_mutex_.
  Status ExportRemoteLink(uint64_t src_oid, const std::string& dst_url,
                          double relevance, bool raise_if_known);
  // Both read LINK, so both take link_mutex_ (caller holds state_mutex_).
  Status RunDistillationBoost();
  // Recomputes PageRank over LINK and pushes the scores into the frontier
  // (the Cho et al. perceived-prestige ordering).
  Status RefreshPageRankPriorities();

  webgraph::SimulatedWeb* web_;
  RelevanceEvaluator* evaluator_;
  CrawlDb* db_;
  CrawlerOptions options_;
  ShardedFrontier frontier_;  // internally locked, one lock per shard
  VirtualClock clock_;
  distill::DistillTables distill_tables_;
  bool distill_tables_ready_ = false;
  sql::Catalog* catalog_;
  std::unique_ptr<StageMetrics> stage_metrics_;
  RetryPolicy retry_policy_;
  CircuitBreakerRegistry breaker_;
  // Breaker transitions awaiting persistence. Appended lock-free of the
  // crawl state (own small mutex, safe from fetch workers); drained into
  // the BREAKER table by FlushBreakerState under state_mutex_.
  std::mutex breaker_dirty_mu_;
  std::vector<BreakerRecord> breaker_dirty_;

  std::unordered_map<int32_t, int32_t> server_fetches_;
  // Every URL with a CRAWL row, kept in step with each CRAWL write the
  // crawler makes (AddSeed, admissions, RecordVisit, RaiseRelevance), so
  // expansion never reads CRAWL back. CrawlDb stays the durable store;
  // ResumeFromDb rebuilds this map from it. Guarded by state_mutex_.
  std::unordered_map<uint64_t, UrlState> url_state_;
  // Pages whose outlinks are already in LINK (revisits must not duplicate
  // edges). Guarded by link_mutex_.
  std::unordered_set<uint64_t> links_recorded_;
  // Export dedup (guarded by state_mutex_): best estimate already
  // journaled per raise-mode target, and admit-if-unknown targets already
  // journaled once. Purely an outbox-volume optimization — both are lost
  // on a crash and re-exports are idempotent at the owner.
  std::unordered_map<uint64_t, double> raise_exported_;
  std::unordered_set<uint64_t> admit_exported_;
  std::vector<Visit> visits_;
  CrawlStats stats_;
  // Visit counts at which the next distillation / PageRank refresh fire
  // (thresholds rather than modulo so batched recording cannot step over a
  // trigger).
  uint64_t next_distill_at_ = 0;
  uint64_t next_pagerank_at_ = 0;
  // Commits since the last periodic checkpoint (guarded by state_mutex_).
  int commits_since_checkpoint_ = 0;

  // Fetch budget: visits_.size() plus pages in flight (popped, not yet
  // recorded or failed). Workers reserve a slot by compare-and-swap below
  // max_fetches without any lock; a recorded page keeps its slot as its
  // visit, a failed one releases it. In-flight pages are therefore
  // budget_used_ - visits_.size(), read under state_mutex_. A slot whose
  // page can still add frontier entries (recorded, failed and re-parked,
  // or breaker re-parked) is converted or released only under
  // state_mutex_; lock-free releases are for pops that came up dry and for
  // an aborting crawl. So an idle worker that, holding the lock, reads the
  // frontier empty and then no page in flight has seen the crawl stagnate.
  std::atomic<int> budget_used_{0};
  // Set when a pipeline worker fails, so its peers stop instead of waiting
  // on budget slots that will never be released.
  std::atomic<bool> abort_{false};
  // Guards the CRAWL, BREAKER and OUTBOX writes through db_, url_state_,
  // visits_, stats_, server and export bookkeeping and the periodic-boost
  // thresholds. The frontier has per-shard locks, fetches need no lock
  // (explicit attempt ordinals) and budget slots are atomic, so fetch
  // workers meet here in the record section, and briefly after failed
  // fetches or breaker re-parks and when idle.
  std::mutex state_mutex_;
  // Guards the LINK table and links_recorded_. A worker writes its batch's
  // LINK rows under this lock alone, before it takes state_mutex_, so one
  // worker's link section overlaps another's state section. Lock order is
  // state_mutex_ → link_mutex_: the WAL commit (only when the CrawlDb has
  // a WAL) and the LINK readers (distillation, PageRank) take it inside
  // the state section, so neither sees a half-applied LINK insert. Never
  // take state_mutex_ while holding this.
  std::mutex link_mutex_;
  // Signaled when budget or frontier state changes; idle workers wait.
  std::condition_variable work_cv_;
};

}  // namespace focus::crawl

#endif  // FOCUS_CRAWL_CRAWLER_H_
