// Measurement helpers behind the paper's evaluation figures.
#ifndef FOCUS_CRAWL_METRICS_H_
#define FOCUS_CRAWL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "crawl/circuit_breaker.h"
#include "crawl/crawl_db.h"
#include "crawl/crawler.h"
#include "crawl/retry_policy.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace focus::crawl {

// A plain-value copy of the pipeline stage counters, safe to read after
// (or during) a crawl.
struct StageMetricsSnapshot {
  uint64_t fetch_micros = 0;      // wall time inside the fetch stage
  uint64_t classify_micros = 0;   // wall time inside the classify stage
  uint64_t expand_micros = 0;     // wall time recording visits + expanding
  uint64_t link_micros = 0;       // wall time writing LINK rows
  // Time blocked on the crawler's locks: the sum over both, then each.
  uint64_t lock_wait_micros = 0;
  uint64_t state_lock_wait_micros = 0;
  uint64_t link_lock_wait_micros = 0;
  uint64_t batches = 0;           // classify batches submitted
  uint64_t batched_pages = 0;     // pages across those batches
  uint64_t frontier_pops = 0;     // successful frontier pops
  uint64_t frontier_steals = 0;   // pops served by a non-preferred shard
  uint64_t fetch_failures = 0;    // failed fetch attempts (all classes)
  uint64_t retries = 0;           // failures rescheduled with backoff
  uint64_t dropped_urls = 0;      // entries abandoned (404 / budget)
  uint64_t breaker_skips = 0;     // pops re-parked by an open breaker
  uint64_t breaker_opens = 0;     // transitions into the open state

  // Mean pages per classify batch (the batch-occupancy signal: low values
  // mean the fetch stage starves the classifier).
  double AvgBatchOccupancy() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_pages) / batches;
  }
};

// Per-stage counters for the concurrent crawl pipeline (fetch → classify →
// link → expand), backed by registry counters (focus_crawl_stage_micros_total
// {stage=...} and friends) so the same numbers appear in Prometheus/JSON
// snapshots. Updates are single relaxed fetch_adds — fetch workers never
// serialize on the crawl-state lock (or on each other) to record time.
//
// Registry counters are process-cumulative across crawlers sharing a
// registry (the shards of a DistCrawl crawl concurrently on one registry),
// so every count is also kept in this crawler's own tally: Snapshot()
// reports only this crawler's work, as deltas since construction or the
// last Reset().
class StageMetrics {
 public:
  // nullptr registry means the process-global registry.
  explicit StageMetrics(obs::MetricsRegistry* registry = nullptr);

  void AddFetchMicros(uint64_t us) { fetch_micros_.Add(us); }
  void AddClassifyMicros(uint64_t us) { classify_micros_.Add(us); }
  void AddExpandMicros(uint64_t us) { expand_micros_.Add(us); }
  void AddLinkMicros(uint64_t us) { link_micros_.Add(us); }
  // Charged to focus_lock_wait_micros_total{lock} and to the summed
  // focus_crawl_stage_micros_total{stage="lock_wait"}.
  void AddLockWaitMicros(CrawlLock lock, uint64_t us) {
    lock_wait_micros_.Add(us);
    (lock == CrawlLock::kState ? state_lock_wait_micros_
                               : link_lock_wait_micros_)
        .Add(us);
  }
  void RecordBatch(uint64_t pages) {
    batches_.Add(1);
    batched_pages_.Add(pages);
    batch_pages_hist_->Observe(pages);
  }
  // Latency of one classifier batch (also kept as a histogram so snapshots
  // report tail behaviour, not just the mean).
  void ObserveClassifyBatchMicros(uint64_t us) {
    batch_micros_hist_->Observe(us);
  }
  void RecordPop(bool stolen) {
    frontier_pops_.Add(1);
    if (stolen) frontier_steals_.Add(1);
  }
  void RecordFetchFailure(FailureClass cls) {
    fetch_failures_[static_cast<int>(cls)].Add(1);
  }
  // A failure rescheduled with `backoff_s` seconds of (virtual) delay.
  void RecordRetry(FailureClass cls, double backoff_s) {
    retries_[static_cast<int>(cls)].Add(1);
    backoff_ms_hist_->Observe(backoff_s * 1e3);
  }
  void RecordDrop(bool permanent) {
    (permanent ? dropped_permanent_ : dropped_exhausted_).Add(1);
  }
  void RecordBreakerTransition(BreakerState to) {
    breaker_transitions_[static_cast<int>(to)].Add(1);
  }
  void RecordBreakerSkips(uint64_t n) {
    if (n > 0) breaker_skips_.Add(n);
  }
  // Servers currently quarantined (open or half-open breakers).
  void SetOpenBreakers(double n) { open_breakers_->Set(n); }
  // Instantaneous frontier size (sampled by the record stage).
  void SetFrontierDepth(double depth) { frontier_depth_->Set(depth); }
  // One distillation round's per-iteration L1 residuals: counts the
  // iterations and keeps the final residual as a convergence gauge.
  void RecordDistillResiduals(const std::vector<double>& residuals) {
    distill_iterations_->Add(residuals.size());
    if (!residuals.empty()) distill_residual_->Set(residuals.back());
  }
  // One visited page's relevance. Maintains the paper's harvest-rate signal
  // (§3.4) live: the mean R(p) over the last `kHarvestWindow` visits,
  // exported as the focus_crawl_harvest_rate gauge. Called from the record
  // stage (already serialized on the crawl-state lock), so a small mutex
  // here is off the fetch workers' hot path.
  void RecordVisitRelevance(double r);

  // Deltas since construction (or the last Reset).
  StageMetricsSnapshot Snapshot() const;
  // Re-baselines so the next Snapshot() starts from zero.
  void Reset();

 private:
  // One snapshot count: added both to the shared registry counter and to
  // this crawler's own tally, which Snapshot() reads.
  class Tally {
   public:
    void Bind(obs::Counter* shared) { shared_ = shared; }
    void Add(uint64_t n) {
      shared_->Add(n);
      own_.Add(n);
    }
    uint64_t Value() const { return own_.Value(); }

   private:
    obs::Counter* shared_ = nullptr;
    obs::Counter own_;
  };

  StageMetricsSnapshot Raw() const;

  Tally fetch_micros_;
  Tally classify_micros_;
  Tally expand_micros_;
  Tally link_micros_;
  Tally lock_wait_micros_;
  Tally state_lock_wait_micros_;
  Tally link_lock_wait_micros_;
  Tally batches_;
  Tally batched_pages_;
  Tally frontier_pops_;
  Tally frontier_steals_;
  obs::Gauge* frontier_depth_;
  obs::Counter* distill_iterations_;
  obs::Gauge* distill_residual_;
  obs::Histogram* batch_pages_hist_;
  obs::Histogram* batch_micros_hist_;
  // Fault-model counters, indexed by FailureClass / BreakerState.
  Tally fetch_failures_[4];
  Tally retries_[4];
  Tally dropped_permanent_;
  Tally dropped_exhausted_;
  Tally breaker_transitions_[3];
  Tally breaker_skips_;
  obs::Gauge* open_breakers_;
  obs::Histogram* backoff_ms_hist_;
  // Sliding window behind the harvest-rate gauge.
  static constexpr size_t kHarvestWindow = 256;
  obs::Gauge* harvest_rate_;
  std::mutex harvest_mu_;
  std::vector<double> harvest_ring_;
  size_t harvest_next_ = 0;
  size_t harvest_count_ = 0;
  double harvest_sum_ = 0.0;
  StageMetricsSnapshot baseline_;
};

// Harvest rate (§3.4): moving average of R(p) over a window of fetches.
// Point i covers visits [max(0, i-window+1), i].
std::vector<double> MovingAverageRelevance(const std::vector<Visit>& visits,
                                           int window);

// Coverage (§3.5): after each test-crawl fetch, the fraction of the
// reference sets already visited.
struct CoverageSeries {
  std::vector<double> url_fraction;     // of ref_urls
  std::vector<double> server_fraction;  // of ref_servers
};
CoverageSeries Coverage(const std::vector<Visit>& test_visits,
                        const std::unordered_set<uint64_t>& ref_oids,
                        const std::unordered_set<int32_t>& ref_servers);

// Relevant reference sets from a finished crawl: visited pages with
// log R(u) > log_threshold (the paper uses -1), plus their servers.
struct ReferenceSets {
  std::unordered_set<uint64_t> oids;
  std::unordered_set<int32_t> servers;
};
ReferenceSets RelevantReferenceSets(const std::vector<Visit>& visits,
                                    double log_threshold = -1.0);

// Shortest link distances within the *crawled* graph (LINK table) from
// `sources` to each of `targets`; -1 when unreachable (§3.6).
Result<std::vector<int>> CrawledGraphDistances(
    const CrawlDb& db, const std::vector<uint64_t>& sources,
    const std::vector<uint64_t>& targets);

// Bucket counts of non-negative distances: hist[d] = #targets at distance
// d (distances beyond max_distance are clamped into the last bucket).
std::vector<int> DistanceHistogram(const std::vector<int>& distances,
                                   int max_distance);

}  // namespace focus::crawl

#endif  // FOCUS_CRAWL_METRICS_H_
