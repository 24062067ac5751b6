#include "crawl/crawler.h"

#include <algorithm>
#include <chrono>

#include "crawl/metrics.h"
#include "distill/join_distiller.h"
#include "distill/pagerank.h"
#include "obs/event_log.h"
#include "obs/trace.h"

#include "util/clock.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace focus::crawl {

namespace {

int ResolveShardCount(const CrawlerOptions& options) {
  if (options.frontier_shards > 0) return options.frontier_shards;
  // Single-threaded crawls keep one shard, so the lone worker's
  // PopPreferShard(0) pops in exactly the classic global priority order.
  if (options.num_threads <= 1) return 1;
  return std::min(options.num_threads * 2, 16);
}

}  // namespace

Crawler::Crawler(webgraph::SimulatedWeb* web, RelevanceEvaluator* evaluator,
                 CrawlDb* db, sql::Catalog* catalog, CrawlerOptions options)
    : web_(web),
      evaluator_(evaluator),
      db_(db),
      options_(options),
      frontier_(options.policy, ResolveShardCount(options)),
      catalog_(catalog),
      stage_metrics_(std::make_unique<StageMetrics>(options.metrics_registry)),
      retry_policy_(options.retry, options.max_retries),
      breaker_(options.breaker) {
  if (options_.num_threads < 1) options_.num_threads = 1;
  if (options_.classify_batch_size < 1) options_.classify_batch_size = 1;
  next_distill_at_ = options_.distill_every;
  next_pagerank_at_ = options_.pagerank_every;
  if (options_.event_log != nullptr) {
    frontier_.SetEventLog(options_.event_log);
    breaker_.SetEventLog(options_.event_log);
    retry_policy_.SetEventLog(options_.event_log);
  }
}

Crawler::~Crawler() = default;

Status Crawler::AddSeed(std::string_view url) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  Status s = db_->AddUrl(url, /*relevance_estimate=*/1.0, /*serverload=*/0);
  if (s.ok()) {
    url_state_.emplace(UrlOid(url), UrlState{/*relevance=*/1.0});
  } else if (s.code() != StatusCode::kAlreadyExists) {
    return s;
  }
  FrontierEntry entry;
  entry.oid = UrlOid(url);
  entry.url = std::string(url);
  entry.relevance = 1.0;
  frontier_.AddOrUpdate(entry);
  if (options_.event_log != nullptr) {
    // Seeds are discovery roots: no parent.
    options_.event_log->Record(obs::CrawlEventType::kFrontierAdmit,
                               static_cast<int64_t>(entry.oid),
                               /*parent_oid=*/-1, ServerIdOf(url),
                               clock_.NowMicros(), /*value=*/1.0, /*aux=*/0);
  }
  return Status::OK();
}

Status Crawler::CommitBatch() {
  // Without a WAL, Commit and Checkpoint do nothing: skip the link lock.
  if (!db_->has_wal()) return Status::OK();
  std::lock_guard<std::mutex> link_lock(link_mutex_);
  if (options_.checkpoint_every_batches > 0 &&
      ++commits_since_checkpoint_ >= options_.checkpoint_every_batches) {
    commits_since_checkpoint_ = 0;
    // Checkpoint subsumes Commit: the WAL protocol logs the pending batch,
    // flushes the overlay and truncates the log, so recovery replay is
    // bounded by one checkpoint interval of commits.
    return db_->Checkpoint();
  }
  return db_->Commit();
}

Status Crawler::HandleFetchFailure(const FrontierEntry& entry,
                                   const Status& error, int64_t at_us) {
  FailureClass cls = ClassifyFetchFailure(error);
  stage_metrics_->RecordFetchFailure(cls);
  if (options_.event_log != nullptr) {
    options_.event_log->Record(obs::CrawlEventType::kFetchFailure,
                               static_cast<int64_t>(entry.oid),
                               /*parent_oid=*/-1, ServerIdOf(entry.url),
                               at_us, /*value=*/entry.relevance,
                               /*aux=*/static_cast<int64_t>(cls));
  }
  RetryPolicy::Decision d = retry_policy_.Decide(entry, cls, at_us);
  FOCUS_RETURN_IF_ERROR(
      db_->RecordFailure(entry.oid, d.cost, d.drop ? 0 : d.ready_at_us));
  if (d.drop) {
    ++stats_.dropped_urls;
    stage_metrics_->RecordDrop(cls == FailureClass::kPermanent);
    return Status::OK();
  }
  ++stats_.transient_failures;
  stage_metrics_->RecordRetry(cls, d.backoff_s);
  FrontierEntry retry = entry;
  retry.numtries += d.cost;
  retry.serverload = server_fetches_[ServerIdOf(retry.url)];
  retry.ready_at_us = d.ready_at_us;
  frontier_.AddOrUpdate(retry);
  return Status::OK();
}

void Crawler::NoteBreakerOutcome(const BreakerOutcome& outcome) {
  if (!outcome.transitioned) return;
  stage_metrics_->RecordBreakerTransition(outcome.record.state);
  stage_metrics_->SetOpenBreakers(static_cast<double>(breaker_.open_count()));
  std::lock_guard<std::mutex> lock(breaker_dirty_mu_);
  breaker_dirty_.push_back(outcome.record);
}

Status Crawler::FlushBreakerState() {
  std::vector<BreakerRecord> dirty;
  {
    std::lock_guard<std::mutex> lock(breaker_dirty_mu_);
    dirty.swap(breaker_dirty_);
  }
  // Duplicate sids upsert in queue order, so the latest transition wins.
  for (const BreakerRecord& rec : dirty) {
    FOCUS_RETURN_IF_ERROR(db_->UpsertBreaker(rec));
  }
  return Status::OK();
}

Status Crawler::RunPeriodicBoosts() {
  while (options_.distill_every > 0 && next_distill_at_ > 0 &&
         visits_.size() >= next_distill_at_) {
    FOCUS_RETURN_IF_ERROR(RunDistillationBoost());
    next_distill_at_ += options_.distill_every;
  }
  while (options_.policy == PriorityPolicy::kPageRankOrder &&
         options_.pagerank_every > 0 && next_pagerank_at_ > 0 &&
         visits_.size() >= next_pagerank_at_) {
    FOCUS_RETURN_IF_ERROR(RefreshPageRankPriorities());
    next_pagerank_at_ += options_.pagerank_every;
  }
  return Status::OK();
}

Status Crawler::RefreshPageRankPriorities() {
  // Build the known crawl graph from LINK.
  std::unordered_map<uint64_t, uint32_t> node_index;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  auto index_of = [&](uint64_t oid) {
    auto [it, inserted] = node_index.try_emplace(
        oid, static_cast<uint32_t>(node_index.size()));
    return it->second;
  };
  {
    std::lock_guard<std::mutex> link_lock(link_mutex_);
    auto it = db_->link_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      edges.emplace_back(
          index_of(static_cast<uint64_t>(row.Get(0).AsInt64())),
          index_of(static_cast<uint64_t>(row.Get(2).AsInt64())));
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  std::vector<double> rank = distill::PageRank(node_index.size(), edges);
  for (const FrontierEntry& entry : frontier_.Snapshot()) {
    auto it = node_index.find(entry.oid);
    double score = it == node_index.end() ? 0.0 : rank[it->second];
    frontier_.UpdateIfPresent(ServerIdOf(entry.url), entry.oid,
                              [score](FrontierEntry* e) {
                                e->hub_score = score;
                              });
  }
  return Status::OK();
}

Status Crawler::AdmitUnknownUrl(std::string_view url, uint64_t oid,
                                int32_t sid, double relevance,
                                int32_t backlinks, int64_t parent_oid,
                                int64_t at_us, int64_t aux) {
  const int32_t load = server_fetches_[sid];
  FOCUS_RETURN_IF_ERROR(db_->AddUnknownUrl(oid, sid, url, relevance, load));
  url_state_.emplace(oid, UrlState{relevance, backlinks});
  FrontierEntry entry;
  entry.oid = oid;
  entry.url = std::string(url);
  entry.relevance = relevance;
  entry.serverload = load;
  entry.backlinks = backlinks;
  frontier_.AddOrUpdate(entry);
  if (options_.event_log != nullptr) {
    options_.event_log->Record(obs::CrawlEventType::kFrontierAdmit,
                               static_cast<int64_t>(oid), parent_oid, sid,
                               at_us, relevance, aux);
  }
  return Status::OK();
}

Status Crawler::ExpandLinks(const FetchedPage& page,
                            const PageJudgment& judgment) {
  // The LINK rows are already written (RecordLinks); only frontier
  // insertion is gated by the expansion rule.
  if (options_.expansion == ExpansionRule::kHardFocus &&
      !judgment.best_leaf_is_good) {
    return Status::OK();
  }
  const int64_t src_oid = static_cast<int64_t>(page.oid);
  const int64_t at_us = page.fetched_at_us;
  const double estimate = judgment.relevance;
  for (size_t i = 0; i < page.outlinks.size(); ++i) {
    const std::string& dst = page.fetch.outlink_urls[i];
    const OutLink& link = page.outlinks[i];
    if (options_.link_sink != nullptr && !options_.link_sink->Owns(dst)) {
      // Cross-shard target (its whole server belongs to another shard, so
      // its host root does too): journal the admission for the owner and
      // leave the local frontier alone.
      if (!link.root.empty()) {
        FOCUS_RETURN_IF_ERROR(ExportRemoteLink(page.oid, link.root, estimate,
                                               /*raise_if_known=*/false));
      }
      FOCUS_RETURN_IF_ERROR(ExportRemoteLink(page.oid, dst, estimate,
                                             /*raise_if_known=*/true));
      continue;
    }
    // Also consider the target's host root (server index pages are often
    // excellent resource lists).
    if (!link.root.empty() && !url_state_.contains(link.root_oid)) {
      FOCUS_RETURN_IF_ERROR(AdmitUnknownUrl(link.root, link.root_oid,
                                            link.sid, estimate,
                                            /*backlinks=*/0, src_oid, at_us,
                                            /*aux=*/1));
    }
    auto known = url_state_.find(link.oid);
    if (known == url_state_.end()) {
      FOCUS_RETURN_IF_ERROR(AdmitUnknownUrl(dst, link.oid, link.sid,
                                            estimate, /*backlinks=*/1,
                                            src_oid, at_us, /*aux=*/0));
      continue;
    }
    UrlState& state = known->second;
    if (state.visited) continue;
    // A better citation raises the unvisited page's priority; every
    // citation raises its backlink count (Cho ordering signal).
    const int32_t backlinks = ++state.backlinks;
    if (estimate > state.relevance) {
      FOCUS_RETURN_IF_ERROR(db_->RaiseRelevance(link.oid, estimate));
      state.relevance = estimate;
    }
    const int32_t load = server_fetches_[link.sid];
    frontier_.UpdateIfPresent(link.sid, link.oid, [&](FrontierEntry* e) {
      e->relevance = std::max(e->relevance, estimate);
      e->serverload = load;
      e->backlinks = backlinks;
    });
  }
  return Status::OK();
}

Status Crawler::ExportRemoteLink(uint64_t src_oid, const std::string& dst_url,
                                 double relevance, bool raise_if_known) {
  uint64_t dst_oid = UrlOid(dst_url);
  if (raise_if_known) {
    // The owner applies max-raise semantics, so only a strictly better
    // estimate is worth journaling. The dedup map is in-memory: a crash
    // loses it and the replayed batch re-exports, which the owner no-ops.
    auto [it, inserted] = raise_exported_.try_emplace(dst_oid, relevance);
    if (!inserted) {
      if (relevance <= it->second) return Status::OK();
      it->second = relevance;
    }
  } else {
    // Admit-if-unknown targets never raise existing rows, so one export
    // is enough.
    if (!admit_exported_.insert(dst_oid).second) return Status::OK();
  }
  return options_.link_sink->ExportLink(src_oid, dst_url, relevance,
                                        raise_if_known);
}

Status Crawler::AdmitRemoteLink(std::string_view url, double relevance,
                                int64_t parent_oid, bool raise_if_known) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  uint64_t oid = UrlOid(url);
  int32_t sid = ServerIdOf(url);
  auto known = url_state_.find(oid);
  if (known == url_state_.end()) {
    return AdmitUnknownUrl(url, oid, sid, relevance,
                           /*backlinks=*/1, parent_oid, clock_.NowMicros(),
                           /*aux=*/3);
  }
  UrlState& state = known->second;
  if (!raise_if_known || state.visited) return Status::OK();
  // Same as the local ExpandLinks path for a known unvisited citation:
  // count the backlink, raise the estimate (max), re-rank if live.
  int32_t backlinks = ++state.backlinks;
  if (relevance > state.relevance) {
    FOCUS_RETURN_IF_ERROR(db_->RaiseRelevance(oid, relevance));
    state.relevance = relevance;
  }
  frontier_.UpdateIfPresent(sid, oid, [&](FrontierEntry* e) {
    e->relevance = std::max(e->relevance, relevance);
    e->backlinks = backlinks;
  });
  return Status::OK();
}

Status Crawler::RunDistillationBoost() {
  FOCUS_SPAN("crawl.distill_boost");
  std::lock_guard<std::mutex> link_lock(link_mutex_);
  if (!distill_tables_ready_) {
    distill_tables_.link = db_->link_table();
    distill_tables_.crawl = db_->crawl_table();
    FOCUS_RETURN_IF_ERROR(
        distill::CreateHubsAuthTables(catalog_, &distill_tables_));
    distill_tables_ready_ = true;
  }
  FOCUS_RETURN_IF_ERROR(db_->RefreshEdgeWeights());
  distill::JoinDistiller distiller(distill_tables_);
  distiller.EnableResidualTracking(true);
  distill::HitsOptions hits_options;
  hits_options.iterations = options_.distill_iterations;
  hits_options.rho = options_.distill_rho;
  FOCUS_RETURN_IF_ERROR(distiller.Run(hits_options));
  stage_metrics_->RecordDistillResiduals(distiller.residuals());
  ++stats_.distill_rounds;

  FOCUS_ASSIGN_OR_RETURN(auto hub_scores,
                         distill::CollectScores(distill_tables_.hubs));
  std::vector<std::pair<uint64_t, double>> top =
      distill::HitsEngine::TopHubs(
          [&] {
            std::unordered_map<uint64_t, distill::HubAuthScore> s;
            for (const auto& [oid, score] : hub_scores) s[oid].hub = score;
            return s;
          }(),
          options_.top_hubs_to_boost);

  // Raise priority of unvisited pages cited by the top hubs (§3.7's
  // "possibly missed neighbors of great hubs").
  sql::Table* link = db_->link_table();
  int by_src = link->IndexId("by_src");
  for (const auto& [hub_oid, score] : top) {
    std::vector<storage::Rid> rids;
    FOCUS_RETURN_IF_ERROR(link->IndexLookup(
        by_src, {sql::Value::Int64(static_cast<int64_t>(hub_oid))}, &rids));
    sql::Tuple row;
    for (const auto& rid : rids) {
      FOCUS_RETURN_IF_ERROR(link->Get(rid, &row));
      uint64_t dst_oid = static_cast<uint64_t>(row.Get(2).AsInt64());
      int32_t dst_sid = row.Get(3).AsInt32();
      bool boosted =
          frontier_.UpdateIfPresent(dst_sid, dst_oid, [&](FrontierEntry* e) {
            e->relevance =
                std::max(e->relevance, options_.hub_boost_relevance);
            e->hub_score = score;
          });
      if (!boosted) continue;
      auto known = url_state_.find(dst_oid);
      if (known == url_state_.end() || known->second.visited ||
          known->second.relevance >= options_.hub_boost_relevance) {
        continue;
      }
      FOCUS_RETURN_IF_ERROR(
          db_->RaiseRelevance(dst_oid, options_.hub_boost_relevance));
      known->second.relevance = options_.hub_boost_relevance;
    }
  }
  return Status::OK();
}

Status Crawler::ResumeFromDb() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  // Event reconciliation: a crash lost the in-memory rings, but the WAL
  // replayed the durable CRAWL/LINK state — re-emit the discovery history
  // from it, in table-scan order (heap insertion order == the commit order
  // the WAL recovered), flagged `reconciled`. The discovering parent of a
  // page is its earliest recorded citation.
  obs::EventLog* elog = options_.event_log;
  // Visit times gate which citations are plausible discoveries, so the
  // CRAWL rows are collected up front (they are re-walked below anyway).
  std::vector<CrawlRecord> records;
  std::unordered_map<uint64_t, int64_t> visited_at;
  {
    auto crawl_it = db_->crawl_table()->Scan();
    storage::Rid crawl_rid;
    sql::Tuple crawl_row;
    while (crawl_it.Next(&crawl_rid, &crawl_row)) {
      records.push_back(CrawlDb::RecordFromTuple(crawl_row));
      const CrawlRecord& rec = records.back();
      if (rec.visited) visited_at.emplace(rec.oid, rec.lastvisited);
    }
    FOCUS_RETURN_IF_ERROR(crawl_it.status());
  }
  std::unordered_map<uint64_t, uint64_t> first_citer;
  {
    std::lock_guard<std::mutex> link_lock(link_mutex_);
    auto link_it = db_->link_table()->Scan();
    storage::Rid link_rid;
    sql::Tuple link_row;
    while (link_it.Next(&link_rid, &link_row)) {
      uint64_t src = static_cast<uint64_t>(link_row.Get(0).AsInt64());
      // Every source in LINK has its edges recorded, visited or not (see
      // ResumeFromDb in crawler.h).
      links_recorded_.insert(src);
      if (elog == nullptr) continue;
      uint64_t dst = static_cast<uint64_t>(link_row.Get(2).AsInt64());
      // LINK is a graph with cycles (a seed gets cited by its own
      // descendants), but discovery is causal: a citation only counts
      // when the citer was itself visited, and strictly before the cited
      // page's own visit. Parent chains then walk strictly back in visit
      // time, so the synthesized admits can never cycle.
      auto src_visit = visited_at.find(src);
      if (src_visit == visited_at.end()) continue;
      auto dst_visit = visited_at.find(dst);
      if (dst_visit != visited_at.end() &&
          src_visit->second >= dst_visit->second) {
        continue;
      }
      first_citer.try_emplace(dst, src);
    }
    FOCUS_RETURN_IF_ERROR(link_it.status());
  }
  auto emit_reconciled = [&](const CrawlRecord& rec) {
    if (elog == nullptr) return;
    auto citer = first_citer.find(rec.oid);
    int64_t parent = citer == first_citer.end()
                         ? -1
                         : static_cast<int64_t>(citer->second);
    elog->Record(obs::CrawlEventType::kFrontierAdmit,
                 static_cast<int64_t>(rec.oid), parent, rec.sid,
                 /*virtual_us=*/-1, rec.relevance, /*aux=*/0,
                 /*reconciled=*/true);
    if (rec.numtries > 0 || rec.visited) {
      // One summary event for the lost attempt history: a visited row
      // proves a successful attempt even when numtries (the durable
      // retry budget consumed) is still zero.
      elog->Record(obs::CrawlEventType::kFetchAttempt,
                   static_cast<int64_t>(rec.oid), /*parent_oid=*/-1,
                   rec.sid, /*virtual_us=*/-1, rec.relevance,
                   /*aux=*/rec.numtries, /*reconciled=*/true);
    }
    if (rec.visited) {
      elog->Record(obs::CrawlEventType::kFetchSuccess,
                   static_cast<int64_t>(rec.oid), /*parent_oid=*/-1,
                   rec.sid, rec.lastvisited, /*value=*/0.0,
                   /*aux=*/rec.numtries, /*reconciled=*/true);
      elog->Record(obs::CrawlEventType::kClassifyVerdict,
                   static_cast<int64_t>(rec.oid), /*parent_oid=*/-1,
                   rec.sid, rec.lastvisited, rec.relevance,
                   /*aux=*/static_cast<int64_t>(rec.kcid),
                   /*reconciled=*/true);
    } else if (rec.numtries >= options_.max_retries) {
      elog->Record(obs::CrawlEventType::kUrlDropped,
                   static_cast<int64_t>(rec.oid), /*parent_oid=*/-1,
                   rec.sid, /*virtual_us=*/-1, /*value=*/0.0,
                   /*aux=*/static_cast<int64_t>(FailureClass::kTransient),
                   /*reconciled=*/true);
    } else if (rec.next_retry_us > 0) {
      elog->Record(obs::CrawlEventType::kRetryScheduled,
                   static_cast<int64_t>(rec.oid), /*parent_oid=*/-1,
                   rec.sid, /*virtual_us=*/-1, /*value=*/0.0,
                   /*aux=*/rec.next_retry_us, /*reconciled=*/true);
    }
  };
  uint64_t restored = 0;
  int64_t max_visit_us = 0;
  url_state_.reserve(records.size());
  for (const CrawlRecord& rec : records) {
    emit_reconciled(rec);
    url_state_.emplace(rec.oid, UrlState{rec.relevance, /*backlinks=*/0,
                                         rec.visited});
    if (rec.visited) {
      ++server_fetches_[rec.sid];
      max_visit_us = std::max(max_visit_us, rec.lastvisited);
      continue;
    }
    if (rec.numtries >= options_.max_retries) continue;  // dead link
    FrontierEntry entry;
    entry.oid = rec.oid;
    entry.url = rec.url;
    entry.numtries = rec.numtries;
    entry.relevance = rec.relevance;
    entry.serverload = rec.serverload;
    entry.lastvisited = rec.lastvisited;
    entry.ready_at_us = rec.next_retry_us;  // keep the backoff schedule
    frontier_.AddOrUpdate(entry);
    ++restored;
  }
  // Rejoin the dead crawl's virtual timeline so restored not-before times
  // (absolute virtual us) stay meaningful.
  if (max_visit_us > clock_.NowMicros()) {
    clock_.AdvanceMicros(max_visit_us - clock_.NowMicros());
  }
  FOCUS_ASSIGN_OR_RETURN(std::vector<BreakerRecord> breakers,
                         db_->LoadBreakers());
  for (const BreakerRecord& rec : breakers) breaker_.Restore(rec);
  if (!breakers.empty()) {
    stage_metrics_->SetOpenBreakers(
        static_cast<double>(breaker_.open_count()));
  }
  FOCUS_LOG(Info, "resumed crawl: ", restored, " frontier entries, ",
            visited_at.size(), " pages already visited, ",
            links_recorded_.size(), " pages with recorded links, ",
            breakers.size(), " breaker records");
  return Status::OK();
}

Status Crawler::ScheduleRevisits(const sql::Table* hubs, int count) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  // Hub scores by oid, when a distillation round is available.
  std::unordered_map<int64_t, double> hub_score;
  if (hubs != nullptr) {
    auto it = hubs->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      hub_score[row.Get(0).AsInt64()] = row.Get(1).AsDouble();
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  // Collect visited pages, stalest first, best hubs first within a tie.
  std::vector<CrawlRecord> visited;
  {
    auto it = db_->crawl_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      CrawlRecord rec = CrawlDb::RecordFromTuple(row);
      if (rec.visited) visited.push_back(std::move(rec));
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  auto score_of = [&](const CrawlRecord& r) {
    auto it = hub_score.find(static_cast<int64_t>(r.oid));
    return it == hub_score.end() ? 0.0 : it->second;
  };
  std::sort(visited.begin(), visited.end(),
            [&](const CrawlRecord& a, const CrawlRecord& b) {
              if (a.lastvisited != b.lastvisited) {
                return a.lastvisited < b.lastvisited;
              }
              return score_of(a) > score_of(b);
            });
  int scheduled = 0;
  for (const CrawlRecord& rec : visited) {
    if (scheduled >= count) break;
    FrontierEntry entry;
    entry.oid = rec.oid;
    entry.url = rec.url;
    entry.numtries = rec.numtries;
    entry.relevance = rec.relevance;
    entry.serverload = rec.serverload;
    entry.lastvisited = rec.lastvisited;
    entry.hub_score = score_of(rec);
    frontier_.AddOrUpdate(entry);
    ++scheduled;
  }
  options_.max_fetches += scheduled;
  frontier_.SetPolicy(PriorityPolicy::kRevisitHubs);
  return Status::OK();
}

Crawler::GatheredBatch Crawler::GatherBatch(int worker,
                                            VirtualClock* worker_clock) {
  GatheredBatch out;
  out.entries.reserve(options_.classify_batch_size);
  int shard = worker % frontier_.num_shards();
  // A budget slot reserved but not yet bound to a batch entry, and whether
  // it held a breaker-parked entry meanwhile (such a slot is released only
  // under state_mutex_; see budget_used_).
  bool holding_slot = false;
  bool slot_parked = false;
  while (static_cast<int>(out.entries.size()) < options_.classify_batch_size) {
    if (!holding_slot) {
      int used = budget_used_.load();
      while (used < options_.max_fetches &&
             !budget_used_.compare_exchange_weak(used, used + 1)) {
      }
      if (used >= options_.max_fetches) break;
      holding_slot = true;
    }
    bool stolen = false;
    int64_t now = worker_clock->NowMicros();
    std::optional<FrontierEntry> entry =
        frontier_.PopPreferShard(shard, now, &stolen);
    if (!entry.has_value()) break;
    if (options_.breaker.enabled) {
      BreakerOutcome adm = breaker_.Admit(ServerIdOf(entry->url), now);
      NoteBreakerOutcome(adm);
      if (!adm.allow) {
        // Quarantined server: re-park until the breaker's next
        // probe/cooldown deadline (never earlier than now + 1, so the pop
        // loop cannot spin). The slot is reused for the next pop.
        if (options_.event_log != nullptr) {
          options_.event_log->Record(obs::CrawlEventType::kBreakerDenied,
                                     static_cast<int64_t>(entry->oid),
                                     /*parent_oid=*/-1,
                                     ServerIdOf(entry->url), now,
                                     /*value=*/0.0,
                                     /*aux=*/adm.retry_at_us);
        }
        FrontierEntry parked = std::move(*entry);
        parked.ready_at_us = std::max(adm.retry_at_us, now + 1);
        frontier_.AddOrUpdate(parked);
        slot_parked = true;
        ++out.breaker_skips;
        continue;
      }
    }
    stage_metrics_->RecordPop(stolen);
    out.entries.push_back(std::move(*entry));
    holding_slot = false;
    slot_parked = false;
  }
  if (holding_slot && !slot_parked) budget_used_.fetch_sub(1);
  out.parked_slot = holding_slot && slot_parked;
  if (out.breaker_skips > 0) {
    stage_metrics_->RecordBreakerSkips(out.breaker_skips);
  }
  return out;
}

std::unique_lock<std::mutex> Crawler::TimedLock(std::mutex& mu,
                                                CrawlLock lock) {
  Stopwatch wait;
  std::unique_lock<std::mutex> guard(mu);
  stage_metrics_->AddLockWaitMicros(
      lock, static_cast<uint64_t>(wait.ElapsedMicros()));
  return guard;
}

void Crawler::ComputeLinkKeys(std::vector<FetchedPage>* pages) const {
  for (FetchedPage& page : *pages) {
    page.oid = UrlOid(page.fetch.url);
    page.sid = ServerIdOf(page.fetch.url);
    page.outlinks.resize(page.fetch.outlink_urls.size());
    for (size_t i = 0; i < page.outlinks.size(); ++i) {
      const std::string& dst = page.fetch.outlink_urls[i];
      OutLink& link = page.outlinks[i];
      link.oid = UrlOid(dst);
      link.sid = ServerIdOf(dst);
      if (options_.try_truncated_urls) {
        std::string root = TruncateToHostRoot(dst);
        if (root != dst) {
          link.root_oid = UrlOid(root);
          link.root = std::move(root);
        }
      }
    }
  }
}

Status Crawler::RecordLinks(const std::vector<FetchedPage>& pages) {
  FOCUS_SPAN("crawl.record_links");
  std::unique_lock<std::mutex> lock = TimedLock(link_mutex_, CrawlLock::kLink);
  Stopwatch link_timer;
  for (const FetchedPage& page : pages) {
    // The LINK table records the crawl graph regardless of the expansion
    // decision, once per page: revisits must not duplicate edges.
    if (!links_recorded_.insert(page.oid).second) continue;
    for (const OutLink& link : page.outlinks) {
      FOCUS_RETURN_IF_ERROR(
          db_->AddLink(page.oid, page.sid, link.oid, link.sid));
    }
  }
  stage_metrics_->AddLinkMicros(
      static_cast<uint64_t>(link_timer.ElapsedMicros()));
  return Status::OK();
}

Status Crawler::RecordBatch(std::vector<FetchedPage>* pages,
                            const std::vector<PageJudgment>& judgments) {
  FOCUS_SPAN("crawl.record_batch");
  std::unique_lock<std::mutex> lock =
      TimedLock(state_mutex_, CrawlLock::kState);
  Stopwatch expand_timer;
  // Each page's budget slot becomes its visit: budget_used_ is unchanged.
  stats_.attempts += pages->size();
  for (size_t i = 0; i < pages->size(); ++i) {
    FetchedPage& page = (*pages)[i];
    const PageJudgment& judgment = judgments[i];
    const uint64_t oid = page.oid;
    FOCUS_RETURN_IF_ERROR(db_->RecordVisit(oid, judgment.relevance,
                                           judgment.best_leaf,
                                           page.fetched_at_us));
    UrlState& state = url_state_[oid];
    state.relevance = judgment.relevance;
    state.visited = true;
    ++server_fetches_[page.fetch.server_id];
    Visit visit;
    visit.fetch_index = static_cast<int>(visits_.size());
    visit.oid = oid;
    visit.url = page.fetch.url;
    visit.relevance = judgment.relevance;
    visit.best_leaf = judgment.best_leaf;
    visit.virtual_time_us = page.fetched_at_us;
    visits_.push_back(visit);
    stage_metrics_->RecordVisitRelevance(judgment.relevance);
    if (options_.event_log != nullptr) {
      options_.event_log->Record(obs::CrawlEventType::kClassifyVerdict,
                                 static_cast<int64_t>(oid),
                                 /*parent_oid=*/-1, page.sid,
                                 page.fetched_at_us, judgment.relevance,
                                 /*aux=*/static_cast<int64_t>(
                                     judgment.best_leaf));
    }

    FOCUS_RETURN_IF_ERROR(ExpandLinks(page, judgment));

    if (options_.expand_backlinks &&
        judgment.relevance > options_.backlink_relevance_threshold) {
      FOCUS_ASSIGN_OR_RETURN(
          std::vector<std::string> citers,
          web_->Backlinks(page.fetch.url, options_.backlinks_per_page));
      for (const std::string& citer : citers) {
        if (options_.link_sink != nullptr &&
            !options_.link_sink->Owns(citer)) {
          FOCUS_RETURN_IF_ERROR(ExportRemoteLink(oid, citer,
                                                 judgment.relevance,
                                                 /*raise_if_known=*/false));
          continue;
        }
        uint64_t citer_oid = UrlOid(citer);
        if (url_state_.contains(citer_oid)) continue;
        FOCUS_RETURN_IF_ERROR(AdmitUnknownUrl(
            citer, citer_oid, ServerIdOf(citer), judgment.relevance,
            /*backlinks=*/0, static_cast<int64_t>(oid), page.fetched_at_us,
            /*aux=*/2));
      }
    }
  }
  Status boosts = RunPeriodicBoosts();
  Status flush = FlushBreakerState();
  // Pipeline batch boundary: everything this record/expand critical
  // section wrote becomes one durable WAL commit (no-op without a WAL),
  // together with whatever LINK rows link sections have written so far.
  Status commit = CommitBatch();
  stage_metrics_->AddExpandMicros(
      static_cast<uint64_t>(expand_timer.ElapsedMicros()));
  stage_metrics_->SetFrontierDepth(static_cast<double>(frontier_.size()));
  lock.unlock();
  work_cv_.notify_all();
  if (!boosts.ok()) return boosts;
  if (!flush.ok()) return flush;
  return commit;
}

Status Crawler::PipelineWorker(int worker, VirtualClock* worker_clock) {
  for (;;) {
    if (abort_.load()) return Status::OK();
    if (options_.interrupt) {
      // Scheduled shard deaths (dist::ShardFaultPlan) land between durable
      // batches, like any other crash point.
      FOCUS_RETURN_IF_ERROR(options_.interrupt(worker_clock->NowMicros()));
    }
    GatheredBatch gathered = GatherBatch(worker, worker_clock);
    if (gathered.breaker_skips > 0) {
      std::lock_guard<std::mutex> lock(state_mutex_);
      stats_.breaker_skips += gathered.breaker_skips;
      if (gathered.parked_slot) budget_used_.fetch_sub(1);
    }
    std::vector<FrontierEntry>& batch = gathered.entries;
    if (batch.empty()) {
      std::unique_lock<std::mutex> lock(state_mutex_);
      const int visits = static_cast<int>(visits_.size());
      if (visits >= options_.max_fetches) {
        return Status::OK();  // budget spent
      }
      // The frontier is read before the budget counter: a page popped
      // before this read holds a slot that is still counted below (see
      // budget_used_).
      const bool frontier_empty = frontier_.empty();
      if (budget_used_.load() == visits) {
        if (frontier_empty) {
          // Nothing left anywhere and nothing pending that could add
          // links: the crawl stagnated short of its budget.
          stats_.stagnated = true;
          return Status::OK();
        }
        // Entries exist but none is ready at this worker's virtual time
        // (backoff or breaker quarantine): fast-forward to the earliest
        // deadline instead of spinning.
        std::optional<int64_t> at = frontier_.NextReadyMicros();
        int64_t now = worker_clock->NowMicros();
        if (at.has_value() && *at > now) {
          worker_clock->AdvanceMicros(*at - now);
        }
        continue;
      }
      // Other workers hold in-flight pages that may expand the frontier
      // or release budget; wait for them.
      work_cv_.wait_for(lock, std::chrono::milliseconds(1));
      continue;
    }

    // --- fetch stage (no locks; latency charged to this worker's virtual
    // timeline, so concurrent workers overlap fetch waits exactly like the
    // paper's ~30 fetch threads) ---
    std::vector<FetchedPage> fetched;
    fetched.reserve(batch.size());
    struct FailedFetch {
      FrontierEntry entry;
      Status error;
      int64_t at_us;
    };
    std::vector<FailedFetch> failures;
    Stopwatch fetch_timer;
    {
      FOCUS_SPAN_VT("crawl.fetch_batch", worker_clock);
      for (FrontierEntry& entry : batch) {
        int32_t sid = ServerIdOf(entry.url);
        if (options_.event_log != nullptr) {
          options_.event_log->Record(obs::CrawlEventType::kFetchAttempt,
                                     static_cast<int64_t>(entry.oid),
                                     /*parent_oid=*/-1, sid,
                                     worker_clock->NowMicros(),
                                     entry.relevance,
                                     /*aux=*/entry.numtries + 1);
        }
        // Attempts are numbered from durable state (numtries) so a crashed
        // crawler's refetch of an attempt whose bookkeeping was lost
        // replays the same outcome — the visited set becomes a
        // deterministic fixpoint ResumeFromDb can converge to
        // (tests/robustness_test.cc). An explicit attempt also makes Fetch
        // safe to call concurrently.
        Result<webgraph::SimulatedWeb::FetchResult> result =
            web_->Fetch(entry.url, worker_clock, entry.numtries + 1);
        if (!result.ok()) {
          if (options_.breaker.enabled) {
            NoteBreakerOutcome(
                breaker_.OnFailure(sid, worker_clock->NowMicros()));
          }
          failures.push_back(FailedFetch{std::move(entry), result.status(),
                                         worker_clock->NowMicros()});
          continue;
        }
        if (options_.breaker.enabled) {
          NoteBreakerOutcome(breaker_.OnSuccess(sid));
        }
        if (options_.event_log != nullptr) {
          options_.event_log->Record(obs::CrawlEventType::kFetchSuccess,
                                     static_cast<int64_t>(entry.oid),
                                     /*parent_oid=*/-1, sid,
                                     worker_clock->NowMicros(),
                                     /*value=*/0.0,
                                     /*aux=*/entry.numtries + 1);
        }
        FetchedPage page;
        page.entry = std::move(entry);
        page.fetch = result.TakeValue();
        page.fetched_at_us = worker_clock->NowMicros();
        fetched.push_back(std::move(page));
      }
    }
    stage_metrics_->AddFetchMicros(
        static_cast<uint64_t>(fetch_timer.ElapsedMicros()));

    if (!failures.empty()) {
      // Failure bookkeeping in one short critical section; successful
      // pages are counted when RecordBatch records them.
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        stats_.attempts += failures.size();
        for (const FailedFetch& failure : failures) {
          FOCUS_RETURN_IF_ERROR(HandleFetchFailure(
              failure.entry, failure.error, failure.at_us));
        }
        FOCUS_RETURN_IF_ERROR(FlushBreakerState());
        budget_used_.fetch_sub(static_cast<int>(failures.size()));
      }
      work_cv_.notify_all();
    }
    if (fetched.empty()) continue;

    // --- classify stage (no locks; one batched evaluator call) ---
    std::vector<text::TermVector> docs;
    docs.reserve(fetched.size());
    for (FetchedPage& page : fetched) {
      docs.push_back(text::BuildTermVector(page.fetch.tokens));
      // Record/expand reads only the URL and outlinks: drop the page text
      // now rather than holding it through classification.
      std::vector<std::string>().swap(page.fetch.tokens);
    }
    ComputeLinkKeys(&fetched);
    Stopwatch classify_timer;
    auto judged = [&] {
      FOCUS_SPAN_VT("crawl.classify_batch", worker_clock);
      return evaluator_->JudgeBatch(docs);
    }();
    uint64_t classify_micros =
        static_cast<uint64_t>(classify_timer.ElapsedMicros());
    stage_metrics_->AddClassifyMicros(classify_micros);
    stage_metrics_->RecordBatch(fetched.size());
    stage_metrics_->ObserveClassifyBatchMicros(classify_micros);
    if (!judged.ok()) {
      budget_used_.fetch_sub(static_cast<int>(fetched.size()));
      work_cv_.notify_all();
      return judged.status();
    }

    // --- link stage (link lock), then record/expand stage (state lock) ---
    FOCUS_RETURN_IF_ERROR(RecordLinks(fetched));
    FOCUS_RETURN_IF_ERROR(RecordBatch(&fetched, judged.value()));
  }
}

Status Crawler::RunPipeline() {
  std::mutex status_mutex;
  Status first_error;
  // Workers continue the crawl's virtual timeline (nonzero after a resume
  // or an earlier Crawl() call) so absolute not-before times line up.
  const int64_t base_us = clock_.NowMicros();
  budget_used_.store(static_cast<int>(visits_.size()));
  std::vector<VirtualClock> worker_clocks(options_.num_threads);
  for (VirtualClock& c : worker_clocks) c.AdvanceMicros(base_us);
  auto run_worker = [this, &status_mutex, &first_error,
                     &worker_clocks](int i) {
    Status s = PipelineWorker(i, &worker_clocks[i]);
    if (!s.ok()) {
      {
        std::lock_guard<std::mutex> lock(status_mutex);
        if (first_error.ok()) first_error = std::move(s);
      }
      // Stop peers: a failed worker may never release its budget slots,
      // so waiting on them would hang the pool.
      abort_.store(true);
      work_cv_.notify_all();
    }
  };
  if (options_.num_threads == 1) {
    // The lone worker runs on the calling thread: a pool thread per
    // Crawl() call costs its own malloc arena (with glibc, ~8 MiB more
    // peak RSS over a 4-shard, one-thread-per-shard DistCrawl).
    run_worker(0);
  } else {
    ThreadPool pool(options_.num_threads);
    for (int i = 0; i < options_.num_threads; ++i) {
      pool.Submit([&run_worker, i] { run_worker(i); });
    }
    pool.Wait();
  }
  // The crawl's virtual makespan is the slowest worker's timeline (workers
  // fetch concurrently, so their waits overlap).
  int64_t makespan = base_us;
  for (const VirtualClock& c : worker_clocks) {
    makespan = std::max(makespan, c.NowMicros());
  }
  clock_.AdvanceMicros(makespan - base_us);
  return first_error;
}

Status Crawler::Crawl() {
  Status result = RunPipeline();
  // Persist any breaker transitions still queued (e.g. from the last
  // successful fetches) so a resume sees the final quarantine state.
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    Status flush = FlushBreakerState();
    if (result.ok()) result = flush;
    Status commit = CommitBatch();
    if (result.ok()) result = commit;
  }
  return result;
}

}  // namespace focus::crawl
