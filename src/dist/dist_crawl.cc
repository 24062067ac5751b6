#include "dist/dist_crawl.h"

#include <algorithm>
#include <thread>
#include <tuple>

#include "distill/distiller.h"
#include "distill/join_distiller.h"
#include "storage/crash_fault_disk.h"

namespace focus::dist {

bool IsShardDeath(const Status& status) {
  if (status.ok()) return false;
  const std::string& m = status.message();
  return m.find(storage::kCrashMessage) != std::string::npos ||
         m.find(kShardDeathMessage) != std::string::npos;
}

DistCrawl::DistCrawl(webgraph::SimulatedWeb* web,
                     crawl::RelevanceEvaluator* evaluator,
                     DistCrawlOptions options)
    : web_(web),
      evaluator_(evaluator),
      options_(std::move(options)),
      router_(options_.num_shards),
      exchange_(options_.num_shards),
      queue_depth_(static_cast<size_t>(options_.num_shards), 0) {
  int threads = std::min<int>(
      options_.num_shards,
      std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

DistCrawl::~DistCrawl() = default;

Result<std::unique_ptr<DistCrawl>> DistCrawl::Create(
    webgraph::SimulatedWeb* web, crawl::RelevanceEvaluator* evaluator,
    DistCrawlOptions options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  auto dc = std::unique_ptr<DistCrawl>(
      new DistCrawl(web, evaluator, std::move(options)));
  int n = dc->options_.num_shards;
  if (!dc->options_.store_provider) {
    dc->default_devices_.resize(static_cast<size_t>(n));
    DistCrawl* self = dc.get();
    dc->options_.store_provider = [self](int shard,
                                         int /*boot*/) -> Result<ShardDevices> {
      DefaultDevices& d = self->default_devices_[static_cast<size_t>(shard)];
      if (d.data == nullptr) {
        d.data = std::make_unique<storage::MemDiskManager>();
        d.log = std::make_unique<storage::MemDiskManager>();
      }
      return ShardDevices{d.data.get(), d.log.get()};
    };
  }
  for (int s = 0; s < n; ++s) {
    auto shard = std::make_unique<Shard>();
    if (dc->options_.enable_event_logs) {
      shard->log = std::make_unique<obs::EventLog>();
      shard->log->Enable(dc->options_.event_ring_capacity);
      shard->log->SetShardId(s);
    }
    if (n > 1) {
      shard->endpoint = std::make_unique<ExchangeEndpoint>(&dc->router_, s);
    }
    dc->shards_.push_back(std::move(shard));
  }
  for (int s = 0; s < n; ++s) {
    FOCUS_RETURN_IF_ERROR(dc->BootShard(s));
  }
  dc->PublishMetrics();
  return dc;
}

Status DistCrawl::BootShard(int s) {
  Shard& sh = *shards_[static_cast<size_t>(s)];
  // Teardown in dependency order; the durable state lives in the provider's
  // devices, exactly like disk platters surviving a power cut.
  sh.crawler.reset();
  sh.db.reset();
  sh.catalog.reset();
  sh.pool.reset();
  sh.wal.reset();
  FOCUS_ASSIGN_OR_RETURN(ShardDevices dev,
                         options_.store_provider(s, sh.boots));
  if (dev.data == nullptr || dev.log == nullptr) {
    return Status::InvalidArgument("store provider returned a null device");
  }
  // Recovery: replay the shard's redo log to its last durable batch.
  FOCUS_ASSIGN_OR_RETURN(
      sh.wal,
      storage::WalDiskManager::Open(dev.data, dev.log, options_.wal_options));
  if (sh.log != nullptr) sh.wal->BindEventLog(sh.log.get());
  sh.pool = std::make_unique<storage::BufferPool>(
      sh.wal.get(), options_.buffer_frames, options_.pool_options);
  sh.catalog = std::make_unique<sql::Catalog>(sh.pool.get());
  FOCUS_ASSIGN_OR_RETURN(crawl::CrawlDb db,
                         crawl::CrawlDb::Open(sh.catalog.get(), sh.wal.get()));
  sh.db = std::make_unique<crawl::CrawlDb>(std::move(db));
  FOCUS_RETURN_IF_ERROR(sh.db->EnableExchange());
  if (sh.endpoint != nullptr) sh.endpoint->Bind(sh.db.get());

  crawl::CrawlerOptions copts = options_.crawler;
  copts.event_log = sh.log.get();
  copts.metrics_registry = options_.metrics_registry;
  copts.link_sink = sh.endpoint.get();
  if (options_.fault_plan != nullptr) {
    ShardFaultPlan* plan = options_.fault_plan;
    copts.interrupt = [plan, s](int64_t now_us) {
      return plan->Check(s, now_us);
    };
  }
  sh.crawler = std::make_unique<crawl::Crawler>(web_, evaluator_, sh.db.get(),
                                                sh.catalog.get(), copts);
  if (sh.boots > 0) {
    FOCUS_RETURN_IF_ERROR(sh.crawler->ResumeFromDb());
  }
  ++sh.boots;
  return Status::OK();
}

Status DistCrawl::RestartShard(int s, const Status& death) {
  Shard& sh = *shards_[static_cast<size_t>(s)];
  if (sh.log != nullptr) {
    // value 1 = storage-level death (poisoned device), 0 = scheduled kill.
    double storage_death =
        death.message().find(storage::kCrashMessage) != std::string::npos
            ? 1.0
            : 0.0;
    sh.log->Record(obs::CrawlEventType::kShardDeath, /*oid=*/-1,
                   /*parent_oid=*/-1, /*sid=*/-1, /*virtual_us=*/-1,
                   storage_death, /*aux=*/sh.boots - 1);
  }
  if (total_restarts() >= options_.max_restarts) {
    return Status::Internal("shard restart budget exhausted");
  }
  ++sh.restarts;
  FOCUS_RETURN_IF_ERROR(BootShard(s));
  if (sh.log != nullptr) {
    sh.log->Record(obs::CrawlEventType::kShardRestart, /*oid=*/-1,
                   /*parent_oid=*/-1, /*sid=*/-1, /*virtual_us=*/-1,
                   /*value=*/static_cast<double>(sh.crawler->frontier()->size()),
                   /*aux=*/sh.boots - 1);
  }
  return Status::OK();
}

Status DistCrawl::AddSeed(std::string_view url) {
  int s = router_.ShardOfUrl(url);
  Shard& sh = *shards_[static_cast<size_t>(s)];
  FOCUS_RETURN_IF_ERROR(sh.crawler->AddSeed(url));
  // A seed must survive a shard death that precedes the first crawl batch.
  return sh.db->Commit();
}

void DistCrawl::ForEachShard(const std::function<void(int)>& fn) {
  int n = num_shards();
  if (pool_ == nullptr) {
    for (int s = 0; s < n; ++s) fn(s);
    return;
  }
  for (int s = 0; s < n; ++s) {
    pool_->Submit([&fn, s] { fn(s); });
  }
  pool_->Wait();
}

Status DistCrawl::HandleDeath(int s, const Status& status, bool* progress) {
  if (status.ok()) return Status::OK();
  if (!IsShardDeath(status)) return status;
  *progress = true;
  return RestartShard(s, status);
}

Status DistCrawl::CrawlPhase(bool* progress) {
  const size_t n = static_cast<size_t>(num_shards());
  std::vector<uint64_t> before(n);
  for (size_t s = 0; s < n; ++s) {
    before[s] = shards_[s]->crawler->stats().attempts;
  }
  std::vector<Status> status(n);
  ForEachShard([this, &status](int s) {
    status[static_cast<size_t>(s)] =
        shards_[static_cast<size_t>(s)]->crawler->Crawl();
  });
  for (size_t s = 0; s < n; ++s) {
    FOCUS_RETURN_IF_ERROR(
        HandleDeath(static_cast<int>(s), status[s], progress));
    if (status[s].ok() && shards_[s]->crawler->stats().attempts != before[s]) {
      *progress = true;
    }
  }
  return Status::OK();
}

Status DistCrawl::DeliveryPhase(bool* progress) {
  const size_t n = static_cast<size_t>(num_shards());
  std::vector<crawl::CrawlDb*> dbs(n);
  for (size_t s = 0; s < n; ++s) dbs[s] = shards_[s]->db.get();
  LinkExchange::ReadResult read = exchange_.Read(dbs);
  std::vector<LinkExchange::ApplyResult> applied(n);
  ForEachShard([this, &read, &applied](int dst) {
    size_t d = static_cast<size_t>(dst);
    if (!read.status[d].ok()) return;
    Shard& sh = *shards_[d];
    applied[d] = LinkExchange::Apply(read.inboxes[d], sh.db.get(),
                                     sh.crawler.get(), sh.log.get());
  });
  for (size_t dst = 0; dst < n; ++dst) {
    exchange_.AddApplied(applied[dst]);
    if (applied[dst].delivered > 0) *progress = true;
  }
  // Messages read but not applied (their destination failed) stay queued;
  // a source whose OUTBOX could not be read keeps its last depth.
  for (size_t src = 0; src < n; ++src) {
    if (!read.status[src].ok()) continue;
    int64_t depth = 0;
    for (size_t dst = 0; dst < n; ++dst) {
      depth += static_cast<int64_t>(read.inboxes[dst][src].size());
      if (!applied[dst].delivered_from.empty()) {
        depth -= static_cast<int64_t>(applied[dst].delivered_from[src]);
      }
    }
    queue_depth_[src] = depth;
  }
  for (size_t s = 0; s < n; ++s) {
    const Status& failure =
        read.status[s].ok() ? applied[s].status : read.status[s];
    FOCUS_RETURN_IF_ERROR(
        HandleDeath(static_cast<int>(s), failure, progress));
  }
  return Status::OK();
}

Status DistCrawl::RunToFixpoint() {
  for (int round = 0; round < options_.max_rounds; ++round) {
    bool progress = false;
    FOCUS_RETURN_IF_ERROR(CrawlPhase(&progress));
    FOCUS_RETURN_IF_ERROR(DeliveryPhase(&progress));
    PublishMetrics();
    // A full round with no attempts, no deliveries and no restarts means
    // every frontier is dry and every watermark equals its outbox tail.
    if (!progress) return Status::OK();
  }
  return Status::Internal("distributed crawl did not reach a fixpoint");
}

int DistCrawl::total_restarts() const {
  int total = 0;
  for (const auto& sh : shards_) total += sh->restarts;
  return total;
}

Result<std::map<std::string, double>> DistCrawl::VisitedRelevance() const {
  std::map<std::string, double> out;
  for (const auto& sh : shards_) {
    auto it = sh->db->crawl_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      crawl::CrawlRecord rec = crawl::CrawlDb::RecordFromTuple(row);
      if (rec.visited) out[rec.url] = rec.relevance;
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  return out;
}

Result<double> DistCrawl::HarvestRate(double threshold) const {
  FOCUS_ASSIGN_OR_RETURN(auto visited, VisitedRelevance());
  if (visited.empty()) return 0.0;
  uint64_t relevant = 0;
  for (const auto& [url, relevance] : visited) {
    if (relevance >= threshold) ++relevant;
  }
  return static_cast<double>(relevant) / static_cast<double>(visited.size());
}

Result<GlobalDistillResult> DistCrawl::GlobalDistill(
    const distill::HitsOptions& hits) const {
  // A fresh in-memory database receives the union in canonical order
  // (rows by oid, edges by (src, dst)), so the merged physical state — and
  // therefore every floating-point operation of the distillation — is
  // independent of the shard count and of delivery interleavings.
  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, options_.buffer_frames);
  sql::Catalog catalog(&pool);
  FOCUS_ASSIGN_OR_RETURN(crawl::CrawlDb mdb, crawl::CrawlDb::Create(&catalog));

  std::map<uint64_t, crawl::CrawlRecord> rows;
  for (const auto& sh : shards_) {
    auto it = sh->db->crawl_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      crawl::CrawlRecord rec = crawl::CrawlDb::RecordFromTuple(row);
      auto [mit, inserted] = rows.emplace(rec.oid, rec);
      if (inserted) continue;
      // Ownership partitions CRAWL cleanly, but merge defensively: a
      // visited row wins; between unvisited rows the best estimate wins.
      if (rec.visited && !mit->second.visited) {
        mit->second = rec;
      } else if (!rec.visited && !mit->second.visited) {
        mit->second.relevance = std::max(mit->second.relevance, rec.relevance);
      }
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  for (const auto& [oid, rec] : rows) {
    FOCUS_RETURN_IF_ERROR(mdb.AddUrl(rec.url, rec.relevance, rec.serverload));
    if (rec.visited) {
      FOCUS_RETURN_IF_ERROR(
          mdb.RecordVisit(oid, rec.relevance, rec.kcid, rec.lastvisited));
    }
  }

  using Edge = std::tuple<int64_t, int32_t, int64_t, int32_t>;
  std::vector<Edge> edges;
  for (const auto& sh : shards_) {
    auto it = sh->db->link_table()->Scan();
    storage::Rid rid;
    sql::Tuple row;
    while (it.Next(&rid, &row)) {
      edges.emplace_back(row.Get(0).AsInt64(), row.Get(1).AsInt32(),
                         row.Get(2).AsInt64(), row.Get(3).AsInt32());
    }
    FOCUS_RETURN_IF_ERROR(it.status());
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  for (const Edge& e : edges) {
    FOCUS_RETURN_IF_ERROR(
        mdb.link_table()
            ->Insert(sql::Tuple({sql::Value::Int64(std::get<0>(e)),
                                 sql::Value::Int32(std::get<1>(e)),
                                 sql::Value::Int64(std::get<2>(e)),
                                 sql::Value::Int32(std::get<3>(e)),
                                 sql::Value::Double(0.0),
                                 sql::Value::Double(0.0)}))
            .status());
  }

  distill::DistillTables tables;
  tables.link = mdb.link_table();
  tables.crawl = mdb.crawl_table();
  FOCUS_RETURN_IF_ERROR(distill::CreateHubsAuthTables(&catalog, &tables));
  FOCUS_RETURN_IF_ERROR(mdb.RefreshEdgeWeights());
  distill::JoinDistiller distiller(tables);
  FOCUS_RETURN_IF_ERROR(distiller.Run(hits));

  GlobalDistillResult out;
  out.merged_pages = rows.size();
  out.merged_links = edges.size();
  FOCUS_ASSIGN_OR_RETURN(auto hub_scores,
                         distill::CollectScores(tables.hubs));
  FOCUS_ASSIGN_OR_RETURN(auto auth_scores,
                         distill::CollectScores(tables.auth));
  out.hubs.assign(hub_scores.begin(), hub_scores.end());
  out.auths.assign(auth_scores.begin(), auth_scores.end());
  std::sort(out.hubs.begin(), out.hubs.end());
  std::sort(out.auths.begin(), out.auths.end());
  return out;
}

Result<std::vector<WatermarkAudit>> DistCrawl::AuditExchange() const {
  std::vector<WatermarkAudit> out;
  const size_t n = static_cast<size_t>(num_shards());
  for (size_t src = 0; src < n; ++src) {
    FOCUS_ASSIGN_OR_RETURN(
        auto by_dst,
        shards_[src]->db->ReadOutbox(std::vector<int64_t>(n, 0)));
    for (size_t dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      WatermarkAudit a;
      a.src_shard = static_cast<int>(src);
      a.dst_shard = static_cast<int>(dst);
      FOCUS_ASSIGN_OR_RETURN(
          a.watermark, shards_[dst]->db->ExchangeWatermark(a.src_shard));
      for (const crawl::ExchangeLink& msg : by_dst[dst]) {
        a.outbox_high = std::max(a.outbox_high, msg.seq);
        if (msg.seq > a.watermark) ++a.pending;
      }
      out.push_back(a);
    }
  }
  return out;
}

void DistCrawl::PublishMetrics() {
  obs::MetricsRegistry* reg =
      obs::MetricsRegistry::OrGlobal(options_.metrics_registry);
  reg->SetHelp("focus_shard_frontier_depth",
               "Live frontier entries per crawl shard");
  reg->SetHelp("focus_shard_exchange_queue_depth",
               "Outbox messages not yet applied by their owner shard");
  reg->SetHelp("focus_shard_restarts",
               "Shard deaths this supervisor has recovered from");
  reg->SetHelp("focus_shard_exchange_delivered",
               "Cross-shard link admissions applied (replays included)");
  reg->SetHelp("focus_shard_exchange_replays",
               "Redelivered admissions after a destination-shard crash");
  reg->SetHelp("focus_shard_exchange_batches",
               "Committed exchange delivery batches");

  int n = num_shards();
  for (int s = 0; s < n; ++s) {
    const Shard& sh = *shards_[static_cast<size_t>(s)];
    obs::Labels labels{{"shard", std::to_string(s)}};
    // From the last delivery phase's read, not a fresh audit scan.
    reg->GetGauge("focus_shard_exchange_queue_depth", labels)
        ->Set(static_cast<double>(queue_depth_[static_cast<size_t>(s)]));
    reg->GetGauge("focus_shard_frontier_depth", labels)
        ->Set(static_cast<double>(sh.crawler->frontier()->size()));
    reg->GetGauge("focus_shard_restarts", labels)
        ->Set(static_cast<double>(sh.restarts));
  }
  const ExchangeStats& stats = exchange_.stats();
  reg->GetGauge("focus_shard_exchange_delivered")
      ->Set(static_cast<double>(stats.delivered));
  reg->GetGauge("focus_shard_exchange_replays")
      ->Set(static_cast<double>(stats.replayed));
  reg->GetGauge("focus_shard_exchange_batches")
      ->Set(static_cast<double>(stats.batches));
}

}  // namespace focus::dist
