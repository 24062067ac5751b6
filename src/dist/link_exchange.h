// Crash-safe cross-shard link exchange.
//
// Source side: a crawler whose link expansion hits a URL owned by another
// shard journals the admission into its own CrawlDb's OUTBOX table
// (ExchangeEndpoint, a crawl::CrossShardLinkSink). The append rides the
// crawler's ordinary batch commit, so the admission is durable exactly
// when the LINK row that motivated it is.
//
// Delivery side, one supervisor round at a time. LinkExchange::Read reads
// every destination's durable watermarks (XWMARK row per source) and
// scans each source OUTBOX once, bucketing the messages above those
// watermarks by destination. LinkExchange::Apply then delivers one
// destination's inbox: for each source in ascending order it applies the
// messages via Crawler::AdmitRemoteLink and commits the admissions *and*
// the raised watermark as one dst batch. Apply touches only the
// destination's store, so the supervisor runs one Apply per destination
// concurrently. Crash anywhere in a batch reverts dst to the previous
// watermark and the messages redeliver; admissions are idempotent (AddUrl
// dedups by oid, raises are monotone max), so redelivery converges instead
// of duplicating. Nothing is ever dropped: OUTBOX rows are only ever
// filtered by a watermark that was committed together with their
// application.
#ifndef FOCUS_DIST_LINK_EXCHANGE_H_
#define FOCUS_DIST_LINK_EXCHANGE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "crawl/crawl_db.h"
#include "crawl/crawler.h"
#include "dist/shard_router.h"
#include "obs/event_log.h"
#include "util/status.h"

namespace focus::dist {

// Adapts one shard's CrawlDb to the crawler's CrossShardLinkSink.
class ExchangeEndpoint final : public crawl::CrossShardLinkSink {
 public:
  ExchangeEndpoint(const ShardRouter* router, int shard_id)
      : router_(router), shard_id_(shard_id) {}

  // (Re)binds the shard's CrawlDb — called after every restart, when the
  // reopened store yields a new CrawlDb instance.
  void Bind(crawl::CrawlDb* db) { db_ = db; }

  bool Owns(std::string_view url) const override {
    return router_->ShardOfUrl(url) == shard_id_;
  }

  Status ExportLink(uint64_t src_oid, std::string_view dst_url,
                    double relevance, bool raise_if_known) override {
    return db_->AppendOutbox(router_->ShardOfUrl(dst_url), src_oid, dst_url,
                             relevance, raise_if_known);
  }

 private:
  const ShardRouter* router_;
  int shard_id_;
  crawl::CrawlDb* db_ = nullptr;
};

struct ExchangeStats {
  uint64_t delivered = 0;  // messages applied (replays included)
  uint64_t replayed = 0;   // redeliveries after a dst crash: seq at or
                           // below a high mark this process already read
  uint64_t batches = 0;    // committed (src,dst) delivery batches
};

// One round's deliveries for one destination shard, indexed by source
// shard: the messages that source journaled for it above its durable
// watermark for that source, in seq order (empty for itself).
using Inbox = std::vector<std::vector<crawl::ExchangeLink>>;

class LinkExchange {
 public:
  explicit LinkExchange(int num_shards)
      : num_shards_(num_shards),
        read_high_(static_cast<size_t>(num_shards) * num_shards, 0) {}

  struct ReadResult {
    std::vector<Inbox> inboxes;  // indexed by destination shard
    // Per shard: non-OK when its storage failed during the read. A shard
    // whose watermarks could not be read gets an empty inbox; one whose
    // OUTBOX could not be read contributes to no inbox.
    std::vector<Status> status;
  };

  // The read phase of a round: every destination's watermarks, then one
  // OUTBOX scan per source (ascending). `dbs` holds every shard's CrawlDb.
  // Counts replays against the per-pair read marks, so it is not
  // thread-safe; it only reads the stores.
  ReadResult Read(const std::vector<crawl::CrawlDb*>& dbs);

  struct ApplyResult {
    uint64_t delivered = 0;
    uint64_t batches = 0;  // committed (src, dst) batches
    // Messages applied per source shard.
    std::vector<uint64_t> delivered_from;
    Status status;  // the first failure; later sources were not applied
  };

  // The apply phase for one destination (`db`, `crawler`, `log` are its
  // own): for each source in ascending order with pending messages, admits
  // them, raises the watermark and commits once — one durable batch per
  // (src, dst) pair. Touches only the destination's state, so Apply calls
  // for distinct destinations may run concurrently. Stops at the first
  // failure.
  static ApplyResult Apply(const Inbox& inbox, crawl::CrawlDb* db,
                           crawl::Crawler* crawler, obs::EventLog* log);

  // Folds one destination's ApplyResult into the totals.
  void AddApplied(const ApplyResult& applied);

  const ExchangeStats& stats() const { return stats_; }

 private:
  int num_shards_;
  // Highest seq this *process* has read per (src,dst) — survives dst
  // restarts (unlike dst's in-memory state), so a redelivery at or below
  // it is provably a replay of a batch whose commit died.
  std::vector<int64_t> read_high_;
  ExchangeStats stats_;
};

}  // namespace focus::dist

#endif  // FOCUS_DIST_LINK_EXCHANGE_H_
