#include "crawl/crawl_db.h"

#include <algorithm>
#include <cstring>

#include "util/hash.h"
#include "util/string_util.h"

namespace focus::crawl {

using sql::IndexSpec;
using sql::Schema;
using sql::Tuple;
using sql::TypeId;
using sql::Value;

int32_t ServerIdOf(std::string_view url) {
  size_t start = 0;
  if (auto pos = url.find("://"); pos != std::string_view::npos) {
    start = pos + 3;
  }
  size_t end = url.find('/', start);
  std::string_view host = url.substr(
      start, end == std::string_view::npos ? url.size() - start
                                           : end - start);
  // Keep it non-negative so it packs into index keys if ever needed.
  return static_cast<int32_t>(Fnv1a32(host) & 0x7FFFFFFF);
}

std::string TruncateToHostRoot(std::string_view url) {
  size_t start = 0;
  if (auto pos = url.find("://"); pos != std::string_view::npos) {
    start = pos + 3;
  }
  size_t slash = url.find('/', start);
  if (slash == std::string_view::npos) return std::string(url) + "/";
  return std::string(url.substr(0, slash + 1));
}

namespace {
// Schema declarations shared by Create (fresh tables) and Open (reattach
// after recovery): the layout blob persists storage positions only, the
// application re-declares shapes.
Schema CrawlSchema() {
  return Schema({{"oid", TypeId::kInt64},
                 {"url", TypeId::kString},
                 {"sid", TypeId::kInt32},
                 {"numtries", TypeId::kInt32},
                 {"relevance", TypeId::kDouble},
                 {"serverload", TypeId::kInt32},
                 {"lastvisited", TypeId::kInt64},
                 {"kcid", TypeId::kInt32},
                 {"visited", TypeId::kInt32},
                 {"nextretry", TypeId::kInt64}});
}
std::vector<IndexSpec> CrawlIndexes() {
  return {IndexSpec{"by_oid", {0}, {}}};
}
Schema LinkSchema() {
  return Schema({{"oid_src", TypeId::kInt64},
                 {"sid_src", TypeId::kInt32},
                 {"oid_dst", TypeId::kInt64},
                 {"sid_dst", TypeId::kInt32},
                 {"wgt_fwd", TypeId::kDouble},
                 {"wgt_rev", TypeId::kDouble}});
}
std::vector<IndexSpec> LinkIndexes() {
  return {IndexSpec{"by_src", {0}, {}}, IndexSpec{"by_dst", {2}, {}}};
}
Schema BreakerSchema() {
  return Schema({{"sid", TypeId::kInt32},
                 {"state", TypeId::kInt32},
                 {"failures", TypeId::kInt32},
                 {"open_until", TypeId::kInt64},
                 {"cooldown", TypeId::kDouble}});
}
std::vector<IndexSpec> BreakerIndexes() {
  return {IndexSpec{"by_sid", {0}, {}}};
}
Schema OutboxSchema() {
  return Schema({{"seq", TypeId::kInt64},
                 {"dst_shard", TypeId::kInt32},
                 {"src_oid", TypeId::kInt64},
                 {"dst_url", TypeId::kString},
                 {"relevance", TypeId::kDouble},
                 {"raise", TypeId::kInt32}});
}
std::vector<IndexSpec> OutboxIndexes() {
  return {IndexSpec{"by_seq", {0}, {}}};
}
Schema XwmarkSchema() {
  return Schema(
      {{"src_shard", TypeId::kInt32}, {"applied_seq", TypeId::kInt64}});
}
std::vector<IndexSpec> XwmarkIndexes() {
  return {IndexSpec{"by_src", {0}, {}}};
}
}  // namespace

Result<CrawlDb> CrawlDb::Create(sql::Catalog* catalog) {
  CrawlDb db;
  db.catalog_ = catalog;
  FOCUS_ASSIGN_OR_RETURN(
      db.crawl_,
      catalog->CreateTable("CRAWL", CrawlSchema(), CrawlIndexes()));
  FOCUS_ASSIGN_OR_RETURN(
      db.link_, catalog->CreateTable("LINK", LinkSchema(), LinkIndexes()));
  FOCUS_ASSIGN_OR_RETURN(
      db.breaker_,
      catalog->CreateTable("BREAKER", BreakerSchema(), BreakerIndexes()));
  return db;
}

Result<CrawlDb> CrawlDb::Open(sql::Catalog* catalog,
                              storage::WalDiskManager* wal) {
  const std::string& meta = wal->recovered_metadata();
  std::map<std::string, sql::TableLayout> layouts;
  if (!meta.empty()) {
    FOCUS_ASSIGN_OR_RETURN(layouts, sql::Catalog::ParseLayouts(meta));
  }
  bool have_tables = layouts.contains("CRAWL") && layouts.contains("LINK") &&
                     layouts.contains("BREAKER");
  if (!have_tables) {
    if (!layouts.empty()) {
      return Status::IOError(
          "recovered metadata is missing crawl tables (partial catalog)");
    }
    // Fresh store: nothing was ever committed.
    FOCUS_ASSIGN_OR_RETURN(CrawlDb db, Create(catalog));
    db.wal_ = wal;
    return db;
  }
  CrawlDb db;
  db.catalog_ = catalog;
  db.wal_ = wal;
  FOCUS_ASSIGN_OR_RETURN(
      db.crawl_, catalog->AttachTable("CRAWL", CrawlSchema(), CrawlIndexes(),
                                      layouts.at("CRAWL")));
  FOCUS_ASSIGN_OR_RETURN(
      db.link_, catalog->AttachTable("LINK", LinkSchema(), LinkIndexes(),
                                     layouts.at("LINK")));
  FOCUS_ASSIGN_OR_RETURN(
      db.breaker_,
      catalog->AttachTable("BREAKER", BreakerSchema(), BreakerIndexes(),
                           layouts.at("BREAKER")));
  if (layouts.contains("OUTBOX") && layouts.contains("XWMARK")) {
    FOCUS_ASSIGN_OR_RETURN(
        db.outbox_, catalog->AttachTable("OUTBOX", OutboxSchema(),
                                         OutboxIndexes(),
                                         layouts.at("OUTBOX")));
    FOCUS_ASSIGN_OR_RETURN(
        db.xwmark_, catalog->AttachTable("XWMARK", XwmarkSchema(),
                                         XwmarkIndexes(),
                                         layouts.at("XWMARK")));
    // The next seq resumes past the highest durable one, so replayed
    // crawls keep the sequence monotone.
    auto it = db.outbox_->Scan();
    storage::Rid rid;
    Tuple row;
    int64_t max_seq = 0;
    while (it.Next(&rid, &row)) {
      max_seq = std::max(max_seq, row.Get(0).AsInt64());
    }
    FOCUS_RETURN_IF_ERROR(it.status());
    db.next_outbox_seq_ = max_seq + 1;
  }
  return db;
}

Status CrawlDb::EnableExchange() {
  if (outbox_ != nullptr) return Status::OK();
  FOCUS_ASSIGN_OR_RETURN(
      outbox_,
      catalog_->CreateTable("OUTBOX", OutboxSchema(), OutboxIndexes()));
  FOCUS_ASSIGN_OR_RETURN(
      xwmark_,
      catalog_->CreateTable("XWMARK", XwmarkSchema(), XwmarkIndexes()));
  return Status::OK();
}

Status CrawlDb::AppendOutbox(int32_t dst_shard, uint64_t src_oid,
                             std::string_view dst_url, double relevance,
                             bool raise_if_known) {
  if (outbox_ == nullptr) {
    return Status::InvalidArgument("exchange tables not enabled");
  }
  int64_t seq = next_outbox_seq_;
  FOCUS_RETURN_IF_ERROR(
      outbox_
          ->Insert(Tuple({Value::Int64(seq), Value::Int32(dst_shard),
                          Value::Int64(static_cast<int64_t>(src_oid)),
                          Value::Str(std::string(dst_url)),
                          Value::Double(relevance),
                          Value::Int32(raise_if_known ? 1 : 0)}))
          .status());
  next_outbox_seq_ = seq + 1;
  return Status::OK();
}

Result<std::vector<std::vector<ExchangeLink>>> CrawlDb::ReadOutbox(
    const std::vector<int64_t>& after_seq) const {
  if (outbox_ == nullptr) {
    return Status::InvalidArgument("exchange tables not enabled");
  }
  std::vector<std::vector<ExchangeLink>> out(after_seq.size());
  auto it = outbox_->Scan();
  storage::Rid rid;
  std::string_view record;
  while (it.NextRecord(&rid, &record)) {
    // seq (int64) and dst_shard (int32) lead the record, so rows already
    // delivered are skipped without decoding the rest.
    int64_t seq;
    int32_t dst;
    if (record.size() < sizeof(seq) + sizeof(dst)) {
      return Status::OutOfRange(
          StrCat("OUTBOX record of ", record.size(), " bytes"));
    }
    std::memcpy(&seq, record.data(), sizeof(seq));
    std::memcpy(&dst, record.data() + sizeof(seq), sizeof(dst));
    if (dst < 0 || static_cast<size_t>(dst) >= after_seq.size()) continue;
    if (seq <= after_seq[static_cast<size_t>(dst)]) continue;
    FOCUS_ASSIGN_OR_RETURN(Tuple row,
                           Tuple::Deserialize(outbox_->schema(), record));
    ExchangeLink msg;
    msg.seq = seq;
    msg.dst_shard = dst;
    msg.src_oid = static_cast<uint64_t>(row.Get(2).AsInt64());
    msg.dst_url = row.Get(3).AsString();
    msg.relevance = row.Get(4).AsDouble();
    msg.raise_if_known = row.Get(5).AsInt32() != 0;
    out[static_cast<size_t>(dst)].push_back(std::move(msg));
  }
  // The scan ends unpinned; an early return unpins in the destructor.
  FOCUS_RETURN_IF_ERROR(it.status());
  for (std::vector<ExchangeLink>& bucket : out) {
    std::sort(bucket.begin(), bucket.end(),
              [](const ExchangeLink& a, const ExchangeLink& b) {
                return a.seq < b.seq;
              });
  }
  return out;
}

Result<int64_t> CrawlDb::ExchangeWatermark(int32_t src_shard) const {
  if (xwmark_ == nullptr) {
    return Status::InvalidArgument("exchange tables not enabled");
  }
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(
      xwmark_->IndexLookup(0, {Value::Int32(src_shard)}, &rids));
  if (rids.empty()) return int64_t{0};
  Tuple row;
  FOCUS_RETURN_IF_ERROR(xwmark_->Get(rids[0], &row));
  return row.Get(1).AsInt64();
}

Status CrawlDb::SetExchangeWatermark(int32_t src_shard, int64_t seq) {
  if (xwmark_ == nullptr) {
    return Status::InvalidArgument("exchange tables not enabled");
  }
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(
      xwmark_->IndexLookup(0, {Value::Int32(src_shard)}, &rids));
  Tuple row({Value::Int32(src_shard), Value::Int64(seq)});
  if (rids.empty()) return xwmark_->Insert(row).status();
  return xwmark_->Update(rids[0], row);
}

Status CrawlDb::Commit() {
  if (wal_ == nullptr) return Status::OK();
  // Flush-order discipline: dirty pages land in the WAL overlay first,
  // then the group commit logs + syncs them with the catalog layouts.
  FOCUS_RETURN_IF_ERROR(catalog_->buffer_pool()->FlushAll());
  return wal_->Commit(catalog_->SerializeLayouts());
}

Status CrawlDb::Checkpoint() {
  if (wal_ == nullptr) return Status::OK();
  FOCUS_RETURN_IF_ERROR(catalog_->buffer_pool()->FlushAll());
  return wal_->Checkpoint(catalog_->SerializeLayouts());
}

Result<storage::Rid> CrawlDb::RidOf(uint64_t oid) const {
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(crawl_->IndexLookup(
      0, {Value::Int64(static_cast<int64_t>(oid))}, &rids));
  if (rids.empty()) {
    return Status::NotFound(StrCat("oid ", oid, " not in CRAWL"));
  }
  return rids[0];
}

Status CrawlDb::AddUrl(std::string_view url, double relevance_estimate,
                       int32_t serverload) {
  uint64_t oid = UrlOid(url);
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(crawl_->IndexLookup(
      0, {Value::Int64(static_cast<int64_t>(oid))}, &rids));
  if (!rids.empty()) {
    return Status::AlreadyExists(StrCat("url ", url));
  }
  return AddUnknownUrl(oid, ServerIdOf(url), url, relevance_estimate,
                       serverload);
}

Status CrawlDb::AddUnknownUrl(uint64_t oid, int32_t sid, std::string_view url,
                              double relevance_estimate, int32_t serverload) {
  return crawl_
      ->Insert(Tuple({Value::Int64(static_cast<int64_t>(oid)),
                      Value::Str(std::string(url)), Value::Int32(sid),
                      Value::Int32(0),
                      Value::Double(relevance_estimate),
                      Value::Int32(serverload), Value::Int64(0),
                      Value::Int32(-1), Value::Int32(0), Value::Int64(0)}))
      .status();
}

Status CrawlDb::RecordAttempt(uint64_t oid) {
  FOCUS_ASSIGN_OR_RETURN(storage::Rid rid, RidOf(oid));
  Tuple row;
  FOCUS_RETURN_IF_ERROR(crawl_->Get(rid, &row));
  row.Mutable(3) = Value::Int32(row.Get(3).AsInt32() + 1);
  return crawl_->Update(rid, row);
}

Status CrawlDb::RecordFailure(uint64_t oid, int32_t cost,
                              int64_t next_retry_us) {
  FOCUS_ASSIGN_OR_RETURN(storage::Rid rid, RidOf(oid));
  Tuple row;
  FOCUS_RETURN_IF_ERROR(crawl_->Get(rid, &row));
  row.Mutable(3) = Value::Int32(row.Get(3).AsInt32() + cost);
  row.Mutable(9) = Value::Int64(next_retry_us);
  return crawl_->Update(rid, row);
}

Status CrawlDb::RecordVisit(uint64_t oid, double relevance, int32_t kcid,
                            int64_t lastvisited) {
  FOCUS_ASSIGN_OR_RETURN(storage::Rid rid, RidOf(oid));
  Tuple row;
  FOCUS_RETURN_IF_ERROR(crawl_->Get(rid, &row));
  row.Mutable(4) = Value::Double(relevance);
  row.Mutable(6) = Value::Int64(lastvisited);
  row.Mutable(7) = Value::Int32(kcid);
  row.Mutable(8) = Value::Int32(1);
  row.Mutable(9) = Value::Int64(0);  // visit clears any pending retry
  return crawl_->Update(rid, row);
}

Status CrawlDb::RaiseRelevance(uint64_t oid, double relevance) {
  FOCUS_ASSIGN_OR_RETURN(storage::Rid rid, RidOf(oid));
  Tuple row;
  FOCUS_RETURN_IF_ERROR(crawl_->Get(rid, &row));
  if (row.Get(8).AsInt32() != 0) return Status::OK();  // already visited
  if (row.Get(4).AsDouble() >= relevance) return Status::OK();
  row.Mutable(4) = Value::Double(relevance);
  return crawl_->Update(rid, row);
}

Status CrawlDb::AddLink(std::string_view src_url, std::string_view dst_url) {
  return AddLink(UrlOid(src_url), ServerIdOf(src_url), UrlOid(dst_url),
                 ServerIdOf(dst_url));
}

Status CrawlDb::AddLink(uint64_t src_oid, int32_t src_sid, uint64_t dst_oid,
                        int32_t dst_sid) {
  return link_
      ->Insert(Tuple({Value::Int64(static_cast<int64_t>(src_oid)),
                      Value::Int32(src_sid),
                      Value::Int64(static_cast<int64_t>(dst_oid)),
                      Value::Int32(dst_sid), Value::Double(0),
                      Value::Double(0)}))
      .status();
}

Status CrawlDb::RefreshEdgeWeights() {
  auto relevance_of = [this](int64_t oid) -> Result<double> {
    std::vector<storage::Rid> rids;
    FOCUS_RETURN_IF_ERROR(crawl_->IndexLookup(0, {Value::Int64(oid)}, &rids));
    if (rids.empty()) return 0.0;
    Tuple row;
    FOCUS_RETURN_IF_ERROR(crawl_->Get(rids[0], &row));
    return row.Get(4).AsDouble();
  };
  auto it = link_->Scan();
  storage::Rid rid;
  Tuple row;
  while (it.Next(&rid, &row)) {
    FOCUS_ASSIGN_OR_RETURN(double r_dst, relevance_of(row.Get(2).AsInt64()));
    FOCUS_ASSIGN_OR_RETURN(double r_src, relevance_of(row.Get(0).AsInt64()));
    row.Mutable(4) = Value::Double(r_dst);
    row.Mutable(5) = Value::Double(r_src);
    FOCUS_RETURN_IF_ERROR(link_->Update(rid, row));
  }
  return it.status();
}

CrawlRecord CrawlDb::RecordFromTuple(const Tuple& t) {
  CrawlRecord r;
  r.oid = static_cast<uint64_t>(t.Get(0).AsInt64());
  r.url = t.Get(1).AsString();
  r.sid = t.Get(2).AsInt32();
  r.numtries = t.Get(3).AsInt32();
  r.relevance = t.Get(4).AsDouble();
  r.serverload = t.Get(5).AsInt32();
  r.lastvisited = t.Get(6).AsInt64();
  r.kcid = t.Get(7).AsInt32();
  r.visited = t.Get(8).AsInt32() != 0;
  r.next_retry_us = t.Get(9).AsInt64();
  return r;
}

Result<std::optional<CrawlRecord>> CrawlDb::Lookup(uint64_t oid) const {
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(crawl_->IndexLookup(
      0, {Value::Int64(static_cast<int64_t>(oid))}, &rids));
  if (rids.empty()) return std::optional<CrawlRecord>{};
  Tuple row;
  FOCUS_RETURN_IF_ERROR(crawl_->Get(rids[0], &row));
  return std::optional<CrawlRecord>(RecordFromTuple(row));
}

Result<CrawlRecord> CrawlDb::LookupByUrl(std::string_view url) const {
  FOCUS_ASSIGN_OR_RETURN(std::optional<CrawlRecord> rec,
                         Lookup(UrlOid(url)));
  if (!rec.has_value()) {
    return Status::NotFound(StrCat("url ", url, " not in CRAWL"));
  }
  return *rec;
}

Status CrawlDb::UpsertBreaker(const BreakerRecord& rec) {
  std::vector<storage::Rid> rids;
  FOCUS_RETURN_IF_ERROR(
      breaker_->IndexLookup(0, {Value::Int32(rec.sid)}, &rids));
  Tuple row({Value::Int32(rec.sid),
             Value::Int32(static_cast<int32_t>(rec.state)),
             Value::Int32(rec.consecutive_failures),
             Value::Int64(rec.open_until_us), Value::Double(rec.cooldown_s)});
  if (rids.empty()) return breaker_->Insert(row).status();
  return breaker_->Update(rids[0], row);
}

Result<std::vector<BreakerRecord>> CrawlDb::LoadBreakers() const {
  std::vector<BreakerRecord> out;
  auto it = breaker_->Scan();
  storage::Rid rid;
  Tuple row;
  while (it.Next(&rid, &row)) {
    BreakerRecord rec;
    rec.sid = row.Get(0).AsInt32();
    rec.state = static_cast<BreakerState>(row.Get(1).AsInt32());
    rec.consecutive_failures = row.Get(2).AsInt32();
    rec.open_until_us = row.Get(3).AsInt64();
    rec.cooldown_s = row.Get(4).AsDouble();
    out.push_back(rec);
  }
  FOCUS_RETURN_IF_ERROR(it.status());
  return out;
}

}  // namespace focus::crawl
