#include "dist/link_exchange.h"

#include <algorithm>
#include <limits>

namespace focus::dist {

LinkExchange::ReadResult LinkExchange::Read(
    const std::vector<crawl::CrawlDb*>& dbs) {
  const size_t n = static_cast<size_t>(num_shards_);
  ReadResult out;
  out.inboxes.resize(n);
  out.status.resize(n);
  // watermark[dst][src]: dst's durable applied seq for src.
  std::vector<std::vector<int64_t>> watermark(n, std::vector<int64_t>(n, 0));
  for (size_t dst = 0; dst < n; ++dst) {
    out.inboxes[dst].resize(n);
    for (size_t src = 0; src < n && out.status[dst].ok(); ++src) {
      if (src == dst) continue;
      Result<int64_t> w = dbs[dst]->ExchangeWatermark(static_cast<int>(src));
      if (w.ok()) {
        watermark[dst][src] = *w;
      } else {
        out.status[dst] = w.status();
      }
    }
  }
  constexpr int64_t kSkip = std::numeric_limits<int64_t>::max();
  for (size_t src = 0; src < n; ++src) {
    if (!out.status[src].ok()) continue;
    // One scan serves every destination; a destination whose watermarks
    // are unknown (or the source itself) gets nothing this round.
    std::vector<int64_t> after(n, kSkip);
    for (size_t dst = 0; dst < n; ++dst) {
      if (dst != src && out.status[dst].ok()) after[dst] = watermark[dst][src];
    }
    Result<std::vector<std::vector<crawl::ExchangeLink>>> pending =
        dbs[src]->ReadOutbox(after);
    if (!pending.ok()) {
      out.status[src] = pending.status();
      continue;
    }
    for (size_t dst = 0; dst < n; ++dst) {
      std::vector<crawl::ExchangeLink>& msgs = (*pending)[dst];
      if (msgs.empty()) continue;
      int64_t& high = read_high_[src * n + dst];
      // Replays are counted against the read mark, not the durable
      // watermark: a message this process already *read* but whose
      // delivery batch died before its commit comes back here with the
      // watermark unchanged — the redelivery the protocol promises.
      for (const crawl::ExchangeLink& msg : msgs) {
        if (msg.seq <= high) ++stats_.replayed;
      }
      high = std::max(high, msgs.back().seq);
      out.inboxes[dst][src] = std::move(msgs);
    }
  }
  return out;
}

LinkExchange::ApplyResult LinkExchange::Apply(const Inbox& inbox,
                                              crawl::CrawlDb* db,
                                              crawl::Crawler* crawler,
                                              obs::EventLog* log) {
  ApplyResult result;
  result.delivered_from.assign(inbox.size(), 0);
  for (size_t src = 0; src < inbox.size(); ++src) {
    const std::vector<crawl::ExchangeLink>& msgs = inbox[src];
    if (msgs.empty()) continue;
    for (const crawl::ExchangeLink& msg : msgs) {
      result.status = crawler->AdmitRemoteLink(
          msg.dst_url, msg.relevance, static_cast<int64_t>(msg.src_oid),
          msg.raise_if_known);
      if (!result.status.ok()) return result;
    }
    // Watermark and admissions become durable in the same batch — the
    // exactly-once edge of the protocol.
    int64_t last = msgs.back().seq;
    result.status = db->SetExchangeWatermark(static_cast<int>(src), last);
    if (!result.status.ok()) return result;
    result.status = db->Commit();
    if (!result.status.ok()) return result;
    result.delivered_from[src] = msgs.size();
    result.delivered += msgs.size();
    ++result.batches;
    if (log != nullptr) {
      log->Record(obs::CrawlEventType::kExchangeBatch, /*oid=*/-1,
                  /*parent_oid=*/static_cast<int64_t>(src), /*sid=*/-1,
                  /*virtual_us=*/-1, /*value=*/static_cast<double>(last),
                  /*aux=*/static_cast<int64_t>(msgs.size()));
    }
  }
  return result;
}

void LinkExchange::AddApplied(const ApplyResult& applied) {
  stats_.delivered += applied.delivered;
  stats_.batches += applied.batches;
}

}  // namespace focus::dist
