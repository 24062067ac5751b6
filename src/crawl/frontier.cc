#include "crawl/frontier.h"

#include <algorithm>
#include <limits>

#include "crawl/crawl_db.h"
#include "obs/event_log.h"

namespace focus::crawl {

const char* PolicyName(PriorityPolicy policy) {
  switch (policy) {
    case PriorityPolicy::kAggressiveDiscovery:
      return "aggressive_discovery";
    case PriorityPolicy::kBreadthFirst:
      return "breadth_first";
    case PriorityPolicy::kRevisitHubs:
      return "revisit_hubs";
    case PriorityPolicy::kRetryDeadLinks:
      return "retry_dead_links";
    case PriorityPolicy::kBacklinkCount:
      return "backlink_count";
    case PriorityPolicy::kPageRankOrder:
      return "pagerank_order";
  }
  return "?";
}

// Returns true when `a` has *lower* priority than `b` (max-heap on
// priority). Ties always break on seq then oid for determinism.
bool Frontier::HeapLess::operator()(const HeapItem& a,
                                    const HeapItem& b) const {
  const FrontierEntry& x = a.entry;
  const FrontierEntry& y = b.entry;
  auto tie = [&] {
    if (x.seq != y.seq) return x.seq > y.seq;
    return x.oid > y.oid;
  };
  switch (policy) {
    case PriorityPolicy::kAggressiveDiscovery: {
      if (x.numtries != y.numtries) return x.numtries > y.numtries;
      if (x.relevance != y.relevance) return x.relevance < y.relevance;
      // serverload is a politeness signal ("crude and lazily updated"),
      // not a fine ranking: compare in coarse buckets so lightly-loaded
      // servers tie and FIFO order decides among them.
      int32_t xload = x.serverload / 8, yload = y.serverload / 8;
      if (xload != yload) return xload > yload;
      return tie();
    }
    case PriorityPolicy::kBreadthFirst:
      return tie();
    case PriorityPolicy::kRevisitHubs: {
      // Maintenance ordering: stalest visited pages first; never-visited
      // entries (lastvisited = 0) are not maintenance targets and sort
      // last.
      int64_t lx = x.lastvisited == 0
                       ? std::numeric_limits<int64_t>::max()
                       : x.lastvisited;
      int64_t ly = y.lastvisited == 0
                       ? std::numeric_limits<int64_t>::max()
                       : y.lastvisited;
      if (lx != ly) return lx > ly;
      if (x.hub_score != y.hub_score) return x.hub_score < y.hub_score;
      return tie();
    }
    case PriorityPolicy::kRetryDeadLinks:
      if (x.numtries != y.numtries) return x.numtries < y.numtries;
      if (x.relevance != y.relevance) return x.relevance < y.relevance;
      return tie();
    case PriorityPolicy::kBacklinkCount:
      if (x.backlinks != y.backlinks) return x.backlinks < y.backlinks;
      return tie();
    case PriorityPolicy::kPageRankOrder:
      if (x.hub_score != y.hub_score) return x.hub_score < y.hub_score;
      return tie();
  }
  return tie();
}

void Frontier::AddOrUpdate(const FrontierEntry& entry) {
  FrontierEntry e = entry;
  auto it = live_.find(e.oid);
  if (it != live_.end()) {
    e.seq = it->second.second.seq;  // preserve insertion order
  } else if (e.seq == 0) {
    e.seq = next_seq_++;
  } else {
    next_seq_ = std::max(next_seq_, e.seq + 1);
  }
  uint64_t version = next_version_++;
  live_[e.oid] = {version, e};
  if (e.ready_at_us > 0) {
    parked_.push_back(ParkedItem{e.oid, version, e.ready_at_us});
    std::push_heap(parked_.begin(), parked_.end(), ParkedLater{});
  } else {
    heap_.push_back(HeapItem{e.oid, version, e});
    std::push_heap(heap_.begin(), heap_.end(), HeapLess{policy_});
  }
}

std::optional<FrontierEntry> Frontier::PopBest(int64_t now_us) {
  Promote(now_us);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), HeapLess{policy_});
    HeapItem item = std::move(heap_.back());
    heap_.pop_back();
    auto it = live_.find(item.oid);
    if (it == live_.end() || it->second.first != item.version) {
      continue;  // stale
    }
    FrontierEntry entry = it->second.second;
    live_.erase(it);
    return entry;
  }
  return std::nullopt;
}

void Frontier::CleanParkedTop() {
  while (!parked_.empty()) {
    const ParkedItem& top = parked_.front();
    auto it = live_.find(top.oid);
    if (it != live_.end() && it->second.first == top.version) return;
    std::pop_heap(parked_.begin(), parked_.end(), ParkedLater{});
    parked_.pop_back();
  }
}

void Frontier::Promote(int64_t now_us) {
  while (true) {
    CleanParkedTop();
    if (parked_.empty() || parked_.front().ready_at_us > now_us) return;
    std::pop_heap(parked_.begin(), parked_.end(), ParkedLater{});
    ParkedItem item = parked_.back();
    parked_.pop_back();
    auto it = live_.find(item.oid);
    if (it == live_.end() || it->second.first != item.version) continue;
    // The entry is ready now; clear the gate so later re-ranks (which copy
    // the live entry) don't re-park it.
    it->second.second.ready_at_us = 0;
    heap_.push_back(HeapItem{item.oid, item.version, it->second.second});
    std::push_heap(heap_.begin(), heap_.end(), HeapLess{policy_});
    if (event_log_ != nullptr) {
      // now_us = the pop deadline that surfaced the entry; aux = the
      // not-before time it had been parked behind.
      event_log_->Record(obs::CrawlEventType::kFrontierPromote,
                         static_cast<int64_t>(item.oid), /*parent_oid=*/-1,
                         /*sid=*/-1,
                         /*virtual_us=*/now_us == kNoTimeGate ? -1 : now_us,
                         /*value=*/0.0, /*aux=*/item.ready_at_us);
    }
  }
}

size_t Frontier::parked_count() const {
  size_t n = 0;
  for (const auto& [oid, versioned] : live_) {
    if (versioned.second.ready_at_us > 0) ++n;
  }
  return n;
}

std::optional<int64_t> Frontier::NextReadyMicros() {
  CleanParkedTop();
  if (parked_.empty()) return std::nullopt;
  return parked_.front().ready_at_us;
}

void Frontier::Erase(uint64_t oid) { live_.erase(oid); }

std::vector<FrontierEntry> Frontier::Snapshot() const {
  std::vector<FrontierEntry> out;
  out.reserve(live_.size());
  for (const auto& [oid, versioned] : live_) {
    out.push_back(versioned.second);
  }
  return out;
}

const FrontierEntry* Frontier::Peek(uint64_t oid) const {
  auto it = live_.find(oid);
  return it == live_.end() ? nullptr : &it->second.second;
}

void Frontier::SetPolicy(PriorityPolicy policy) {
  policy_ = policy;
  RebuildHeap();
}

void Frontier::RebuildHeap() {
  heap_.clear();
  heap_.reserve(live_.size());
  parked_.clear();
  for (const auto& [oid, versioned] : live_) {
    if (versioned.second.ready_at_us > 0) {
      parked_.push_back(
          ParkedItem{oid, versioned.first, versioned.second.ready_at_us});
    } else {
      heap_.push_back(HeapItem{oid, versioned.first, versioned.second});
    }
  }
  std::make_heap(heap_.begin(), heap_.end(), HeapLess{policy_});
  std::make_heap(parked_.begin(), parked_.end(), ParkedLater{});
}

ShardedFrontier::ShardedFrontier(PriorityPolicy policy, int num_shards) {
  if (num_shards < 1) num_shards = 1;
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(policy));
  }
}

int ShardedFrontier::ShardOf(std::string_view url) const {
  return ShardOfServer(ServerIdOf(url));
}

void ShardedFrontier::AddOrUpdate(const FrontierEntry& entry) {
  FrontierEntry e = entry;
  if (e.seq == 0) e.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = *shards_[ShardOf(e.url)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.frontier.AddOrUpdate(e);
}

std::optional<FrontierEntry> ShardedFrontier::PopPreferShard(int shard,
                                                             int64_t now_us,
                                                             bool* stolen) {
  int k = num_shards();
  if (shard < 0) shard = 0;
  for (int i = 0; i < k; ++i) {
    Shard& s = *shards_[(shard + i) % k];
    std::lock_guard<std::mutex> lock(s.mu);
    std::optional<FrontierEntry> popped = s.frontier.PopBest(now_us);
    if (popped.has_value()) {
      if (stolen != nullptr) *stolen = i != 0;
      return popped;
    }
  }
  if (stolen != nullptr) *stolen = false;
  return std::nullopt;
}

std::optional<int64_t> ShardedFrontier::NextReadyMicros() {
  std::optional<int64_t> earliest;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    std::optional<int64_t> at = shard->frontier.NextReadyMicros();
    if (at.has_value() && (!earliest.has_value() || *at < *earliest)) {
      earliest = at;
    }
  }
  return earliest;
}

void ShardedFrontier::Erase(uint64_t oid) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->frontier.Contains(oid)) {
      shard->frontier.Erase(oid);
      return;
    }
  }
}

bool ShardedFrontier::Contains(uint64_t oid) const {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->frontier.Contains(oid)) return true;
  }
  return false;
}

std::vector<FrontierEntry> ShardedFrontier::Snapshot() const {
  std::vector<FrontierEntry> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    std::vector<FrontierEntry> part = shard->frontier.Snapshot();
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

void ShardedFrontier::SetPolicy(PriorityPolicy policy) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->frontier.SetPolicy(policy);
  }
}

PriorityPolicy ShardedFrontier::policy() const {
  std::lock_guard<std::mutex> lock(shards_[0]->mu);
  return shards_[0]->frontier.policy();
}

size_t ShardedFrontier::size() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->frontier.size();
  }
  return n;
}

void ShardedFrontier::SetEventLog(obs::EventLog* log) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->frontier.SetEventLog(log);
  }
}

std::vector<ShardedFrontier::ShardStats> ShardedFrontier::StatsSnapshot()
    const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    ShardStats s;
    s.shard = static_cast<int>(i);
    s.live = shards_[i]->frontier.size();
    s.parked = shards_[i]->frontier.parked_count();
    // Min over live parked entries (exact, unlike the lazily-cleaned
    // parked heap, and const-safe).
    int64_t earliest = -1;
    for (const FrontierEntry& e : shards_[i]->frontier.Snapshot()) {
      if (e.ready_at_us > 0 &&
          (earliest < 0 || e.ready_at_us < earliest)) {
        earliest = e.ready_at_us;
      }
    }
    s.next_ready_us = earliest;
    out.push_back(s);
  }
  return out;
}

}  // namespace focus::crawl
