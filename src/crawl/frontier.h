// Crawl frontier with reconfigurable lexicographic priorities (§3.2).
//
// "New work is checked out from the CRAWL table in the order
//  (numtries ascending, relevance descending, serverload ascending)."
// The frontier is an in-memory priority index over the unvisited rows of
// the CRAWL table; the table remains the source of truth. serverload is
// the paper's "crude and lazily updated" estimate: entries are re-ranked
// only when re-pushed. The policy can be switched mid-crawl (the heap is
// lazily rebuilt via entry versioning).
#ifndef FOCUS_CRAWL_FRONTIER_H_
#define FOCUS_CRAWL_FRONTIER_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace focus::obs {
class EventLog;
}  // namespace focus::obs

namespace focus::crawl {

struct FrontierEntry {
  uint64_t oid = 0;
  std::string url;
  int32_t numtries = 0;
  double relevance = 0;
  int32_t serverload = 0;
  int64_t lastvisited = 0;  // 0 = never
  double hub_score = 0;     // distiller boost / PageRank ordering signal
  int32_t backlinks = 0;    // known citations (Cho et al. ordering)
  uint64_t seq = 0;         // insertion sequence (BFS/FIFO orderings)
  // Not-before time (virtual us): 0 = ready now. Entries with a future
  // ready_at_us are parked — invisible to time-gated pops until a pop's
  // `now_us` reaches it (retry backoff and breaker quarantine land here).
  int64_t ready_at_us = 0;
};

enum class PriorityPolicy {
  // (numtries asc, relevance desc, serverload asc) — §3.2's aggressive
  // resource discovery order. The soft-focus crawler's default.
  kAggressiveDiscovery,
  // FIFO — the "standard crawler" baseline of Figure 5(a).
  kBreadthFirst,
  // (lastvisited asc, hub_score desc) — crawl maintenance ordering;
  // never-visited entries (lastvisited = 0) sort last.
  kRevisitHubs,
  // (numtries desc, relevance desc) — picking off timeouts/dead links.
  kRetryDeadLinks,
  // Content-blind prestige orderings from Cho, Garcia-Molina & Page
  // (§1.4's contrast: "PageRank has no notion of page content"):
  // (backlinks desc) — most-cited-first.
  kBacklinkCount,
  // (hub_score desc) where hub_score carries the latest PageRank of the
  // known crawl graph (refreshed periodically by the crawler).
  kPageRankOrder,
};

const char* PolicyName(PriorityPolicy policy);

// Pops with this deadline see every entry, parked or not (the default, so
// fault-free crawls behave exactly as before the not-before queue).
inline constexpr int64_t kNoTimeGate =
    std::numeric_limits<int64_t>::max();

class Frontier {
 public:
  explicit Frontier(PriorityPolicy policy = PriorityPolicy::
                        kAggressiveDiscovery)
      : policy_(policy) {}

  // Inserts or re-ranks `entry` (keyed by oid). Entries with a future
  // ready_at_us go to the parked queue.
  void AddOrUpdate(const FrontierEntry& entry);

  // Removes and returns the best entry whose ready_at_us <= now_us, or
  // nullopt when none qualifies.
  std::optional<FrontierEntry> PopBest(int64_t now_us = kNoTimeGate);

  // Earliest ready_at_us among parked (not yet promoted) entries; nullopt
  // when nothing is parked. Lets an idle crawler fast-forward its virtual
  // clock instead of spinning.
  std::optional<int64_t> NextReadyMicros();

  // Removes `oid` from the frontier (e.g. once visited).
  void Erase(uint64_t oid);

  bool Contains(uint64_t oid) const { return live_.contains(oid); }
  const FrontierEntry* Peek(uint64_t oid) const;

  // Copies of every live entry (used to refresh ordering signals in bulk).
  std::vector<FrontierEntry> Snapshot() const;

  // Switches the ordering; existing entries are re-ranked.
  void SetPolicy(PriorityPolicy policy);
  PriorityPolicy policy() const { return policy_; }

  size_t size() const { return live_.size(); }
  bool empty() const { return live_.empty(); }

  // Provenance hook: parked→ready promotions record kFrontierPromote
  // events. nullptr (the default) disables.
  void SetEventLog(obs::EventLog* log) { event_log_ = log; }

  // Live entries currently parked behind a not-before time.
  size_t parked_count() const;

 private:
  struct HeapItem {
    uint64_t oid;
    uint64_t version;
    FrontierEntry entry;
  };
  struct HeapLess {
    PriorityPolicy policy;
    bool operator()(const HeapItem& a, const HeapItem& b) const;
  };

  struct ParkedItem {
    uint64_t oid;
    uint64_t version;
    int64_t ready_at_us;
  };
  struct ParkedLater {  // min-heap on ready_at_us (oid tie-break)
    bool operator()(const ParkedItem& a, const ParkedItem& b) const {
      if (a.ready_at_us != b.ready_at_us) {
        return a.ready_at_us > b.ready_at_us;
      }
      return a.oid > b.oid;
    }
  };

  void RebuildHeap();
  // Moves parked entries whose ready time has arrived into the main heap.
  void Promote(int64_t now_us);
  // Discards stale items from the parked-heap top.
  void CleanParkedTop();

  PriorityPolicy policy_;
  obs::EventLog* event_log_ = nullptr;
  // oid -> (current version, entry). Heap items with stale versions are
  // discarded on pop.
  std::unordered_map<uint64_t, std::pair<uint64_t, FrontierEntry>> live_;
  std::vector<HeapItem> heap_;
  // Min-heap of not-yet-ready entries, by ready_at_us.
  std::vector<ParkedItem> parked_;
  uint64_t next_version_ = 1;
  uint64_t next_seq_ = 1;
};

// A server-sharded frontier for the concurrent crawl pipeline. Entries are
// assigned to shards by ServerIdOf(url) so each server's pages live in one
// shard and the lexicographic priority order (which includes the per-server
// politeness signal) is preserved within it. Every shard carries its own
// lock; fetch workers pop from a preferred shard and steal from the others
// when it runs dry. Insertion sequence numbers are issued from one atomic
// counter so the cross-shard tie-break order stays globally consistent —
// with a single shard, PopPreferShard(0) pops exactly like a plain
// Frontier.
class ShardedFrontier {
 public:
  explicit ShardedFrontier(
      PriorityPolicy policy = PriorityPolicy::kAggressiveDiscovery,
      int num_shards = 1);

  ShardedFrontier(const ShardedFrontier&) = delete;
  ShardedFrontier& operator=(const ShardedFrontier&) = delete;

  // Inserts or re-ranks `entry` (keyed by oid; sharded by its URL's
  // server).
  void AddOrUpdate(const FrontierEntry& entry);

  // Work-stealing pop: takes the best ready entry of `shard`, or — when
  // that shard has none — of the nearest shard with one. `stolen`
  // (optional) reports whether the entry came from another shard.
  std::optional<FrontierEntry> PopPreferShard(int shard,
                                              bool* stolen = nullptr) {
    return PopPreferShard(shard, kNoTimeGate, stolen);
  }
  std::optional<FrontierEntry> PopPreferShard(int shard, int64_t now_us,
                                              bool* stolen);

  // Earliest parked ready_at_us across shards; nullopt when nothing is
  // parked anywhere.
  std::optional<int64_t> NextReadyMicros();

  void Erase(uint64_t oid);
  bool Contains(uint64_t oid) const;
  // Applies `update(FrontierEntry*)` to the live entry for `oid` and
  // re-ranks it, under the entry's shard lock. `sid` is the entry URL's
  // ServerIdOf, which fixes its shard, so only that shard is locked and
  // probed. Returns false, inserting nothing, when `oid` is not in the
  // frontier. Entries move under concurrent pops, so a read followed by a
  // separate AddOrUpdate could re-insert an entry another worker popped in
  // between, and the page would be fetched twice.
  template <typename Update>
  bool UpdateIfPresent(int32_t sid, uint64_t oid, Update&& update) {
    Shard& shard = *shards_[ShardOfServer(sid)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const FrontierEntry* e = shard.frontier.Peek(oid);
    if (e == nullptr) return false;
    FrontierEntry updated = *e;
    update(&updated);
    shard.frontier.AddOrUpdate(updated);
    return true;
  }

  // Copies of every live entry across all shards.
  std::vector<FrontierEntry> Snapshot() const;

  // Switches the ordering on every shard.
  void SetPolicy(PriorityPolicy policy);
  PriorityPolicy policy() const;

  size_t size() const;
  bool empty() const { return size() == 0; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int ShardOf(std::string_view url) const;
  // The shard of every URL whose ServerIdOf is `sid`.
  int ShardOfServer(int32_t sid) const {
    return static_cast<int>(static_cast<uint32_t>(sid) % shards_.size());
  }

  // Attaches the provenance event log to every shard (see
  // Frontier::SetEventLog).
  void SetEventLog(obs::EventLog* log);

  // Bounded per-shard introspection for the admin /frontier endpoint.
  struct ShardStats {
    int shard = 0;
    size_t live = 0;    // entries in the shard (ready + parked)
    size_t parked = 0;  // entries gated behind a not-before time
    // Earliest parked ready_at_us; -1 when nothing is parked.
    int64_t next_ready_us = -1;
  };
  std::vector<ShardStats> StatsSnapshot() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    Frontier frontier;
    explicit Shard(PriorityPolicy policy) : frontier(policy) {}
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> next_seq_{1};
};

}  // namespace focus::crawl

#endif  // FOCUS_CRAWL_FRONTIER_H_
