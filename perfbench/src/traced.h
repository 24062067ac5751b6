// Tracing wrappers for the two public virtual seams the benchmark can
// interpose from outside the program: storage::DiskManager (under a buffer
// pool or write-ahead log) and crawl::RelevanceEvaluator (between the
// crawler and the classifier). Both forward every call unchanged and only
// count and time it; they are used in the traced run only.
#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "crawl/relevance_evaluator.h"
#include "storage/disk_manager.h"

namespace perfbench {

using focus::Result;
using focus::Status;
namespace storage = focus::storage;

// Counters of one traced device (a plain-value snapshot).
struct DiskCounters {
  uint64_t reads = 0;  // pages read, batched reads count each page
  uint64_t batch_reads = 0;
  uint64_t pages_written = 0;
  uint64_t syncs = 0;
  double read_ms = 0;
  double write_ms = 0;
  double sync_ms = 0;

  DiskCounters& operator+=(const DiskCounters& o);
};

class TracedDisk final : public storage::DiskManager {
 public:
  explicit TracedDisk(storage::DiskManager* inner) : inner_(inner) {}

  Status ReadPage(storage::PageId id, char* out) override;
  Status ReadPages(storage::PageId first, uint32_t n, char* out) override;
  Status WritePage(storage::PageId id, const char* in) override;
  Result<storage::PageId> AllocatePage() override;
  uint32_t NumPages() const override { return inner_->NumPages(); }
  Status Sync() override;

  DiskCounters counters() const;
  // Calls `on_sync` (if set) after every successful Sync; used to align
  // log-device barriers with WAL commit events.
  void set_sync_observer(std::function<void()> on_sync) {
    on_sync_ = std::move(on_sync);
  }

 private:
  storage::DiskManager* inner_;
  // Relaxed atomics: a pool's eviction write-backs and its miss reads may
  // reach the device from different threads.
  std::atomic<uint64_t> reads_{0}, batch_reads_{0}, pages_written_{0},
      syncs_{0}, read_ns_{0}, write_ns_{0}, sync_ns_{0};
  std::function<void()> on_sync_;
};

// Per-call statistics of a relevance evaluator (or of any batch call the
// benchmark times the same way).
struct CallStats {
  uint64_t calls = 0;
  uint64_t docs = 0;
  double busy_us = 0;
  std::vector<double> call_us;  // one sample per call

  void Add(uint64_t docs_in_call, double us);
  CallStats& operator+=(const CallStats& o);
};

class TracedEvaluator final : public focus::crawl::RelevanceEvaluator {
 public:
  explicit TracedEvaluator(focus::crawl::RelevanceEvaluator* inner)
      : inner_(inner) {}

  Result<focus::crawl::PageJudgment> Judge(
      const focus::text::TermVector& terms) override;
  Result<std::vector<focus::crawl::PageJudgment>> JudgeBatch(
      const std::vector<focus::text::TermVector>& docs) override;

  CallStats stats() const;

 private:
  focus::crawl::RelevanceEvaluator* inner_;
  mutable std::mutex mu_;  // guards stats_ (fetch workers call concurrently)
  CallStats stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
