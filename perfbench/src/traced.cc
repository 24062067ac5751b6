#include "src/traced.h"

#include <chrono>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

void Bump(std::atomic<uint64_t>* counter, uint64_t n) {
  counter->fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

DiskCounters& DiskCounters::operator+=(const DiskCounters& o) {
  reads += o.reads;
  batch_reads += o.batch_reads;
  pages_written += o.pages_written;
  syncs += o.syncs;
  read_ms += o.read_ms;
  write_ms += o.write_ms;
  sync_ms += o.sync_ms;
  return *this;
}

Status TracedDisk::ReadPage(storage::PageId id, char* out) {
  Clock::time_point start = Clock::now();
  Status st = inner_->ReadPage(id, out);
  Bump(&read_ns_, NanosSince(start));
  if (st.ok()) Bump(&reads_, 1);
  return st;
}

Status TracedDisk::ReadPages(storage::PageId first, uint32_t n, char* out) {
  Clock::time_point start = Clock::now();
  Status st = inner_->ReadPages(first, n, out);
  Bump(&read_ns_, NanosSince(start));
  if (st.ok()) {
    Bump(&reads_, n);
    Bump(&batch_reads_, 1);
  }
  return st;
}

Status TracedDisk::WritePage(storage::PageId id, const char* in) {
  Clock::time_point start = Clock::now();
  Status st = inner_->WritePage(id, in);
  Bump(&write_ns_, NanosSince(start));
  if (st.ok()) Bump(&pages_written_, 1);
  return st;
}

Result<storage::PageId> TracedDisk::AllocatePage() {
  return inner_->AllocatePage();
}

Status TracedDisk::Sync() {
  Clock::time_point start = Clock::now();
  Status st = inner_->Sync();
  Bump(&sync_ns_, NanosSince(start));
  if (st.ok()) {
    Bump(&syncs_, 1);
    if (on_sync_) on_sync_();
  }
  return st;
}

DiskCounters TracedDisk::counters() const {
  auto load = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  DiskCounters c;
  c.reads = load(reads_);
  c.batch_reads = load(batch_reads_);
  c.pages_written = load(pages_written_);
  c.syncs = load(syncs_);
  c.read_ms = static_cast<double>(load(read_ns_)) * 1e-6;
  c.write_ms = static_cast<double>(load(write_ns_)) * 1e-6;
  c.sync_ms = static_cast<double>(load(sync_ns_)) * 1e-6;
  return c;
}

void CallStats::Add(uint64_t docs_in_call, double us) {
  ++calls;
  docs += docs_in_call;
  busy_us += us;
  call_us.push_back(us);
}

CallStats& CallStats::operator+=(const CallStats& o) {
  calls += o.calls;
  docs += o.docs;
  busy_us += o.busy_us;
  call_us.insert(call_us.end(), o.call_us.begin(), o.call_us.end());
  return *this;
}

Result<focus::crawl::PageJudgment> TracedEvaluator::Judge(
    const focus::text::TermVector& terms) {
  Clock::time_point start = Clock::now();
  auto r = inner_->Judge(terms);
  double us = static_cast<double>(NanosSince(start)) * 1e-3;
  std::lock_guard<std::mutex> lock(mu_);
  stats_.Add(1, us);
  return r;
}

Result<std::vector<focus::crawl::PageJudgment>> TracedEvaluator::JudgeBatch(
    const std::vector<focus::text::TermVector>& docs) {
  Clock::time_point start = Clock::now();
  auto r = inner_->JudgeBatch(docs);
  double us = static_cast<double>(NanosSince(start)) * 1e-3;
  std::lock_guard<std::mutex> lock(mu_);
  stats_.Add(docs.size(), us);
  return r;
}

CallStats TracedEvaluator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace perfbench
