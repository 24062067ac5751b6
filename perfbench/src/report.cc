#include "src/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

std::vector<MetricSpec> BuildCatalog() {
  std::vector<MetricSpec> c;
  auto e2e = [&](const char* name, const char* unit) {
    c.push_back(MetricSpec{name, unit, MetricKind::kEndToEnd});
  };
  auto layer = [&](const std::string& name, const char* unit) {
    c.push_back(MetricSpec{name, unit, MetricKind::kPerLayer});
  };
  // End to end: defined on every workload (see README.md for what a
  // "page" is on each).
  e2e("pages_per_s", "1/s");
  e2e("cpu_us_per_page", "us");
  e2e("setup_s", "s");
  e2e("peak_rss_mib", "MiB");

  // Headline numbers that are not defined, or not steady across seeds, on
  // every workload (read 0 where they do not apply); taken from the
  // untraced loop of a traced run.
  layer("harvest_rate", "ratio");
  layer("relevant_pages_per_s", "1/s");
  layer("pages_per_virtual_s", "1/s");
  layer("wal_bytes_per_page", "B");
  layer("global_distill_s", "s");
  layer("classify_docs_per_s", "1/s");
  layer("classify_batch_ms_p50", "ms");
  layer("classify_batch_ms_p95", "ms");
  layer("classify_batch_samples", "count");
  layer("distill_iter_ms_p50", "ms");
  layer("distill_iter_ms_p95", "ms");
  layer("distill_iter_samples", "count");
  layer("error_rate", "ratio");

  // Environment share (replayed fetch + tokenization).
  layer("webgraph.fetch_us_per_page", "us");
  layer("text.term_vector_us_per_page", "us");
  // Crawl pipeline (StageMetricsSnapshot, CrawlStats).
  layer("crawl.fetch_ms", "ms");
  layer("crawl.classify_ms", "ms");
  layer("crawl.expand_ms", "ms");
  layer("crawl.lock_wait_ms", "ms");
  layer("crawl.frontier_pops", "count");
  layer("crawl.frontier_steals", "count");
  layer("crawl.batch_occupancy", "pages");
  layer("crawl.attempts", "count");
  // Relevance evaluator wrapper.
  layer("classify.calls", "count");
  layer("classify.docs_per_call", "docs");
  layer("classify.busy_ms", "ms");
  layer("classify.call_us_p50", "us");
  layer("classify.call_us_p95", "us");
  layer("classify.call_samples", "count");
  // Buffer pool (BufferPool::Stats).
  layer("pool.fetches", "count");
  layer("pool.hit_ratio", "ratio");
  layer("pool.misses", "count");
  layer("pool.evictions", "count");
  layer("pool.dirty_writebacks", "count");
  layer("pool.readahead_used_frac", "ratio");
  // Devices under the pool / WAL (DiskManager wrapper).
  for (const char* dev : {"data", "log"}) {
    std::string p = std::string("disk.") + dev + ".";
    layer(p + "reads", "pages");
    layer(p + "batch_reads", "count");
    layer(p + "pages_written", "pages");
    layer(p + "syncs", "count");
    layer(p + "read_ms", "ms");
    layer(p + "write_ms", "ms");
    layer(p + "sync_ms", "ms");
  }
  // Write-ahead log.
  layer("wal.commits", "count");
  layer("wal.appends", "count");
  layer("wal.log_bytes", "B");
  layer("wal.syncs", "count");
  layer("wal.checkpoints", "count");
  layer("wal.group_commit_max_batch", "commits");
  // Relational plans (EXPLAIN ANALYZE self time per operator kind).
  for (const char* plan : {"classify", "distill"}) {
    for (const std::string& kind : SqlOperatorKinds()) {
      layer(std::string("sql.") + plan + "." + kind + ".self_ms", "ms");
    }
    layer(std::string("sql.") + plan + ".rows_examined_per_output_row",
          "ratio");
  }
  // Distiller.
  layer("distill.links", "count");
  layer("distill.iter_ms", "ms");
  // Distributed crawl.
  layer("dist.exchange_delivered", "count");
  layer("dist.exchange_batches", "count");
  layer("dist.exchange_replayed", "count");
  layer("dist.shard_pages_min", "pages");
  layer("dist.shard_pages_max", "pages");
  layer("dist.shard_harvest_min", "ratio");
  layer("dist.shard_harvest_max", "ratio");
  layer("dist.shard_virtual_s_max", "s");
  // Set-up split and tracing cost.
  layer("setup.web_s", "s");
  layer("setup.train_s", "s");
  layer("setup.tables_s", "s");
  layer("trace.overhead_frac", "ratio");
  return c;
}

void AppendNumber(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  out->append(buf);
}

}  // namespace

const std::vector<std::string>& SqlOperatorKinds() {
  // The operators the default (vectorized) engine's Figure 3 and Figure 4
  // plans are built from.
  static const std::vector<std::string> kinds = {
      "SeqScan",        "Vectorize",     "BatchSource",
      "BatchTableScan", "BatchFilter",   "BatchProject",
      "BatchSort",      "BatchMergeJoin", "BatchCrossJoin",
      "BatchProbeJoin", "BatchSortAggregate", "BatchSortedAggregate",
      "other"};
  return kinds;
}

const std::vector<MetricSpec>& MetricCatalog() {
  static const std::vector<MetricSpec> catalog = BuildCatalog();
  return catalog;
}

const MetricSpec* FindMetric(std::string_view name) {
  for (const MetricSpec& m : MetricCatalog()) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::Set(std::string_view name, double value) {
  if (FindMetric(name) == nullptr) {
    std::fprintf(stderr, "perfbench: metric '%.*s' is not in the catalog\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  values_[std::string(name)] = value;
}

bool Report::Has(std::string_view name) const {
  return values_.count(std::string(name)) > 0;
}

double Report::Get(std::string_view name) const {
  auto it = values_.find(std::string(name));
  return it == values_.end() ? 0.0 : it->second;
}

std::string Report::ToJson(MetricKind kind, bool correct, uint64_t attempted,
                           uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : MetricCatalog()) {
    if (m.kind != kind) continue;
    if (kind == MetricKind::kEndToEnd && !Has(m.name)) return "";
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": ";
    AppendNumber(&out, Get(m.name));
    out += ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string Report::ToText() const {
  std::string out;
  for (const MetricSpec& m : MetricCatalog()) {
    auto it = values_.find(m.name);
    if (it == values_.end()) continue;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-44s %16.6g %s\n", m.name.c_str(),
                  it->second, m.unit.c_str());
    out += line;
  }
  return out;
}

PercentileResult Percentile(std::vector<double> samples, double q,
                            size_t min_tail) {
  PercentileResult r;
  r.samples = samples.size();
  if (samples.empty()) return r;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest value with at least q*n samples at or below.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  r.value = samples[rank - 1];
  r.beyond = samples.size() - rank;
  r.tail_ok = r.beyond >= min_tail;
  return r;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
