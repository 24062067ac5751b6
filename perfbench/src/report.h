// Metric catalog, result report and small measurement helpers shared by
// the benchmark's workloads.
//
// Every metric the benchmark can print is declared once in the catalog
// below (name, unit, kind). A run fills a Report; the final JSON line
// carries every end-to-end metric (untraced run) or every per-layer metric
// (traced run), so the printed set never depends on which code path ran.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricSpec {
  std::string name;
  std::string unit;
  MetricKind kind;
};

// The full catalog, end-to-end metrics first.
const std::vector<MetricSpec>& MetricCatalog();
// Catalog entry for `name`, or nullptr.
const MetricSpec* FindMetric(std::string_view name);

// SQL operator kinds whose EXPLAIN ANALYZE self time is reported per plan
// (sql.<plan>.<kind>.self_ms); any other kind is folded into "other".
const std::vector<std::string>& SqlOperatorKinds();

class Report {
 public:
  // Records a catalog metric; aborts on a name missing from the catalog
  // (a programming error, caught by the self-tests).
  void Set(std::string_view name, double value);
  bool Has(std::string_view name) const;
  double Get(std::string_view name) const;

  // The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  // holding every metric of `kind`. Per-layer metrics the workload never
  // touched read 0; a missing end-to-end metric is an error (returns "").
  std::string ToJson(MetricKind kind, bool correct, uint64_t attempted,
                     uint64_t failed) const;
  // Human-readable table of everything recorded (name, value, unit).
  std::string ToText() const;

 private:
  std::map<std::string, double> values_;
};

// Nearest-rank percentile. `tail_ok` is true when at least `min_tail`
// samples lie strictly beyond the chosen rank — the rule for reporting a
// high percentile (p95 needs >= 200 samples for ten beyond it).
struct PercentileResult {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
  bool tail_ok = false;
};
PercentileResult Percentile(std::vector<double> samples, double q,
                            size_t min_tail = 10);

double Median(std::vector<double> values);

// Process user+system CPU seconds so far.
double ProcessCpuSeconds();
// Peak resident set size of the process, MiB.
double PeakRssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
