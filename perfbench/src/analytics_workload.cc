// Workload `analytics`: one closed-loop client thread alternates the two
// relational clients of the paper over one file-backed store (no WAL, no
// modelled seek latency): a BatchRelevanceEvaluator::JudgeBatch on 32 fresh
// documents (the Figure 3 bulk-probe plan over fig8a-sized statistics
// tables) and one JoinDistiller iteration (Figure 4) over the LINK/CRAWL
// graph of a set-up crawl. The buffer pool holds at most a quarter of the
// two table sets, so sql/exec operators, the cost model, dictionary
// encoding and the pool's replacement and readahead do most of the work,
// and the distiller's scans and writes compete with the classifier's
// probes for the same frames. It bypasses the crawl loop, its locks, the
// simulator and the WAL. Page reads come from the OS page cache. The
// statistics tables and the graph are fixed inputs; the workload seed
// picks the judged documents.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "classify/bulk_probe.h"
#include "classify/db_tables.h"
#include "classify/hierarchical_classifier.h"
#include "classify/trainer.h"
#include "core/sample_taxonomy.h"
#include "crawl/batch_evaluator.h"
#include "distill/join_distiller.h"
#include "sql/exec/analyze.h"
#include "src/setup.h"
#include "src/workloads.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

namespace classify = focus::classify;
namespace distill = focus::distill;
namespace sql = focus::sql;
namespace taxonomy = focus::taxonomy;

constexpr int kBatchDocs = 32;
constexpr double kRho = 0.2;
// Graph source: a 1-thread crawl over a fig8d-sized web.
constexpr int kGraphCrawlBudget = 3000;
// Statistics tables: fig8a's wide taxonomy and corpus (~1.5k model pages).
constexpr int kCategories = 8;
constexpr int kLeavesPerCategory = 14;
constexpr int kTrainDocsPerLeaf = 8;
// Buffer pool for both table sets (see README.md for the table sizes; the
// pool is held below a quarter of them).
constexpr size_t kPoolFrames = 448;

// fig8a's synthetic bag-of-words language: per-leaf, per-category and
// shared vocabularies with Zipf-distributed ranks.
class Corpus {
 public:
  Corpus()
      : leaf_zipf_(300, 0.75), cat_zipf_(60, 0.75), shared_zipf_(20000, 0.75) {
    for (int c = 0; c < kCategories; ++c) {
      auto cat = tax_.AddTopic(taxonomy::kRootCid, focus::StrCat("cat", c));
      for (int l = 0; l < kLeavesPerCategory; ++l) {
        (void)tax_.AddTopic(cat.value(), focus::StrCat("cat", c, "_leaf", l));
      }
    }
    leaves_ = tax_.LeavesUnder(taxonomy::kRootCid);
  }

  focus::text::TermVector MakeDoc(taxonomy::Cid leaf, focus::Rng* rng) const {
    std::vector<std::string> tokens;
    tokens.reserve(250);
    taxonomy::Cid parent = tax_.Parent(leaf);
    for (int i = 0; i < 250; ++i) {
      double u = rng->NextDouble();
      if (u < 0.45) {
        tokens.push_back(focus::StrCat("w", leaf, "_", leaf_zipf_.Sample(rng)));
      } else if (u < 0.60) {
        tokens.push_back(
            focus::StrCat("p", parent, "_", cat_zipf_.Sample(rng)));
      } else {
        tokens.push_back(focus::StrCat("bg_", shared_zipf_.Sample(rng)));
      }
    }
    return focus::text::BuildTermVector(tokens);
  }

  // A document of a uniformly drawn leaf.
  focus::text::TermVector MakeAnyDoc(focus::Rng* rng) const {
    return MakeDoc(leaves_[rng->Uniform(leaves_.size())], rng);
  }

  Status Train(focus::Rng* rng) {
    std::vector<classify::LabeledDocument> docs;
    uint64_t did = 1;
    for (taxonomy::Cid leaf : leaves_) {
      for (int i = 0; i < kTrainDocsPerLeaf; ++i) {
        docs.push_back(classify::LabeledDocument{did++, leaf, MakeDoc(leaf, rng)});
      }
    }
    // One category is the good topic, so about 1/8 of documents are
    // relevant.
    FOCUS_ASSIGN_OR_RETURN(taxonomy::Cid good, tax_.FindByName("cat0"));
    FOCUS_RETURN_IF_ERROR(tax_.MarkGood(good));
    classify::Trainer trainer(classify::TrainerOptions{
        .max_features_per_node = 4000, .min_document_frequency = 2});
    FOCUS_ASSIGN_OR_RETURN(model_, trainer.Train(tax_, docs));
    ref_ = std::make_unique<classify::HierarchicalClassifier>(&tax_, &model_);
    return Status::OK();
  }

  const taxonomy::Taxonomy& tax() const { return tax_; }
  const classify::ClassifierModel& model() const { return model_; }
  const classify::HierarchicalClassifier& ref() const { return *ref_; }

 private:
  taxonomy::Taxonomy tax_;
  std::vector<taxonomy::Cid> leaves_;
  focus::ZipfTable leaf_zipf_, cat_zipf_, shared_zipf_;
  classify::ClassifierModel model_;
  std::unique_ptr<classify::HierarchicalClassifier> ref_;
};

// The in-memory crawl whose LINK/CRAWL tables become the distiller's graph.
struct GraphSource {
  std::unique_ptr<core::FocusSystem> system;
  std::unique_ptr<core::CrawlSession> session;
};

Result<GraphSource> BuildGraphSource(SetupTimes* times) {
  focus::Stopwatch timer;
  core::FocusOptions options;
  options.seed = kWebSeed;  // fixed web, as in the crawl workloads
  options.web.seed = kWebSeed;
  options.web.pages_per_topic = 600;
  options.web.background_pages = 20000;
  options.web.background_servers = 600;
  options.web.fetch_failure_prob = 0;
  GraphSource g;
  FOCUS_ASSIGN_OR_RETURN(
      g.system,
      core::FocusSystem::Create(core::BuildSampleTaxonomy(), options));
  times->web_s += timer.ElapsedSeconds();
  timer.Restart();
  FOCUS_RETURN_IF_ERROR(g.system->MarkGood("cycling"));
  FOCUS_RETURN_IF_ERROR(g.system->Train());
  times->train_s += timer.ElapsedSeconds();
  timer.Restart();
  FOCUS_ASSIGN_OR_RETURN(auto cycling, g.system->tax().FindByName("cycling"));
  // A fixed start set (fig8d's): the graph's size sets the distiller's
  // cost, so it is an input held constant across seeds.
  std::vector<std::string> seeds = g.system->web().KeywordSeeds(cycling, 15);
  crawl::CrawlerOptions copts;
  copts.max_fetches = kGraphCrawlBudget;
  FOCUS_ASSIGN_OR_RETURN(g.session, g.system->NewCrawl(seeds, copts));
  FOCUS_RETURN_IF_ERROR(g.session->crawler().Crawl());
  FOCUS_RETURN_IF_ERROR(g.session->db().RefreshEdgeWeights());
  times->tables_s += timer.ElapsedSeconds();
  return g;
}

// Removes the store's data file once everything using it is gone (the
// first member of Store, so it is destroyed last).
struct FileRemover {
  std::string path;
  ~FileRemover() {
    if (!path.empty()) ::unlink(path.c_str());
  }
};

// The shared store: statistics tables, LINK/CRAWL/HUBS/AUTH, one pool.
// Members are declared in dependency order; the struct never moves.
struct Store {
  FileRemover remover;
  std::unique_ptr<focus::storage::FileDiskManager> file;
  std::unique_ptr<TracedDisk> traced;
  std::unique_ptr<focus::storage::BufferPool> pool;
  std::unique_ptr<sql::Catalog> catalog;
  classify::ClassifierTables tables;
  distill::DistillTables graph;
  std::unique_ptr<classify::BulkProbeClassifier> bulk;
  std::unique_ptr<crawl::BatchRelevanceEvaluator> evaluator;
  std::unique_ptr<distill::JoinDistiller> distiller;
  uint32_t model_pages = 0;
  uint32_t graph_pages = 0;
};

Result<sql::Table*> CopyTable(sql::Catalog* catalog, const sql::Table* src,
                              std::vector<sql::IndexSpec> indexes) {
  FOCUS_ASSIGN_OR_RETURN(
      sql::Table * dst,
      catalog->CreateTable(src->name(), src->schema(), std::move(indexes)));
  auto it = src->Scan();
  focus::storage::Rid rid;
  sql::Tuple row;
  while (it.Next(&rid, &row)) {
    FOCUS_RETURN_IF_ERROR(dst->Insert(row).status());
  }
  FOCUS_RETURN_IF_ERROR(it.status());
  return dst;
}

Result<std::unique_ptr<Store>> BuildStore(const Corpus& corpus,
                                          const GraphSource& g,
                                          const std::string& path,
                                          bool traced) {
  auto s = std::make_unique<Store>();
  FOCUS_ASSIGN_OR_RETURN(s->file, focus::storage::FileDiskManager::Open(path));
  s->remover.path = path;
  focus::storage::DiskManager* disk = s->file.get();
  if (traced) {
    s->traced = std::make_unique<TracedDisk>(disk);
    disk = s->traced.get();
  }
  s->pool = std::make_unique<focus::storage::BufferPool>(
      disk, kPoolFrames,
      focus::storage::BufferPool::Options{.auto_readahead = true});
  s->catalog = std::make_unique<sql::Catalog>(s->pool.get());
  FOCUS_ASSIGN_OR_RETURN(s->tables,
                         classify::BuildClassifierTables(
                             s->catalog.get(), corpus.tax(), corpus.model()));
  FOCUS_RETURN_IF_ERROR(s->pool->FlushAll());
  s->model_pages = s->file->NumPages();
  FOCUS_ASSIGN_OR_RETURN(
      s->graph.link,
      CopyTable(s->catalog.get(), g.session->db().link_table(),
                {sql::IndexSpec{"by_src", {0}, {}},
                 sql::IndexSpec{"by_dst", {2}, {}}}));
  FOCUS_ASSIGN_OR_RETURN(
      s->graph.crawl, CopyTable(s->catalog.get(), g.session->db().crawl_table(),
                                {sql::IndexSpec{"by_oid", {0}, {}}}));
  FOCUS_RETURN_IF_ERROR(
      distill::CreateHubsAuthTables(s->catalog.get(), &s->graph));
  FOCUS_RETURN_IF_ERROR(s->pool->FlushAll());
  s->graph_pages = s->file->NumPages() - s->model_pages;
  s->bulk = std::make_unique<classify::BulkProbeClassifier>(&corpus.ref(),
                                                            &s->tables);
  s->evaluator = std::make_unique<crawl::BatchRelevanceEvaluator>(
      s->bulk.get(), &corpus.ref(), s->catalog.get());
  s->distiller = std::make_unique<distill::JoinDistiller>(s->graph);
  FOCUS_RETURN_IF_ERROR(s->distiller->Initialize());
  return s;
}

// EXPLAIN ANALYZE self time per operator kind, plus the rows the plan's
// leaf operators produced and the rows its roots returned.
struct PlanProfile {
  std::map<std::string, double> self_ms;
  double leaf_rows = 0;
  double root_rows = 0;

  void Add(const sql::PlanStats& plan) {
    for (const sql::PlanStats::Node* root : plan.Roots()) {
      root_rows += static_cast<double>(root->rows_out);
      Visit(*root);
    }
  }

 private:
  // "UpdateAuth: BatchSortAggregate(oid_dst, sum)" -> BatchSortAggregate.
  static std::string KindOf(const std::string& label) {
    size_t colon = label.rfind(": ");
    std::string op =
        colon == std::string::npos ? label : label.substr(colon + 2);
    std::string kind = op.substr(0, op.find_first_of(" ("));
    for (const std::string& k : SqlOperatorKinds()) {
      if (k == kind) return kind;
    }
    return "other";
  }
  void Visit(const sql::PlanStats::Node& node) {
    double total = static_cast<double>(node.open_micros + node.next_micros);
    double children = 0;
    for (const sql::PlanStats::Node* child : node.children) {
      children += static_cast<double>(child->open_micros + child->next_micros);
      Visit(*child);
    }
    if (node.children.empty()) leaf_rows += static_cast<double>(node.rows_out);
    self_ms[KindOf(node.label)] += std::max(0.0, total - children) * 1e-3;
  }
};

// One loop's measurements.
struct Loop {
  std::vector<double> classify_ms;
  std::vector<double> distill_ms;
  std::vector<double> round_rate;  // docs per second of each round
  double docs = 0;
  double relevant = 0;
  double cpu_s = 0;  // CPU inside the two timed calls
  // Traced loops only.
  CallStats calls;
  PlanProfile classify_plan;
  PlanProfile distill_plan;
};

// One timed call and its output check.
struct Step {
  bool ok = false;
  double ms = 0;
  double cpu_s = 0;
  double relevant = 0;  // judged documents with R(d) >= 0.5
};

// HUBS/AUTH rows are (oid, score).
bool ScoresValid(const sql::Table* table) {
  auto it = table->Scan();
  focus::storage::Rid rid;
  sql::Tuple row;
  while (it.Next(&rid, &row)) {
    double score = row.Get(1).AsNumeric();
    if (!std::isfinite(score) || score < 0) return false;
  }
  return it.status().ok();
}

// Step one: judge a fresh batch and check it against the in-memory
// classifier.
Step ClassifyStep(const Corpus& corpus, Store* store, focus::Rng* rng,
                  bool traced, Loop* loop) {
  std::vector<focus::text::TermVector> docs;
  for (int i = 0; i < kBatchDocs; ++i) docs.push_back(corpus.MakeAnyDoc(rng));
  sql::PlanStats plan;
  Step step;
  double cpu0 = ProcessCpuSeconds();
  focus::Stopwatch timer;
  auto judged = traced ? store->evaluator->JudgeBatchWithPlan(docs, &plan)
                       : store->evaluator->JudgeBatch(docs);
  step.ms = timer.ElapsedMillis();
  step.cpu_s = ProcessCpuSeconds() - cpu0;
  if (!judged.ok() || judged.value().size() != docs.size()) return step;
  const taxonomy::Taxonomy& tax = corpus.tax();
  for (size_t i = 0; i < docs.size(); ++i) {
    focus::classify::ClassScores want = corpus.ref().Classify(docs[i]);
    const crawl::PageJudgment& got = judged.value()[i];
    if (std::fabs(want.Relevance(tax) - got.relevance) > 1e-9 ||
        want.BestLeaf(tax) != got.best_leaf) {
      return step;
    }
    if (got.relevance >= kRelevantThreshold) step.relevant += 1;
  }
  if (traced) {
    loop->calls.Add(docs.size(), step.ms * 1e3);
    loop->classify_plan.Add(plan);
  }
  step.ok = true;
  return step;
}

// Step two: one distiller iteration; hub and authority scores must stay
// finite and non-negative.
Step DistillStep(Store* store, bool traced, Loop* loop) {
  sql::PlanStats plan;
  Step step;
  double cpu0 = ProcessCpuSeconds();
  focus::Stopwatch timer;
  Status st = traced ? store->distiller->RunIterationWithPlan(kRho, &plan)
                     : store->distiller->RunIteration(kRho);
  step.ms = timer.ElapsedMillis();
  step.cpu_s = ProcessCpuSeconds() - cpu0;
  if (!st.ok() || !ScoresValid(store->graph.hubs) ||
      !ScoresValid(store->graph.auth)) {
    return step;
  }
  if (traced) loop->distill_plan.Add(plan);
  step.ok = true;
  return step;
}

Loop RunLoop(const Corpus& corpus, Store* store, focus::Rng* rng,
             double seconds, bool traced, RunResult* result) {
  Loop loop;
  focus::Stopwatch elapsed;
  do {
    Step c = ClassifyStep(corpus, store, rng, traced, &loop);
    result->CountOp(c.ok);
    Step d = DistillStep(store, traced, &loop);
    result->CountOp(d.ok);
    if (!c.ok || !d.ok) continue;
    loop.classify_ms.push_back(c.ms);
    loop.distill_ms.push_back(d.ms);
    loop.round_rate.push_back(kBatchDocs / ((c.ms + d.ms) * 1e-3));
    loop.docs += kBatchDocs;
    loop.relevant += c.relevant;
    loop.cpu_s += c.cpu_s + d.cpu_s;
  } while (elapsed.ElapsedSeconds() < seconds);
  return loop;
}

// Set-up warm-up (pool fill, lazily built plan state): one round.
bool WarmUp(const Corpus& corpus, Store* store, focus::Rng* rng) {
  Loop unused;
  return ClassifyStep(corpus, store, rng, false, &unused).ok &&
         DistillStep(store, false, &unused).ok;
}

}  // namespace

void RunAnalyticsWorkload(const RunOptions& options, RunResult* result) {
  Report& r = result->report;
  std::string base = focus::StrCat(options.scratch_dir, "/analytics-",
                                   ::getpid());
  std::vector<SetupTimes> setups;
  std::unique_ptr<Corpus> corpus;
  GraphSource graph;
  std::unique_ptr<Store> store;
  focus::Rng rng(options.seed ^ 0xA11A1F7C5ull);
  for (int i = 0; i < kSetupRepeats; ++i) {
    store.reset();  // free the previous repetition first
    graph = GraphSource();
    corpus.reset();
    SetupTimes t;
    focus::Stopwatch timer;
    corpus = std::make_unique<Corpus>();
    focus::Rng train_rng(kWebSeed);  // fixed model
    t.web_s += timer.ElapsedSeconds();
    timer.Restart();
    Status st = corpus->Train(&train_rng);
    t.train_s += timer.ElapsedSeconds();
    auto g = st.ok() ? BuildGraphSource(&t)
                     : Result<GraphSource>(st);
    if (g.ok()) {
      graph = std::move(g).TakeValue();
      timer.Restart();
      auto built = BuildStore(*corpus, graph, base + ".db", false);
      if (built.ok()) {
        store = std::move(built).TakeValue();
        rng = focus::Rng(options.seed ^ 0xA11A1F7C5ull);
        st = WarmUp(*corpus, store.get(), &rng)
                 ? Status::OK()
                 : Status::Internal("warm-up output check failed");
      } else {
        st = built.status();
      }
      t.tables_s += timer.ElapsedSeconds();
    } else {
      st = g.status();
    }
    if (!st.ok()) {
      std::fprintf(stderr, "analytics: setup: %s\n", st.ToString().c_str());
      result->CountOp(false);
      return;
    }
    setups.push_back(t);
  }
  ReportSetup(setups, &r);
  std::fprintf(stderr,
               "analytics: model %u pages, graph %u pages (%llu links), "
               "pool %zu frames (%.1f%% of both)\n",
               store->model_pages, store->graph_pages,
               static_cast<unsigned long long>(store->graph.link->num_rows()),
               kPoolFrames,
               100.0 * static_cast<double>(kPoolFrames) /
                   (store->model_pages + store->graph_pages));

  Loop plain =
      RunLoop(*corpus, store.get(), &rng, options.seconds, false, result);
  if (plain.classify_ms.empty()) return;
  double pages_per_s = Median(plain.round_rate);
  double harvest = plain.relevant / plain.docs;
  r.Set("pages_per_s", pages_per_s);
  r.Set("relevant_pages_per_s", pages_per_s * harvest);
  r.Set("harvest_rate", harvest);
  r.Set("cpu_us_per_page", plain.cpu_s * 1e6 / plain.docs);
  double classify_ms = 0;
  for (double v : plain.classify_ms) classify_ms += v;
  r.Set("classify_docs_per_s", plain.docs / (classify_ms * 1e-3));
  PercentileResult c50 = Percentile(plain.classify_ms, 0.50);
  PercentileResult c95 = Percentile(plain.classify_ms, 0.95);
  PercentileResult d50 = Percentile(plain.distill_ms, 0.50);
  PercentileResult d95 = Percentile(plain.distill_ms, 0.95);
  r.Set("classify_batch_ms_p50", c50.value);
  r.Set("classify_batch_ms_p95", c95.value);
  r.Set("classify_batch_samples", static_cast<double>(c95.samples));
  r.Set("distill_iter_ms_p50", d50.value);
  r.Set("distill_iter_ms_p95", d95.value);
  r.Set("distill_iter_samples", static_cast<double>(d95.samples));
  if (!c95.tail_ok || !d95.tail_ok) {
    std::fprintf(stderr,
                 "analytics: fewer than 10 samples beyond p95 (%zu batches, "
                 "%zu iterations)\n",
                 c95.samples, d95.samples);
  }
  if (!options.trace) return;

  // The traced loop runs over a second store built the same way with a
  // TracedDisk under its pool.
  auto traced_store = BuildStore(*corpus, graph, base + "-traced.db", true);
  if (!traced_store.ok()) {
    std::fprintf(stderr, "analytics: traced store: %s\n",
                 traced_store.status().ToString().c_str());
    result->CountOp(false);
    return;
  }
  store.reset();
  Store* ts = traced_store.value().get();
  focus::Rng trace_rng(options.seed ^ 0xA11A1F7C5ull);
  result->CountOp(WarmUp(*corpus, ts, &trace_rng));
  ts->pool->ResetStats();
  DiskCounters disk0 = ts->traced->counters();
  Loop traced = RunLoop(*corpus, ts, &trace_rng, options.seconds, true, result);
  if (traced.classify_ms.empty()) return;
  DiskCounters disk = ts->traced->counters();
  disk.reads -= disk0.reads;
  disk.batch_reads -= disk0.batch_reads;
  disk.pages_written -= disk0.pages_written;
  disk.syncs -= disk0.syncs;
  disk.read_ms -= disk0.read_ms;
  disk.write_ms -= disk0.write_ms;
  disk.sync_ms -= disk0.sync_ms;

  double batches = static_cast<double>(traced.classify_ms.size());
  double iterations = static_cast<double>(traced.distill_ms.size());
  double ops = batches + iterations;
  r.Set("trace.overhead_frac", 1.0 - Median(traced.round_rate) / pages_per_s);
  ReportCalls(traced.calls, batches, &r);
  ReportPool(ts->pool->stats(), ops, &r);
  ReportDisk("data", disk, ops, &r);
  for (const auto& [kind, self] : traced.classify_plan.self_ms) {
    r.Set("sql.classify." + kind + ".self_ms", self / batches);
  }
  for (const auto& [kind, self] : traced.distill_plan.self_ms) {
    r.Set("sql.distill." + kind + ".self_ms", self / iterations);
  }
  auto ratio = [](const PlanProfile& p) {
    return p.root_rows == 0 ? 0.0 : p.leaf_rows / p.root_rows;
  };
  r.Set("sql.classify.rows_examined_per_output_row",
        ratio(traced.classify_plan));
  r.Set("sql.distill.rows_examined_per_output_row", ratio(traced.distill_plan));
  r.Set("distill.links", static_cast<double>(ts->graph.link->num_rows()));
  double distill_ms = 0;
  for (double v : traced.distill_ms) distill_ms += v;
  r.Set("distill.iter_ms", distill_ms / iterations);
}

}  // namespace perfbench
