#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

/// \file harness.h
/// What the three workloads share: arguments, the report they fill,
/// statistics, registry deltas, the timed tuner wrapper and the catalog
/// helpers that prepare, bind and execute workload queries through a
/// `core::Session` while recording one span per layer call.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/online_store.h"
#include "core/session.h"
#include "core/tuner.h"
#include "persist/wal.h"
#include "trace.h"
#include "workload/workload.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Dataset-size multiplier; 1 is the benchmark, the self-test runs tiny.
  double scale = 1.0;
  /// Self-test seam: adds one row to one expected answer, so a correct
  /// program must fail the correctness gate.
  bool inject_row_error = false;
  /// Where the traced run writes its Chrome trace.
  std::string trace_file;
  /// Scratch directory for the durable store's files.
  std::string work_dir = ".";
};

/// What a workload measured. End-to-end metrics must all be set; per-layer
/// metrics a workload's layers never touch stay 0.
struct Report {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> mismatches;  ///< first few gate failures

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Counts one gate failure, keeping its description for stderr.
  void Fail(std::string what);
  /// Adds another tally's gate counts (one per client thread).
  void Merge(const Report& other);
};

/// Load/query threads: the benchmark host's 4 cores.
inline constexpr int kThreads = 4;

double Median(std::vector<double> v);
/// `num / den`, or 0 when there is nothing to divide by (a layer that did
/// no work, or a traced run too short for a traced slice).
double Ratio(double num, double den);
/// Nearest-rank percentile, `q` in (0, 1].
double Percentile(std::vector<double> v, double q);
/// Hands the memory that set-up freed back to the system and restarts
/// the process's peak-RSS mark from the current footprint, so the peak
/// that `PeakRssMiB` reads is that of the workload, not of the set-up
/// repetitions' garbage (which malloc arenas keep in varying amounts).
void ResetPeakRss();
/// Peak resident set size (VmHWM) since the start or `ResetPeakRss`.
double PeakRssMiB();
double NowSeconds();

/// Differences of `MetricsRegistry::SnapshotValues()` since construction.
class RegistryDelta {
 public:
  RegistryDelta();
  double operator()(const std::string& name) const;

 private:
  std::map<std::string, double> before_;
};

/// Wall times of one set-up repetition.
struct SetupTimes {
  double generate_s = 0;
  double build_s = 0;
  double tune_s = 0;  ///< set-up tuning, where a workload has one
};

/// Where the last set-up repetition began: the workload goes on with the
/// state that repetition built.
struct LastSetup {
  double from_us = 0;      ///< trace time
  RegistryDelta counters;  ///< counters since then
};

/// Runs `build(&times)` `reps` times and reports the medians as setup_s,
/// workload.generate_s and core.store_build_s; `times`, when given, gets
/// every repetition's. Each repetition must replace the previous one's
/// state, so that only one lives at a time. The peak-RSS mark restarts
/// before the last repetition (`ResetPeakRss`).
dskg::Status RepeatSetup(int reps,
                         const std::function<dskg::Status(SetupTimes*)>& build,
                         Report* report, LastSetup* last,
                         std::vector<SetupTimes>* times = nullptr);

/// For a workload without durable state a restart loads the store again
/// from its source, here the generator: reports the median over `setups`
/// of generation + build as recover_s, and the triples loaded per second
/// of it as ingest_ops_per_s.
void ReportRestartStandIn(double triples, const std::vector<SetupTimes>& setups,
                          Report* report);

/// What `BuildTunedYago` builds.
struct YagoSpec {
  uint64_t triples = 0;        ///< at scale 1
  uint64_t graph_divisor = 4;  ///< B_G = triples / graph_divisor
  int shards = 1;
  /// The catalog the workload serves: 4 templates x (1 + this many).
  int catalog_mutations = 0;
  /// Durable store in `durability.dir` when set.
  const dskg::persist::DurabilityOptions* durability = nullptr;
};

/// A generated YAGO dataset in an online store, tuned once by DOTIL over
/// the paper's YAGO workload (the set-up of wire-serve and online-ingest).
struct TunedYago {
  dskg::workload::Workload catalog;
  dskg::core::DualStoreConfig cfg;
  std::unique_ptr<dskg::core::OnlineStore> store;
};

/// Builds `out` per `spec` with `args.seed`, timing generation, build and
/// tuning into `times`. `extra` runs inside the generation timing with the
/// dataset (to draw more inputs from it); it may be empty.
dskg::Status BuildTunedYago(
    const Args& args, dskg::ThreadPool* pool, const YagoSpec& spec,
    const std::function<dskg::Status(const dskg::rdf::Dataset&)>& extra,
    TunedYago* out, SetupTimes* times);

/// Graph budget use of `store`'s graph side.
double GraphFill(const dskg::core::DualStore& store);

/// Forwards every hook to `inner`, recording a span around each
/// `AfterBatch` (the tuner's only public entry the runners call).
class TimedTuner : public dskg::core::Tuner {
 public:
  explicit TimedTuner(dskg::core::Tuner* inner) : inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  dskg::Status BeforeWorkload(dskg::core::DualStore* store,
                              const std::vector<dskg::sparql::Query>& all,
                              dskg::CostMeter* meter) override;
  dskg::Status BeforeBatch(dskg::core::DualStore* store,
                           const std::vector<dskg::sparql::Query>& next,
                           dskg::CostMeter* meter) override;
  dskg::Status AfterBatch(dskg::core::DualStore* store,
                          const std::vector<dskg::sparql::Query>& finished,
                          dskg::CostMeter* meter) override;

 private:
  dskg::core::Tuner* inner_;
};

/// Splits `w`'s queries into `k` sub-catalogs by mutation index: each
/// holds every template, with a disjoint 1/k of its drawn constants. The
/// request workloads serve one sub-catalog per time slice and report
/// medians over slices, so a sub-catalog that drew a very popular constant
/// moves one slice, not the result.
std::vector<std::vector<size_t>> SubCatalogs(const dskg::workload::Workload& w,
                                             int k);

/// The next request of a slice-driven loop: time slice `s` serves
/// sub-catalog `s % k`, cycling through it in a seeded order of its own.
class SlicePicker {
 public:
  SlicePicker(const std::vector<std::vector<size_t>>& subs, uint64_t seed);
  size_t Next(int slice);

 private:
  std::vector<std::vector<size_t>> order_;
  std::vector<size_t> next_;
};

/// The median over sub-catalogs of their summed simulated time, in
/// seconds (`sim_us` per catalog query).
double MedianSubCatalogSeconds(const std::vector<std::vector<size_t>>& subs,
                               const std::vector<double>& sim_us);

/// Latency samples tagged with the time slice they started in.
struct SliceSample {
  int slice = 0;
  double value = 0;
};

/// Per slice in `slices`, the `q` percentile of its samples; then the
/// median over those slices.
double MedianSlicePercentile(const std::vector<SliceSample>& samples,
                             const std::vector<int>& slices, double q);

/// Route shares and the share of queries with a complex subquery (the
/// workload shape printed to stderr).
struct RouteMix {
  uint64_t by_route[4] = {0, 0, 0, 0};
  uint64_t complex = 0;
  uint64_t total = 0;

  void Add(dskg::core::Route route, bool has_complex);
  std::string ToString() const;
};

/// Span name of the layer a route executes in.
const char* LayerOf(dskg::core::Route route);

/// One answered query, reduced to what the gates compare.
struct Answer {
  dskg::core::Route route = dskg::core::Route::kRelationalOnly;
  std::vector<std::vector<std::string>> rows;  ///< term text, result order
  /// rel, graph, migrate, graph io, graph cpu (simulated microseconds).
  double charges[5] = {0, 0, 0, 0, 0};

  double sim_us() const { return charges[0] + charges[1] + charges[2]; }
};

/// Order-sensitive digest of result rows (term text).
uint64_t RowsDigest(const std::vector<std::vector<std::string>>& rows);

/// Prepares every distinct template text of `w` on `session` once, in
/// first-appearance order; records a "core.session.prepare_miss" span for
/// each call that parsed (missed the plan cache).
class Catalog {
 public:
  static dskg::Result<Catalog> Prepare(dskg::core::Session* session,
                                       const dskg::workload::Workload& w);

  /// Statement index of query `i`'s template.
  size_t stmt_of(size_t i) const { return stmt_of_[i]; }
  const std::vector<std::string>& texts() const { return texts_; }
  const dskg::core::PreparedQuery& prepared(size_t stmt) const {
    return prepared_[stmt];
  }

 private:
  std::vector<std::string> texts_;
  std::vector<dskg::core::PreparedQuery> prepared_;
  std::vector<size_t> stmt_of_;
};

/// Binds `wq`'s parameters on `handle` and executes it, recording
/// "core.session.bind" spans and one execute span named after the route
/// the query took. A bound term that no longer exists (deleted by an
/// update) yields NotFound, as `PreparedQuery::Bind` documents.
dskg::Result<dskg::core::QueryExecution> BindAndExecute(
    dskg::core::PreparedQuery* handle, const dskg::workload::WorkloadQuery& wq,
    uint64_t request);

/// Result rows as term text plus the five charges.
Answer ToAnswer(const dskg::core::QueryExecution& e,
                const dskg::rdf::Dictionary& dict);

/// Per-layer metrics of the execute spans since `since_us`, grouped by the
/// route (layer) they ran in: query_ms_p50/_p99, query_share (of all the
/// execute spans) and wall_per_sim.
void ReportRouteLayers(const std::vector<trace::Span>& spans, double since_us,
                       Report* report);

/// Prepare-miss and bind times (median) of the spans since `since_us`, and
/// a session's `replans` per execution (`executions`).
void ReportSessionLayer(const std::vector<trace::Span>& spans,
                        double since_us, double replans, double executions,
                        Report* report);

/// DOTIL: `AfterBatch` wall time per call and per round from the spans
/// since `since_us` (covering `rounds` rounds), and the `migrations` and
/// `evictions` of `calls` calls per call.
void ReportTunerLayer(const std::vector<trace::Span>& spans, double since_us,
                      double rounds, double migrations, double evictions,
                      double calls, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
