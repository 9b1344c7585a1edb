// batch-tune: the paper's §6.1 protocol as a closed loop of rounds. A round
// is the WatDiv L/S/F/C workload in 5 batches; each batch's queries fan out
// through one Session on the pool, and DOTIL's AfterBatch runs between
// batches. Relational joins and the tuner do most of the work; the server
// and persistence tiers do none.
//
// Every round draws fresh constants for the same 20 templates (its own
// workload seed), so the tuner keeps learning across rounds. Constants are
// sampled by frequency from Zipf-skewed data and a few draws hit very
// popular values; throughput and simulated TTI are medians over rounds, so
// one round that drew them does not move the result.

#include <cstdio>
#include <future>
#include <memory>
#include <optional>

#include "common/thread_pool.h"
#include "core/dotil.h"
#include "core/dual_store.h"
#include "core/runner.h"
#include "core/session.h"
#include "workload/generators.h"
#include "workload/templates.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dskg;

constexpr uint64_t kTriples = 100000;
constexpr double kSkew = 0.4;
/// 20 templates x (1 + 15 mutations) = 320 queries per round.
constexpr int kMutations = 15;
constexpr int kBatches = 5;
/// Each timed; the restart stand-in is the median of their loads.
constexpr int kSetupReps = 15;
/// Timed rounds at least; sim_tti_s is the median of exactly these.
constexpr int kMinTimedRounds = 9;

std::vector<workload::QueryTemplate> Templates() {
  std::vector<workload::QueryTemplate> all;
  for (auto part : {workload::WatDivLinearTemplates(),
                    workload::WatDivStarTemplates(),
                    workload::WatDivSnowflakeTemplates(),
                    workload::WatDivComplexTemplates()}) {
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

/// Round `round`'s workload: the templates with freshly drawn constants.
Result<workload::Workload> RoundWorkload(const rdf::Dataset& ds, uint64_t seed,
                                         uint64_t round) {
  workload::WorkloadOptions opt;
  opt.mutations_per_template = kMutations;
  opt.ordered = true;
  opt.seed = seed * 1000003 + round;
  return workload::WorkloadBuilder(&ds).Build("watdiv-lsfc", Templates(), opt);
}

/// One generated dataset and loaded store.
struct Built {
  std::unique_ptr<rdf::Dataset> ds;
  workload::Workload first;  ///< round 0's workload
  std::unique_ptr<core::DualStore> store;
};

Status Build(const Args& args, ThreadPool* pool, Built* b, SetupTimes* t) {
  {
    trace::Scope span("workload.generate");
    const double t0 = NowSeconds();
    workload::WatDivConfig c;
    c.seed = args.seed;
    c.target_triples = static_cast<uint64_t>(kTriples * args.scale);
    c.skew = kSkew;
    b->ds = std::make_unique<rdf::Dataset>(workload::GenerateWatDiv(c, pool));
    DSKG_ASSIGN_OR_RETURN(b->first, RoundWorkload(*b->ds, args.seed, 0));
    t->generate_s = NowSeconds() - t0;
  }
  trace::Scope span("core.store_build");
  const double t0 = NowSeconds();
  core::DualStoreConfig cfg;
  cfg.graph_capacity_triples = b->ds->num_triples() / 2;
  cfg.load_pool = pool;
  cfg.exec_pool = pool;
  b->store = std::make_unique<core::DualStore>(b->ds.get(), cfg);
  t->build_s = NowSeconds() - t0;
  return Status::OK();
}

/// One executed query, reduced to what the gate and the metrics need.
struct Outcome {
  Status status;
  core::Route route = core::Route::kRelationalOnly;
  bool has_complex = false;
  size_t rows = 0;
  double charges[5] = {0, 0, 0, 0, 0};
  double latency_ms = 0;
};

/// Runs one round of `w`: every batch fans out on `pool`, then `tuner`
/// learns from the batch's complex subqueries.
Status RunRound(core::DualStore* store, const workload::Workload& w,
                core::Session* session, core::Tuner* tuner, ThreadPool* pool,
                uint64_t round, std::vector<Outcome>* out) {
  DSKG_ASSIGN_OR_RETURN(Catalog catalog, Catalog::Prepare(session, w));
  out->assign(w.queries.size(), Outcome{});
  for (const auto& [begin, end] : w.BatchRanges(kBatches)) {
    trace::Scope batch("bench.batch", round);
    const uint64_t parent = batch.id();
    std::vector<std::optional<sparql::Query>> complex(end - begin);
    std::vector<std::future<void>> futures;
    for (size_t i = begin; i < end; ++i) {
      const double submit_us = trace::NowUs();
      futures.push_back(pool->Submit([&, i, submit_us, parent] {
        const uint64_t request = round * 100000 + i + 1;
        trace::Record("common.pool.wait", submit_us, trace::NowUs(), parent,
                      request);
        trace::Scope query("bench.query", request, parent);
        core::PreparedQuery handle = catalog.prepared(catalog.stmt_of(i));
        const double t0 = NowSeconds();
        Result<core::QueryExecution> r =
            BindAndExecute(&handle, w.queries[i], request);
        Outcome& o = (*out)[i];
        o.latency_ms = (NowSeconds() - t0) * 1000.0;
        if (!r.ok()) {
          o.status = r.status();
          return;
        }
        const core::QueryExecution& e = r.value();
        o.route = e.route;
        o.rows = e.result.NumRows();
        o.charges[0] = e.rel_micros;
        o.charges[1] = e.graph_micros;
        o.charges[2] = e.migrate_micros;
        o.charges[3] = e.graph_io_micros;
        o.charges[4] = e.graph_cpu_micros;
        o.has_complex = e.split.HasComplexSubquery();
        if (o.has_complex) complex[i - begin] = *e.split.complex;
      }));
    }
    // Wait for every task before get() may rethrow: they write `out` and
    // read `catalog`, which unwinding would destroy.
    for (std::future<void>& f : futures) f.wait();
    for (std::future<void>& f : futures) f.get();

    std::vector<sparql::Query> finished;
    for (size_t i = begin; i < end; ++i) {
      DSKG_RETURN_NOT_OK((*out)[i].status);
      if (complex[i - begin].has_value()) {
        finished.push_back(std::move(*complex[i - begin]));
      }
    }
    CostMeter meter;
    DSKG_RETURN_NOT_OK(tuner->AfterBatch(store, finished, &meter));
  }
  return Status::OK();
}

/// Gate: per-query route, rows and every charge equal the workload
/// runner's on an identically built twin, round by round (tuning
/// included). The twin tunes with its own DOTIL and runs RunParallel, which
/// the repository's equivalence tests hold bit-identical to the serial Run
/// at a fraction of its wall time. Each round's workload is drawn again
/// from the twin's dataset, which the same seed makes identical.
Status CheckAgainstTwin(const Args& args, ThreadPool* pool,
                        const std::vector<std::vector<Outcome>>& rounds,
                        Report* report) {
  Built twin;
  SetupTimes unused;
  DSKG_RETURN_NOT_OK(Build(args, pool, &twin, &unused));
  core::DotilTuner oracle_tuner;
  oracle_tuner.set_probe_pool(pool);
  core::WorkloadRunner oracle(twin.store.get(), &oracle_tuner);
  for (size_t r = 0; r < rounds.size(); ++r) {
    DSKG_ASSIGN_OR_RETURN(workload::Workload w,
                          RoundWorkload(*twin.ds, args.seed, r));
    DSKG_ASSIGN_OR_RETURN(core::RunMetrics m,
                          oracle.RunParallel(w, kBatches, pool));
    size_t i = 0;
    for (const core::BatchMetrics& bm : m.batches) {
      for (const core::QueryTrace& t : bm.queries) {
        if (i == rounds[r].size()) break;
        const Outcome& o = rounds[r][i];
        const size_t want_rows =
            t.result_rows + (args.inject_row_error && r == 0 && i == 0 ? 1 : 0);
        ++report->attempted;
        if (o.route != t.route || o.rows != want_rows ||
            o.charges[0] != t.rel_micros || o.charges[1] != t.graph_micros ||
            o.charges[2] != t.migrate_micros ||
            o.charges[3] != t.graph_io_micros ||
            o.charges[4] != t.graph_cpu_micros) {
          report->Fail("round " + std::to_string(r) + " query " +
                       std::to_string(i) + ": rows " + std::to_string(o.rows) +
                       " vs oracle " + std::to_string(want_rows));
        }
        ++i;
      }
    }
    if (i != rounds[r].size() || i != w.queries.size()) {
      report->Fail("round " + std::to_string(r) + ": oracle ran " +
                   std::to_string(i) + " of " +
                   std::to_string(rounds[r].size()) + " queries");
    }
  }
  return Status::OK();
}

}  // namespace

Status RunBatchTune(const Args& args, Report* report) {
  ThreadPool pool(kThreads);
  trace::SetEnabled(args.trace);

  // Set-up: generate + load kSetupReps times, one store alive at a time;
  // the workload goes on with the last.
  Built b;
  LastSetup last;
  std::vector<SetupTimes> setups;
  DSKG_RETURN_NOT_OK(RepeatSetup(
      kSetupReps,
      [&](SetupTimes* t) {
        b = Built{};
        return Build(args, &pool, &b, t);
      },
      report, &last, &setups));
  const double triples = static_cast<double>(b.ds->num_triples());
  ReportRestartStandIn(triples, setups, report);
  report->Set("bytes_per_triple",
              static_cast<double>(b.ds->StorageBytes() +
                                  b.store->table().IndexBytes()) /
                  triples);

  core::DotilTuner dotil;
  dotil.set_probe_pool(&pool);
  TimedTuner tuner(&dotil);
  core::Session session(b.store.get());

  // Warm-up round, then timed rounds. A traced run alternates untraced and
  // traced rounds so it can report the tracing overhead.
  std::vector<std::vector<Outcome>> rounds(1);
  DSKG_RETURN_NOT_OK(
      RunRound(b.store.get(), b.first, &session, &tuner, &pool, 0, &rounds[0]));

  const double timed_from_us = trace::NowUs();
  const RegistryDelta counters;
  const core::Session::Stats session_before = session.stats();
  // Per timed round, [traced]: queries/s; per untraced query: latency,
  // tagged with its round; per round of the first kMinTimedRounds:
  // simulated TTI.
  std::vector<double> rate[2], tti_s;
  std::vector<SliceSample> latency_ms;
  std::vector<int> untraced_rounds;
  RouteMix mix;
  const double start = NowSeconds();
  for (int k = 0; k < kMinTimedRounds || NowSeconds() - start < args.seconds;
       ++k) {
    const uint64_t round = rounds.size();
    DSKG_ASSIGN_OR_RETURN(workload::Workload w,
                          RoundWorkload(*b.ds, args.seed, round));
    rounds.emplace_back();
    const bool traced = args.trace && k % 2 == 1;
    trace::SetEnabled(traced);
    const double t0 = NowSeconds();
    DSKG_RETURN_NOT_OK(RunRound(b.store.get(), w, &session, &tuner, &pool,
                                round, &rounds.back()));
    const double wall = NowSeconds() - t0;
    trace::SetEnabled(false);

    double sim_us = 0;
    if (!traced) untraced_rounds.push_back(k);
    for (const Outcome& o : rounds.back()) {
      if (!traced) latency_ms.push_back({k, o.latency_ms});
      sim_us += o.charges[0] + o.charges[1] + o.charges[2];
      mix.Add(o.route, o.has_complex);
    }
    rate[traced].push_back(static_cast<double>(rounds.back().size()) / wall);
    if (k < kMinTimedRounds) tti_s.push_back(sim_us * 1e-6);
  }
  const size_t timed_rounds = rounds.size() - 1;
  // Rounds repeat the same templates, so medians over rounds shrug off a
  // round slowed by a noisy neighbour.
  report->Set("queries_per_s", Median(rate[0]));
  report->Set("query_p50_ms",
              MedianSlicePercentile(latency_ms, untraced_rounds, 0.50));
  report->Set("query_p95_ms",
              MedianSlicePercentile(latency_ms, untraced_rounds, 0.95));
  report->Set("sim_tti_s", Median(tti_s));
  report->Set("core.dotil.graph_fill_ratio", GraphFill(*b.store));
  report->Set("peak_rss_mb", PeakRssMiB());
  if (args.trace) {
    const auto spans = trace::Collect();
    const core::Session::Stats session_after = session.stats();
    ReportRouteLayers(spans, timed_from_us, report);
    ReportSessionLayer(
        spans, 0,
        static_cast<double>(session_after.replans - session_before.replans),
        static_cast<double>(session_after.executions -
                            session_before.executions),
        report);
    ReportTunerLayer(spans, timed_from_us, static_cast<double>(rate[1].size()),
                     counters("dotil.migrations"), counters("dotil.evictions"),
                     static_cast<double>(timed_rounds * kBatches), report);
    std::vector<double> wait_ms;
    for (const trace::Span* s :
         trace::Named(spans, "common.pool.wait", timed_from_us)) {
      wait_ms.push_back(s->dur_us() / 1000.0);
    }
    report->Set("common.pool.wait_ms_p50", Percentile(wait_ms, 0.50));
    report->Set("common.pool.wait_ms_p99", Percentile(wait_ms, 0.99));
    report->Set("trace.overhead_ratio", Ratio(Median(rate[0]), Median(rate[1])));
  }

  const double oracle_start = NowSeconds();
  DSKG_RETURN_NOT_OK(CheckAgainstTwin(args, &pool, rounds, report));
  const auto& graph = b.store->graph();
  std::fprintf(stderr,
               "batch-tune: %.0f triples, B_G %llu (%.1f%% full), %zu timed "
               "rounds of %zu queries, %s, %d pool threads, oracle %.1f s\n",
               triples,
               static_cast<unsigned long long>(graph.capacity_triples()),
               100.0 * GraphFill(*b.store), timed_rounds,
               b.first.queries.size(), mix.ToString().c_str(), kThreads,
               NowSeconds() - oracle_start);
  return Status::OK();
}

}  // namespace perfbench
