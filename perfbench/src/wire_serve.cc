// wire-serve: closed-loop clients on loopback against an in-process
// server over a DOTIL-tuned YAGO store. Requests are short and the working
// set fits in cache, so framing, admission, batching and plan lookup
// dominate; relational join work is small.

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/thread_pool.h"
#include "core/online_store.h"
#include "core/session.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dskg;

constexpr uint64_t kTriples = 120000;
/// Requests: 4 templates x (1 + 249 mutations) = 1,000 distinct bindings,
/// enough draws of the Zipf-skewed constants for a steady mix.
constexpr int kRequestMutations = 249;
constexpr int kClients = 2;
/// Each timed; the restart stand-in is the median of their loads.
constexpr int kSetupReps = 15;
/// Clients serve one of kSubCatalogs sub-catalogs (100 requests each) per
/// slice of kSliceS; metrics are medians over slices. A traced run
/// alternates untraced and traced slices (overhead ratio).
constexpr int kSubCatalogs = 10;
constexpr double kSliceS = 0.5;

/// The in-process answer a wire reply must reproduce.
struct Expected {
  std::string route;
  size_t rows = 0;
  uint64_t digest = 0;
  double charges[5] = {0, 0, 0, 0, 0};
};

/// One served request: the slice it started in, its catalog index and its
/// wire latency.
struct Served {
  int slice = 0;
  size_t request = 0;
  double us = 0;
};

struct ClientRun {
  std::vector<Served> served;
  std::atomic<uint64_t> done{0};
  Report gate;  // this client's gate tally
  Status status;
};

}  // namespace

Status RunWireServe(const Args& args, Report* report) {
  ThreadPool pool(kThreads);
  trace::SetEnabled(args.trace);

  YagoSpec spec;
  spec.triples = kTriples;
  spec.graph_divisor = 4;
  spec.catalog_mutations = kRequestMutations;
  TunedYago b;
  LastSetup last;
  std::vector<SetupTimes> setups;
  DSKG_RETURN_NOT_OK(RepeatSetup(
      kSetupReps,
      [&](SetupTimes* t) {
        b = TunedYago{};
        return BuildTunedYago(args, &pool, spec, {}, &b, t);
      },
      report, &last, &setups));
  const double dotil_migrations = last.counters("dotil.migrations");
  const double dotil_evictions = last.counters("dotil.evictions");
  core::OnlineStore& store = *b.store;
  const double triples =
      static_cast<double>(store.active().dataset().num_triples());
  ReportRestartStandIn(triples, setups, report);
  report->Set("bytes_per_triple",
              static_cast<double>(store.StorageBytes()) / triples);
  const double fill = GraphFill(store.active());
  const uint64_t capacity = b.cfg.graph_capacity_triples;
  report->Set("core.dotil.graph_fill_ratio", fill);

  // The oracle: every request's in-process Session answer. Nothing writes
  // to the store from here on, so one answer per request suffices.
  const workload::Workload& w = b.catalog;
  const size_t n = w.queries.size();
  std::vector<Expected> expected(n);
  std::vector<std::string> texts;
  std::vector<size_t> stmt_of(n);
  const auto subs = SubCatalogs(w, kSubCatalogs);
  RouteMix mix;
  {
    core::Session session(&store);
    DSKG_ASSIGN_OR_RETURN(Catalog catalog, Catalog::Prepare(&session, w));
    texts = catalog.texts();
    const auto guard = store.Read();
    std::vector<double> sim_us(n);
    for (size_t i = 0; i < n; ++i) {
      stmt_of[i] = catalog.stmt_of(i);
      core::PreparedQuery handle = catalog.prepared(stmt_of[i]);
      DSKG_ASSIGN_OR_RETURN(core::QueryExecution e,
                            BindAndExecute(&handle, w.queries[i], 0));
      const Answer a = ToAnswer(e, guard.store().dict());
      Expected& x = expected[i];
      x.route = core::RouteName(a.route);
      x.rows = a.rows.size();
      x.digest = RowsDigest(a.rows);
      std::copy(std::begin(a.charges), std::end(a.charges), x.charges);
      sim_us[i] = a.sim_us();
      mix.Add(e.route, e.split.HasComplexSubquery());
    }
    report->Set("sim_tti_s", MedianSubCatalogSeconds(subs, sim_us));
    if (args.inject_row_error) ++expected[0].rows;
  }

  server::ServerConfig cfg;
  cfg.workers = kThreads;
  cfg.enable_admin = false;
  server::Server srv(&store, cfg);
  DSKG_RETURN_NOT_OK(srv.Start());

  std::atomic<bool> stop{false};
  std::atomic<int> slice{0};
  std::vector<ClientRun> runs(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientRun& run = runs[c];
      Result<server::Client> conn = server::Client::Connect(srv.port());
      if (!conn.ok()) {
        run.status = conn.status();
        return;
      }
      server::Client& client = conn.value();
      for (size_t s = 0; s < texts.size(); ++s) {
        Result<std::vector<std::string>> p =
            client.Prepare(static_cast<uint32_t>(s + 1), texts[s]);
        if (!p.ok()) {
          run.status = p.status();
          return;
        }
      }
      SlicePicker picker(subs, args.seed * 101 + c);
      for (uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
        const int at = slice.load(std::memory_order_relaxed);
        const size_t i = picker.Next(at);
        trace::Scope span("server.request", (uint64_t{1} + c) << 32 | k);
        const double t0 = NowSeconds();
        Result<server::RowsResult> r = client.Execute(
            static_cast<uint32_t>(stmt_of[i] + 1), w.queries[i].bindings);
        run.served.push_back({at, i, (NowSeconds() - t0) * 1e6});
        run.done.fetch_add(1, std::memory_order_relaxed);
        ++run.gate.attempted;
        if (!r.ok()) {
          run.gate.Fail("request " + std::to_string(i) + ": " +
                        r.status().ToString());
          continue;
        }
        const Expected& x = expected[i];
        if (r->rows.size() != x.rows || RowsDigest(r->rows) != x.digest ||
            r->route != x.route || r->rel_us != x.charges[0] ||
            r->graph_us != x.charges[1] || r->migrate_us != x.charges[2] ||
            r->graph_io_us != x.charges[3] ||
            r->graph_cpu_us != x.charges[4]) {
          run.gate.Fail("request " + std::to_string(i) + ": " +
                        std::to_string(r->rows.size()) + " rows vs oracle " +
                        std::to_string(x.rows));
        }
      }
    });
  }
  auto completed = [&] {
    uint64_t total = 0;
    for (const ClientRun& run : runs) total += run.done.load();
    return total;
  };
  // Throughput per slice; a traced run flips tracing every slice.
  std::vector<double> rate[2];  // [traced]
  std::vector<int> slices[2];   // [traced]
  const double start = NowSeconds();
  for (int k = 0; NowSeconds() - start < args.seconds; ++k) {
    const bool traced = args.trace && k % 2 == 1;
    trace::SetEnabled(traced);
    slice.store(k);
    const uint64_t before = completed();
    const double t0 = NowSeconds();
    std::this_thread::sleep_for(std::chrono::duration<double>(kSliceS));
    rate[traced].push_back(static_cast<double>(completed() - before) /
                           (NowSeconds() - t0));
    slices[traced].push_back(k);
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  trace::SetEnabled(false);
  const server::Server::Stats stats = srv.stats();
  srv.Stop();

  report->Set("peak_rss_mb", PeakRssMiB());
  std::vector<SliceSample> latency_ms;
  for (const ClientRun& run : runs) {
    DSKG_RETURN_NOT_OK(run.status);
    report->Merge(run.gate);
    for (const Served& x : run.served) {
      latency_ms.push_back({x.slice, x.us / 1000.0});
    }
  }
  report->Set("queries_per_s", Median(rate[0]));
  report->Set("query_p50_ms",
              MedianSlicePercentile(latency_ms, slices[0], 0.50));
  report->Set("query_p95_ms",
              MedianSlicePercentile(latency_ms, slices[0], 0.95));
  std::fprintf(stderr,
               "wire-serve: %.0f triples, B_G %llu (%.1f%% full), %zu "
               "requests, %s, %d connections, %d server workers\n",
               triples, static_cast<unsigned long long>(capacity),
               100.0 * fill, n, mix.ToString().c_str(), kClients, kThreads);
  if (!args.trace) return Status::OK();

  report->Set("trace.overhead_ratio", Ratio(Median(rate[0]), Median(rate[1])));
  report->Set("server.rejected_ratio",
              Ratio(static_cast<double>(stats.requests_rejected),
                    static_cast<double>(stats.requests_admitted +
                                        stats.requests_rejected)));
  report->Set("server.batch_size_mean",
              Ratio(static_cast<double>(stats.requests_admitted),
                    static_cast<double>(stats.batches)));

  // The same request sequences in process, traced, on the same store: the
  // wire's share of a request is the difference of the two medians.
  trace::SetEnabled(true);
  const double inproc_from_us = trace::NowUs();
  core::Session session(&store);
  std::vector<std::vector<double>> inproc_us(kClients);
  std::vector<Status> inproc_status(kClients);
  std::vector<std::thread> replays;
  for (int c = 0; c < kClients; ++c) {
    replays.emplace_back([&, c] {
      Result<Catalog> catalog = Catalog::Prepare(&session, w);
      if (!catalog.ok()) {
        inproc_status[c] = catalog.status();
        return;
      }
      std::vector<core::PreparedQuery> handles;
      for (size_t s = 0; s < texts.size(); ++s) {
        handles.push_back(catalog->prepared(s));
      }
      uint64_t k = 0;
      for (const Served& x : runs[c].served) {
        if (x.slice % 2 == 0) continue;  // only the traced slices' requests
        const size_t i = x.request;
        ++k;
        const double t0 = NowSeconds();
        Result<core::QueryExecution> r = BindAndExecute(
            &handles[stmt_of[i]], w.queries[i], (uint64_t{1} + c) << 32 | k);
        inproc_us[c].push_back((NowSeconds() - t0) * 1e6);
        if (!r.ok()) {
          inproc_status[c] = r.status();
          return;
        }
      }
    });
  }
  for (std::thread& t : replays) t.join();
  trace::SetEnabled(false);
  std::vector<double> all_inproc;
  for (int c = 0; c < kClients; ++c) {
    DSKG_RETURN_NOT_OK(inproc_status[c]);
    all_inproc.insert(all_inproc.end(), inproc_us[c].begin(),
                      inproc_us[c].end());
  }
  std::vector<double> traced_wire_us;
  for (const ClientRun& run : runs) {
    for (const Served& x : run.served) {
      if (x.slice % 2 == 1) traced_wire_us.push_back(x.us);
    }
  }
  report->Set("server.wire_overhead_us",
              Percentile(traced_wire_us, 0.5) - Percentile(all_inproc, 0.5));

  const auto spans = trace::Collect();
  ReportRouteLayers(spans, inproc_from_us, report);
  ReportSessionLayer(spans, 0, static_cast<double>(session.stats().replans),
                     static_cast<double>(session.stats().executions), report);
  // Set-up tuning is one pass of the tuning workload.
  ReportTunerLayer(
      spans, last.from_us, 1, dotil_migrations, dotil_evictions,
      static_cast<double>(
          trace::Named(spans, "core.dotil.after_batch", last.from_us).size()),
      report);
  return Status::OK();
}

}  // namespace perfbench
