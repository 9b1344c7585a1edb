#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string_view>

#include "common/telemetry.h"
#include "core/dotil.h"
#include "core/runner.h"
#include "workload/generators.h"
#include "workload/templates.h"

namespace perfbench {

using dskg::Result;
using dskg::Status;
using dskg::core::QueryExecution;
using dskg::core::Route;

void Report::Fail(std::string what) {
  ++failed;
  if (mismatches.size() < 8) mismatches.push_back(std::move(what));
}

void Report::Merge(const Report& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& m : other.mismatches) {
    if (mismatches.size() < 8) mismatches.push_back(m);
  }
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in KiB
    }
  }
  return 0;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RegistryDelta::RegistryDelta()
    : before_(dskg::telemetry::MetricsRegistry::Global().SnapshotValues()) {}

double RegistryDelta::operator()(const std::string& name) const {
  const auto now = dskg::telemetry::MetricsRegistry::Global().SnapshotValues();
  const auto a = now.find(name);
  const auto b = before_.find(name);
  return (a == now.end() ? 0 : a->second) - (b == before_.end() ? 0 : b->second);
}

Status RepeatSetup(int reps, const std::function<Status(SetupTimes*)>& build,
                   Report* report, LastSetup* last,
                   std::vector<SetupTimes>* times) {
  std::vector<double> setup_s, generate_s, build_s;
  for (int r = 0; r < reps; ++r) {
    if (r == reps - 1) ResetPeakRss();
    last->from_us = trace::NowUs();
    last->counters = RegistryDelta();
    SetupTimes t;
    DSKG_RETURN_NOT_OK(build(&t));
    if (times != nullptr) times->push_back(t);
    generate_s.push_back(t.generate_s);
    build_s.push_back(t.build_s);
    setup_s.push_back(t.generate_s + t.build_s + t.tune_s);
  }
  report->Set("setup_s", Median(setup_s));
  report->Set("workload.generate_s", Median(generate_s));
  report->Set("core.store_build_s", Median(build_s));
  return Status::OK();
}

void ReportRestartStandIn(double triples, const std::vector<SetupTimes>& setups,
                          Report* report) {
  std::vector<double> load_s;
  for (const SetupTimes& t : setups) load_s.push_back(t.generate_s + t.build_s);
  report->Set("recover_s", Median(load_s));
  report->Set("ingest_ops_per_s", triples / Median(load_s));
}

Status BuildTunedYago(
    const Args& args, dskg::ThreadPool* pool, const YagoSpec& spec,
    const std::function<Status(const dskg::rdf::Dataset&)>& extra,
    TunedYago* out, SetupTimes* times) {
  // Constants are drawn by frequency; at the generator's default skew a
  // few draws hit hugely popular values and swing a run between seeds.
  constexpr double kSkew = 0.4;
  // The paper's YAGO workload (4 templates x 5) tunes the store.
  constexpr int kTuneMutations = 4;
  std::unique_ptr<dskg::rdf::Dataset> ds;
  dskg::workload::Workload tuning;
  {
    trace::Scope span("workload.generate");
    const double t0 = NowSeconds();
    dskg::workload::YagoConfig c;
    c.seed = args.seed;
    c.target_triples = static_cast<uint64_t>(
        static_cast<double>(spec.triples) * args.scale);
    c.skew = kSkew;
    ds = std::make_unique<dskg::rdf::Dataset>(
        dskg::workload::GenerateYago(c, pool));
    dskg::workload::WorkloadBuilder builder(ds.get());
    dskg::workload::WorkloadOptions opt;
    opt.seed = args.seed;
    opt.mutations_per_template = kTuneMutations;
    DSKG_ASSIGN_OR_RETURN(
        tuning, builder.Build("yago", dskg::workload::YagoTemplates(), opt));
    opt.mutations_per_template = spec.catalog_mutations;
    DSKG_ASSIGN_OR_RETURN(
        out->catalog,
        builder.Build("yago", dskg::workload::YagoTemplates(), opt));
    if (extra) DSKG_RETURN_NOT_OK(extra(*ds));
    times->generate_s = NowSeconds() - t0;
  }
  {
    trace::Scope span("core.store_build");
    const double t0 = NowSeconds();
    out->cfg = dskg::core::DualStoreConfig{};
    out->cfg.graph_capacity_triples = ds->num_triples() / spec.graph_divisor;
    out->cfg.num_shards = spec.shards;
    out->cfg.load_pool = pool;
    if (spec.durability != nullptr) {
      out->store = std::make_unique<dskg::core::OnlineStore>(
          *ds, out->cfg, *spec.durability);
      DSKG_RETURN_NOT_OK(out->store->poison_status());
    } else {
      out->store = std::make_unique<dskg::core::OnlineStore>(*ds, out->cfg);
    }
    times->build_s = NowSeconds() - t0;
  }
  // Tune once: every window of the tuning workload re-runs DOTIL.
  trace::Scope span("bench.tune");
  const double t0 = NowSeconds();
  dskg::core::DotilTuner dotil;
  dotil.set_probe_pool(pool);
  TimedTuner tuner(&dotil);
  dskg::core::WorkloadRunner runner(nullptr, &tuner);
  dskg::core::OnlineRunOptions opt;
  opt.drift_threshold = 0;
  DSKG_RETURN_NOT_OK(runner
                         .RunOnline(out->store.get(), tuning,
                                    dskg::core::UpdateLog{}, opt, pool)
                         .status());
  times->tune_s = NowSeconds() - t0;
  return Status::OK();
}

double GraphFill(const dskg::core::DualStore& store) {
  return Ratio(static_cast<double>(store.graph().used_triples()),
               static_cast<double>(store.graph().capacity_triples()));
}

Status TimedTuner::BeforeWorkload(dskg::core::DualStore* store,
                                  const std::vector<dskg::sparql::Query>& all,
                                  dskg::CostMeter* meter) {
  return inner_->BeforeWorkload(store, all, meter);
}

Status TimedTuner::BeforeBatch(dskg::core::DualStore* store,
                               const std::vector<dskg::sparql::Query>& next,
                               dskg::CostMeter* meter) {
  return inner_->BeforeBatch(store, next, meter);
}

Status TimedTuner::AfterBatch(
    dskg::core::DualStore* store,
    const std::vector<dskg::sparql::Query>& finished, dskg::CostMeter* meter) {
  trace::Scope span("core.dotil.after_batch");
  return inner_->AfterBatch(store, finished, meter);
}

std::vector<std::vector<size_t>> SubCatalogs(const dskg::workload::Workload& w,
                                             int k) {
  int mutations = 0;
  for (const auto& q : w.queries) mutations = std::max(mutations, q.mutation + 1);
  std::vector<std::vector<size_t>> subs(k);
  for (size_t i = 0; i < w.queries.size(); ++i) {
    subs[w.queries[i].mutation * k / mutations].push_back(i);
  }
  return subs;
}

SlicePicker::SlicePicker(const std::vector<std::vector<size_t>>& subs,
                         uint64_t seed)
    : order_(subs), next_(subs.size(), 0) {
  for (size_t j = 0; j < order_.size(); ++j) {
    std::mt19937_64 rng(seed * 1000003 + j);
    std::vector<size_t>& items = order_[j];
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[rng() % i]);
    }
  }
}

size_t SlicePicker::Next(int slice) {
  const size_t j = static_cast<size_t>(slice) % order_.size();
  return order_[j][next_[j]++ % order_[j].size()];
}

double MedianSubCatalogSeconds(const std::vector<std::vector<size_t>>& subs,
                               const std::vector<double>& sim_us) {
  std::vector<double> sub_s;
  for (const std::vector<size_t>& sub : subs) {
    double us = 0;
    for (size_t i : sub) us += sim_us[i];
    sub_s.push_back(us * 1e-6);
  }
  return Median(sub_s);
}

double MedianSlicePercentile(const std::vector<SliceSample>& samples,
                             const std::vector<int>& slices, double q) {
  std::map<int, std::vector<double>> by_slice;
  for (int s : slices) by_slice[s];
  for (const SliceSample& x : samples) {
    auto it = by_slice.find(x.slice);
    if (it != by_slice.end()) it->second.push_back(x.value);
  }
  std::vector<double> per_slice;
  for (const auto& [slice, values] : by_slice) {
    if (!values.empty()) per_slice.push_back(Percentile(values, q));
  }
  return Median(per_slice);
}

void RouteMix::Add(Route route, bool has_complex) {
  ++by_route[static_cast<int>(route)];
  complex += has_complex ? 1 : 0;
  ++total;
}

std::string RouteMix::ToString() const {
  auto pct = [&](uint64_t n) {
    return std::to_string(total > 0 ? (100 * n + total / 2) / total : 0) + "%";
  };
  return "routes relational " + pct(by_route[0]) + " graph " +
         pct(by_route[1]) + " dual " + pct(by_route[2]) +
         ", complex subquery " + pct(complex);
}

const char* LayerOf(Route route) {
  switch (route) {
    case Route::kRelationalOnly: return "relstore.execute";
    case Route::kGraphOnly: return "graphstore.execute";
    case Route::kDualStore: return "core.dual.execute";
    case Route::kViewAssisted: return "relstore.views.execute";
  }
  return "unknown.execute";
}

Result<Catalog> Catalog::Prepare(dskg::core::Session* session,
                                 const dskg::workload::Workload& w) {
  Catalog c;
  for (const dskg::workload::WorkloadQuery& wq : w.queries) {
    if (wq.prepared_text.empty()) {
      return Status::InvalidArgument("template without $parameters");
    }
    auto it = std::find(c.texts_.begin(), c.texts_.end(), wq.prepared_text);
    if (it == c.texts_.end()) {
      const uint64_t misses = session->stats().prepares;
      trace::Scope span("core.session.prepare");
      Result<dskg::core::PreparedQuery> p = session->Prepare(wq.prepared_text);
      if (!p.ok()) return p.status();
      if (session->stats().prepares != misses) {
        span.Rename("core.session.prepare_miss");
      }
      c.texts_.push_back(wq.prepared_text);
      c.prepared_.push_back(std::move(p).ValueOrDie());
      it = c.texts_.end() - 1;
    }
    c.stmt_of_.push_back(static_cast<size_t>(it - c.texts_.begin()));
  }
  return c;
}

Result<QueryExecution> BindAndExecute(dskg::core::PreparedQuery* handle,
                                      const dskg::workload::WorkloadQuery& wq,
                                      uint64_t request) {
  for (const auto& [param, term] : wq.bindings) {
    trace::Scope span("core.session.bind", request);
    DSKG_RETURN_NOT_OK(handle->Bind(param, term));
  }
  trace::Scope span("core.session.execute", request);
  Result<QueryExecution> r = handle->ExecuteAll();
  if (r.ok()) {
    span.Rename(LayerOf(r->route));
    span.SetSim(r->total_micros());
  }
  return r;
}

Answer ToAnswer(const QueryExecution& e, const dskg::rdf::Dictionary& dict) {
  Answer a;
  a.route = e.route;
  const dskg::sparql::BindingTable& t = e.result;
  a.rows.resize(t.NumRows());
  for (size_t r = 0; r < t.NumRows(); ++r) {
    a.rows[r].reserve(t.NumColumns());
    for (size_t c = 0; c < t.NumColumns(); ++c) {
      a.rows[r].emplace_back(dict.TermOf(t.At(r, c)));
    }
  }
  a.charges[0] = e.rel_micros;
  a.charges[1] = e.graph_micros;
  a.charges[2] = e.migrate_micros;
  a.charges[3] = e.graph_io_micros;
  a.charges[4] = e.graph_cpu_micros;
  return a;
}

uint64_t RowsDigest(const std::vector<std::vector<std::string>>& rows) {
  // FNV-1a over the cells, with separators so cell boundaries count.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (const auto& row : rows) {
    for (const std::string& cell : row) {
      for (char c : cell) mix(static_cast<unsigned char>(c));
      mix(0x1f);
    }
    mix(0x1e);
  }
  return h;
}

void ReportRouteLayers(const std::vector<trace::Span>& spans, double since_us,
                       Report* report) {
  const std::pair<const char*, const char*> layers[] = {
      {"relstore", "relstore.execute"},
      {"graphstore", "graphstore.execute"},
      {"core.dual", "core.dual.execute"}};
  size_t executed = 0;
  for (const trace::Span& s : spans) {
    const std::string_view name(s.name);
    if (s.start_us >= since_us && name.size() > 8 &&
        name.substr(name.size() - 8) == ".execute") {
      ++executed;
    }
  }
  for (const auto& [layer, span_name] : layers) {
    std::vector<double> ms;
    double wall_us = 0, sim_us = 0;
    for (const trace::Span* s : trace::Named(spans, span_name, since_us)) {
      ms.push_back(s->dur_us() / 1000.0);
      wall_us += s->dur_us();
      sim_us += s->sim_us;
    }
    const std::string p(layer);
    report->Set(p + ".query_ms_p50", Percentile(ms, 0.50));
    report->Set(p + ".query_ms_p99", Percentile(ms, 0.99));
    report->Set(p + ".query_share", Ratio(static_cast<double>(ms.size()),
                                          static_cast<double>(executed)));
    report->Set(p + ".wall_per_sim", Ratio(wall_us, sim_us));
  }
}

void ReportSessionLayer(const std::vector<trace::Span>& spans,
                        double since_us, double replans, double executions,
                        Report* report) {
  auto median_us = [&](const char* name) {
    std::vector<double> us;
    for (const trace::Span* s : trace::Named(spans, name, since_us)) {
      us.push_back(s->dur_us());
    }
    return Median(us);
  };
  report->Set("core.session.prepare_miss_us",
              median_us("core.session.prepare_miss"));
  report->Set("core.session.bind_us", median_us("core.session.bind"));
  report->Set("core.session.replan_ratio", Ratio(replans, executions));
}

void ReportTunerLayer(const std::vector<trace::Span>& spans, double since_us,
                      double rounds, double migrations, double evictions,
                      double calls, Report* report) {
  double total_ms = 0;
  size_t spans_seen = 0;
  for (const trace::Span* s :
       trace::Named(spans, "core.dotil.after_batch", since_us)) {
    total_ms += s->dur_us() / 1000.0;
    ++spans_seen;
  }
  report->Set("core.dotil.after_batch_ms",
              Ratio(total_ms, static_cast<double>(spans_seen)));
  report->Set("core.dotil.after_batch_ms_per_round", Ratio(total_ms, rounds));
  report->Set("core.dotil.migrations_per_batch",
              Ratio(migrations, calls));
  report->Set("core.dotil.evictions_per_batch",
              Ratio(evictions, calls));
}

}  // namespace perfbench
