// online-ingest: a durable, 2-shard online store absorbs a seeded Zipf
// update stream (every batch fsynced to the WAL) while one reader runs the
// YAGO catalog through a Session. The run checkpoints halfway, drops the
// store and recovers it from disk. It drives the same B+-trees and graph
// partitions as the read workloads through the write path.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>

#include "common/thread_pool.h"
#include "core/online_store.h"
#include "core/session.h"
#include "persist/wal.h"
#include "workload/update_stream.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dskg;

constexpr uint64_t kTriples = 600000;
/// The reader's catalog: 4 templates x (1 + 249 mutations) = 1,000 queries,
/// enough draws of the Zipf-skewed constants for a steady mix.
constexpr int kReadMutations = 249;
constexpr int kOpsPerBatch = 2000;
constexpr int kSetupReps = 3;
/// Update batches per requested second of ingest (about 100 ms each on a
/// 4-core host). The count is fixed by the arguments, not by the clock, so
/// every run applies, checkpoints and replays the same stream.
constexpr int kBatchesPerSecond = 10;
/// The reader serves one of kSubCatalogs sub-catalogs (100 queries each)
/// per slice of kSliceBatches update batches; reader metrics are medians
/// over slices. A traced run alternates untraced and traced slices
/// (overhead ratio).
constexpr int kSubCatalogs = 10;
constexpr int kSliceBatches = 10;
/// Reader queries between moves to the next core (see CoreRotation).
constexpr uint64_t kQueriesPerCore = 256;

/// Moves the calling thread round-robin over the cores it may run on. A
/// single flat-out thread otherwise stays on one core for the whole run,
/// and on a shared host one core can run 20-40% slower than another for
/// seconds at a time, so the reader's figures would depend on which core
/// it landed on (reader throughput spread 0.31 over ten seeds without the
/// rotation, while the ingest beside it spread 0.06).
class CoreRotation {
 public:
  CoreRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cores_.push_back(c);
    }
  }

  void Next() {
    if (cores_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[next_++ % cores_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cores_;
  size_t next_ = 0;
};

/// Executes catalog query `i` on `handle`; a bound term deleted by the
/// stream falls back to the one-shot path, where it matches nothing (the
/// workload runner's semantics).
Result<core::QueryExecution> ReadQuery(core::OnlineStore* store,
                                       core::PreparedQuery* handle,
                                       const workload::WorkloadQuery& wq,
                                       uint64_t request) {
  Result<core::QueryExecution> r = BindAndExecute(handle, wq, request);
  if (!r.ok() && r.status().IsNotFound()) return store->Process(wq.query);
  return r;
}

/// The store's contents the recovery gate compares: the live triples (as
/// a count and an order-independent digest of their text, so internal ids
/// may differ) and every catalog query's rows as a sorted set, since
/// SPARQL leaves the order of unordered results open.
struct State {
  uint64_t triples = 0;
  uint64_t digest = 0;
  uint64_t next_batch = 0;
  std::vector<std::vector<std::vector<std::string>>> rows;
  std::vector<double> sim_us;  ///< per catalog query
};

Status Capture(core::OnlineStore* store, const workload::Workload& w,
               State* out) {
  const core::DualStore& s = store->active();
  const std::hash<std::string_view> hash;
  out->triples = s.dataset().num_triples();
  for (const rdf::Triple& t : s.dataset().triples()) {
    const uint64_t h = hash(s.dict().TermOf(t.subject)) * 0x9E3779B97F4A7C15ULL ^
                       hash(s.dict().TermOf(t.predicate)) * 0xC2B2AE3D27D4EB4FULL ^
                       hash(s.dict().TermOf(t.object));
    out->digest += h * 0xFF51AFD7ED558CCDULL + (h >> 29);
  }
  out->next_batch = store->next_batch_id();
  core::Session session(store);
  DSKG_ASSIGN_OR_RETURN(Catalog catalog, Catalog::Prepare(&session, w));
  for (size_t i = 0; i < w.queries.size(); ++i) {
    core::PreparedQuery handle = catalog.prepared(catalog.stmt_of(i));
    DSKG_ASSIGN_OR_RETURN(core::QueryExecution e,
                          ReadQuery(store, &handle, w.queries[i], 0));
    perfbench::Answer a = ToAnswer(e, s.dict());
    std::sort(a.rows.begin(), a.rows.end());
    out->rows.push_back(std::move(a.rows));
    out->sim_us.push_back(a.sim_us());
  }
  return Status::OK();
}

}  // namespace

Status RunOnlineIngest(const Args& args, Report* report) {
  ThreadPool pool(kThreads);
  trace::SetEnabled(args.trace);
  const std::string dir_prefix =
      args.work_dir + "/ingest-" + std::to_string(getpid()) + "-";

  persist::DurabilityOptions durability;
  durability.sync_policy = persist::SyncPolicy::kEveryBatch;
  YagoSpec spec;
  spec.triples = kTriples;
  spec.graph_divisor = 2;
  spec.shards = 2;
  spec.catalog_mutations = kReadMutations;
  spec.durability = &durability;
  TunedYago b;
  core::UpdateLog updates;
  int rep = 0;
  LastSetup last;
  DSKG_RETURN_NOT_OK(RepeatSetup(
      kSetupReps,
      [&](SetupTimes* t) {
        // Each repetition starts over in a fresh directory.
        b = TunedYago{};
        if (!durability.dir.empty()) {
          std::filesystem::remove_all(durability.dir);
        }
        durability.dir = dir_prefix + std::to_string(rep++);
        std::filesystem::create_directories(durability.dir);
        return BuildTunedYago(
            args, &pool, spec,
            [&](const rdf::Dataset& ds) {
              workload::UpdateStreamConfig u;
              u.seed = args.seed;
              u.num_batches = kBatchesPerSecond * args.seconds;
              u.ops_per_batch = std::max(
                  1, static_cast<int>(kOpsPerBatch *
                                      std::min(1.0, args.scale)));
              u.insert_fraction = 0.7;
              updates = workload::GenerateUpdateStream(ds, u);
              return Status::OK();
            },
            &b, t);
      },
      report, &last));
  const double dotil_migrations = last.counters("dotil.migrations");
  const double dotil_evictions = last.counters("dotil.evictions");
  report->Set("core.dotil.graph_fill_ratio", GraphFill(b.store->active()));

  // Ingest beside one reader.
  core::OnlineStore* store = b.store.get();
  core::Session reader_session(store);
  DSKG_ASSIGN_OR_RETURN(Catalog catalog,
                        Catalog::Prepare(&reader_session, b.catalog));
  const auto subs = SubCatalogs(b.catalog, kSubCatalogs);
  std::atomic<bool> stop{false};
  std::atomic<int> slice{0};
  std::atomic<uint64_t> reads{0};
  std::vector<SliceSample> read_ms;
  RouteMix mix;
  Report reader_gate;
  std::thread reader([&] {
    std::vector<core::PreparedQuery> handles;
    for (size_t s = 0; s < catalog.texts().size(); ++s) {
      handles.push_back(catalog.prepared(s));
    }
    SlicePicker picker(subs, args.seed);
    CoreRotation cores;
    for (uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
      if (k % kQueriesPerCore == 0) cores.Next();
      const int at = slice.load(std::memory_order_relaxed);
      const size_t i = picker.Next(at);
      const double t0 = NowSeconds();
      Result<core::QueryExecution> r = ReadQuery(
          store, &handles[catalog.stmt_of(i)], b.catalog.queries[i], k + 1);
      read_ms.push_back({at, (NowSeconds() - t0) * 1000.0});
      reads.fetch_add(1, std::memory_order_relaxed);
      ++reader_gate.attempted;
      if (!r.ok()) {
        reader_gate.Fail("read " + r.status().ToString());
        continue;
      }
      mix.Add(r->route, r->split.HasComplexSubquery());
    }
  });

  const RegistryDelta ingest_counters;
  const double ingest_from_us = trace::NowUs();
  const core::Session::Stats session_before = reader_session.stats();
  const int num_batches = static_cast<int>(updates.size());
  std::vector<double> apply_ms;
  std::vector<double> read_rate[2];  // per slice, [traced]
  std::vector<int> slices[2];        // [traced]
  double ops = 0, save_s = 0;
  uint64_t acked = 0;
  Status ingest_status;
  const double ingest_start = NowSeconds();
  for (int k = 0; k < num_batches && ingest_status.ok();) {
    const int at = k / kSliceBatches;
    const bool traced = args.trace && at % 2 == 1;
    trace::SetEnabled(traced);
    slice.store(at);
    const double slice_start = NowSeconds();
    const uint64_t reads_before = reads.load();
    for (int end = std::min(num_batches, k + kSliceBatches);
         k < end && ingest_status.ok(); ++k) {
      const double t0 = NowSeconds();
      {
        trace::Scope span("core.online_store.apply", uint64_t(k) + 1);
        CostMeter meter;
        ingest_status = store->ApplyUpdates(updates.at(k), &meter).status();
      }
      apply_ms.push_back((NowSeconds() - t0) * 1000.0);
      if (!ingest_status.ok()) break;
      ++acked;
      ops += static_cast<double>(updates.at(k).size());
      if (k + 1 == num_batches / 2) {
        trace::Scope span("persist.snapshot_save");
        const double s0 = NowSeconds();
        ingest_status = store->SaveSnapshot();
        save_s = NowSeconds() - s0;
      }
    }
    const double slice_s = NowSeconds() - slice_start;
    read_rate[traced].push_back(
        static_cast<double>(reads.load() - reads_before) / slice_s);
    slices[traced].push_back(at);
  }
  // Every applied mutation over the whole ingest, checkpoint included.
  const double ingest_s = NowSeconds() - ingest_start;
  stop.store(true);
  reader.join();
  trace::SetEnabled(false);
  report->Merge(reader_gate);
  report->attempted += static_cast<uint64_t>(num_batches);
  if (!ingest_status.ok()) {
    report->Fail("ingest: " + ingest_status.ToString());
  }
  report->Set("ingest_ops_per_s", ops / ingest_s);
  report->Set("queries_per_s", Median(read_rate[0]));
  report->Set("query_p50_ms", MedianSlicePercentile(read_ms, slices[0], 0.50));
  report->Set("query_p95_ms", MedianSlicePercentile(read_ms, slices[0], 0.95));

  // Crash: drop the store with no final checkpoint, then recover from the
  // snapshot taken halfway plus the WAL written since.
  State before;
  DSKG_RETURN_NOT_OK(Capture(store, b.catalog, &before));
  report->Set("bytes_per_triple", static_cast<double>(store->StorageBytes()) /
                                      static_cast<double>(before.triples));
  if (args.inject_row_error) before.rows[0].emplace_back();
  const core::Session::Stats session_after = reader_session.stats();
  const double cow_nodes = ingest_counters("store.cow.nodes_cloned");
  const double drain_us = ingest_counters("store.epoch_drain_us.sum");
  const double drains = ingest_counters("store.epoch_drain_us.count");
  const double wal_bytes = ingest_counters("persist.wal.bytes");
  const double fsyncs = ingest_counters("persist.fsync_us.count");
  b.store.reset();

  const RegistryDelta recover_counters;
  core::OnlineStore::RecoveryReport recovery;
  const double r0 = NowSeconds();
  Result<std::unique_ptr<core::OnlineStore>> recovered = [&] {
    trace::Scope span("persist.recover");
    return core::OnlineStore::Recover(b.cfg, durability, &recovery);
  }();
  report->Set("recover_s", NowSeconds() - r0);
  const double load_us = recover_counters("persist.snapshot.load_us.sum");
  if (!recovered.ok()) return recovered.status();

  State after;
  report->Set("peak_rss_mb", PeakRssMiB());
  DSKG_RETURN_NOT_OK(Capture(recovered->get(), b.catalog, &after));
  report->Set("sim_tti_s", MedianSubCatalogSeconds(subs, after.sim_us));
  report->attempted += 3 + after.rows.size();
  if (!recovery.wal_status.ok()) {
    report->Fail("recovery WAL: " + recovery.wal_status.ToString());
  }
  if (after.next_batch != acked || before.next_batch != acked) {
    report->Fail("acknowledged " + std::to_string(acked) +
                 " batches, recovered through " +
                 std::to_string(after.next_batch));
  }
  if (after.triples != before.triples || after.digest != before.digest) {
    report->Fail("recovered " + std::to_string(after.triples) +
                 " triples vs " + std::to_string(before.triples));
  }
  for (size_t i = 0; i < after.rows.size(); ++i) {
    if (after.rows[i] != before.rows[i]) {
      report->Fail("catalog query " + std::to_string(i) + ": " +
                   std::to_string(after.rows[i].size()) + " rows vs " +
                   std::to_string(before.rows[i].size()) + " before crash");
    }
  }
  recovered->reset();
  std::filesystem::remove_all(durability.dir);
  std::fprintf(stderr,
               "online-ingest: %llu triples after ingest, B_G %llu, %d batches "
               "of %zu ops (fsync every batch), 1 reader over %zu queries "
               "(%s), %d shards\n",
               static_cast<unsigned long long>(before.triples),
               static_cast<unsigned long long>(b.cfg.graph_capacity_triples),
               num_batches, updates.at(0).size(), b.catalog.queries.size(),
               mix.ToString().c_str(), b.cfg.num_shards);

  if (!args.trace) return Status::OK();
  report->Set("trace.overhead_ratio",
              Ratio(Median(read_rate[0]), Median(read_rate[1])));
  report->Set("core.online_store.apply_ms_p50", Percentile(apply_ms, 0.50));
  report->Set("core.online_store.apply_ms_p99", Percentile(apply_ms, 0.99));
  report->Set("core.online_store.cow_nodes_per_op", Ratio(cow_nodes, ops));
  report->Set("core.online_store.epoch_drain_ms",
              Ratio(drain_us, drains) / 1000.0);
  report->Set("persist.wal_bytes_per_op", Ratio(wal_bytes, ops));
  report->Set("persist.fsyncs_per_batch",
              Ratio(fsyncs, static_cast<double>(acked)));
  report->Set("persist.snapshot_save_s", save_s);
  report->Set("persist.snapshot_load_ms", load_us / 1000.0);
  report->Set("persist.replayed_batches",
              static_cast<double>(recovery.replayed_batches));
  const auto spans = trace::Collect();
  ReportRouteLayers(spans, ingest_from_us, report);
  ReportSessionLayer(
      spans, 0,
      static_cast<double>(session_after.replans - session_before.replans),
      static_cast<double>(session_after.executions -
                          session_before.executions),
      report);
  // Set-up tuning is one pass of the tuning workload.
  ReportTunerLayer(
      spans, last.from_us, 1, dotil_migrations, dotil_evictions,
      static_cast<double>(
          trace::Named(spans, "core.dotil.after_batch", last.from_us).size()),
      report);
  return Status::OK();
}

}  // namespace perfbench
