// The DSKG benchmark harness: one process runs one workload.
//
//   dskg_perfbench --workload batch-tune|wire-serve|online-ingest
//                  --seed N --seconds S --trace 0|1
//                  [--scale F] [--trace-file PATH] [--work-dir DIR]
//                  [--inject-row-error]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1), each with its unit. Progress and a readable table go to
// standard error. The exit code is 0 only when every correctness gate
// passed.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (the self-test checks it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"queries_per_s", "1/s"},
    {"query_p50_ms", "ms"},
    {"query_p95_ms", "ms"},
    {"sim_tti_s", "sim_s"},
    {"ingest_ops_per_s", "1/s"},
    {"recover_s", "s"},
    {"bytes_per_triple", "B"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"core.store_build_s", "s"},
    {"relstore.query_ms_p50", "ms"},
    {"relstore.query_ms_p99", "ms"},
    {"relstore.query_share", "ratio"},
    {"relstore.wall_per_sim", "ratio"},
    {"graphstore.query_ms_p50", "ms"},
    {"graphstore.query_ms_p99", "ms"},
    {"graphstore.query_share", "ratio"},
    {"graphstore.wall_per_sim", "ratio"},
    {"core.dual.query_ms_p50", "ms"},
    {"core.dual.query_ms_p99", "ms"},
    {"core.dual.query_share", "ratio"},
    {"core.dual.wall_per_sim", "ratio"},
    {"common.pool.wait_ms_p50", "ms"},
    {"common.pool.wait_ms_p99", "ms"},
    {"core.dotil.after_batch_ms", "ms"},
    {"core.dotil.after_batch_ms_per_round", "ms"},
    {"core.dotil.migrations_per_batch", "1/batch"},
    {"core.dotil.evictions_per_batch", "1/batch"},
    {"core.dotil.graph_fill_ratio", "ratio"},
    {"core.session.prepare_miss_us", "us"},
    {"core.session.bind_us", "us"},
    {"core.session.replan_ratio", "ratio"},
    {"server.wire_overhead_us", "us"},
    {"server.rejected_ratio", "ratio"},
    {"server.batch_size_mean", "count"},
    {"core.online_store.apply_ms_p50", "ms"},
    {"core.online_store.apply_ms_p99", "ms"},
    {"core.online_store.cow_nodes_per_op", "count"},
    {"core.online_store.epoch_drain_ms", "ms"},
    {"persist.wal_bytes_per_op", "B"},
    {"persist.fsyncs_per_batch", "1/batch"},
    {"persist.snapshot_save_s", "s"},
    {"persist.snapshot_load_ms", "ms"},
    {"persist.replayed_batches", "count"},
    {"trace.overhead_ratio", "ratio"},
};

std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "dskg_perfbench: %s\nusage: dskg_perfbench --workload "
               "batch-tune|wire-serve|online-ingest --seed N --seconds S "
               "--trace 0|1 [--scale F] [--trace-file PATH] [--work-dir DIR] "
               "[--inject-row-error]\n",
               msg);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-row-error") {
      a->inject_row_error = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atoi(v);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--scale") {
      a->scale = std::atof(v);
    } else if (flag == "--trace-file") {
      a->trace_file = v;
    } else if (flag == "--work-dir") {
      a->work_dir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && a->scale > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");

  Report report;
  dskg::Status st;
  if (args.workload == "batch-tune") {
    st = RunBatchTune(args, &report);
  } else if (args.workload == "wire-serve") {
    st = RunWireServe(args, &report);
  } else if (args.workload == "online-ingest") {
    st = RunOnlineIngest(args, &report);
  } else {
    return Usage("unknown workload");
  }
  if (!st.ok()) {
    std::fprintf(stderr, "dskg_perfbench: %s failed: %s\n",
                 args.workload.c_str(), st.ToString().c_str());
    return 1;
  }
  if (args.trace && !args.trace_file.empty()) {
    if (!trace::WriteChromeTrace(args.trace_file, trace::Collect())) {
      std::fprintf(stderr, "dskg_perfbench: cannot write %s\n",
                   args.trace_file.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written to %s\n", args.trace_file.c_str());
  }

  for (const std::string& m : report.mismatches) {
    std::fprintf(stderr, "gate failure: %s\n", m.c_str());
  }
  std::string metrics;
  const MetricDef* begin = args.trace ? std::begin(kPerLayer)
                                      : std::begin(kEndToEnd);
  const MetricDef* end = args.trace ? std::end(kPerLayer)
                                    : std::end(kEndToEnd);
  for (const MetricDef* d = begin; d != end; ++d) {
    auto it = report.metrics.find(d->name);
    if (it == report.metrics.end() && !args.trace) {
      std::fprintf(stderr, "dskg_perfbench: end-to-end metric %s not set\n",
                   d->name);
      return 3;
    }
    const double v = it == report.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "dskg_perfbench: metric %s is not finite\n",
                   d->name);
      return 3;
    }
    std::fprintf(stderr, "  %-38s %16.6f %s\n", d->name, v, d->unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(d->name) + "\": {\"value\": " + Number(v) +
               ", \"unit\": \"" + d->unit + "\"}";
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
