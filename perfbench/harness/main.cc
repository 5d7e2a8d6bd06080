// perfbench: one run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints a human-readable report (lines starting with '#') and, as its last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, measured with tracing off;
// with --trace 1 they are the per-layer ones (see ../README.md). Exits 1
// when the correctness verdict fails, 2 on bad arguments or a failed run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "harness/layers.h"
#include "harness/stats.h"
#include "harness/workloads.h"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
  // Traced runs: the workload whose run measures it ("" = the run's own
  // workload, "isolated" = the single-threaded layer timings).
  const char* home;
};

const std::vector<Metric>& EndToEndMetrics() {
  static const std::vector<Metric> m = {
      {"setup_s", "s", ""},
      {"deliver_p50_us", "us", ""},
      {"cpu_us_per_msg", "us", ""},
      {"peak_rss_mb", "MiB", ""},
  };
  return m;
}

const std::vector<Metric>& PerLayerMetrics() {
  static const std::vector<Metric> m = {
      {"runtime.try_publish_ns", "ns", "inproc_steady"},
      {"runtime.tasks_per_batch", "count", "inproc_steady"},
      {"runtime.doorbell_rings_per_kmsg", "count", "inproc_steady"},
      {"runtime.wakeup_latency_us_p50", "us", "inproc_steady"},
      {"runtime.publish_to_poll_us_p50", "us", "inproc_steady"},
      {"runtime.poll_batch_ns_per_msg", "ns", "inproc_steady"},
      {"runtime.msgs_per_poll", "count", "inproc_steady"},
      {"runtime.publish_batch_ns_per_msg", "ns", "inproc_saturate"},
      {"runtime.shard_busy_frac", "ratio", "inproc_saturate"},
      {"runtime.consumer_busy_frac", "ratio", "inproc_saturate"},
      {"runtime.slow_consumer.stalls", "count", "inproc_saturate"},
      {"runtime.publish_rejected_frac", "ratio", "inproc_saturate"},
      {"runtime.try_ingest_ns", "ns", "watch_steady"},
      {"runtime.ingest_rejected", "count", "watch_steady"},
      {"runtime.watch_resyncs", "count", "watch_steady"},
      {"watch.events_delivered_per_ingest", "count", "watch_steady"},
      {"watch.retained_events", "count", "watch_steady"},
      {"server.loop_busy_frac", "ratio", "socket_steady"},
      {"server.frames_in_per_kmsg", "count", "socket_steady"},
      {"server.frames_out_per_kmsg", "count", "socket_steady"},
      {"server.bytes_out_per_msg", "B", "socket_steady"},
      {"server.backpressure_errors", "count", "socket_steady"},
      {"client.publish_ns", "ns", "socket_steady"},
      {"client.sub_cpu_us_per_msg", "us", "socket_steady"},
      {"client.msgs_per_poll", "count", "socket_steady"},
      {"pubsub.publish_ns", "ns", "isolated"},
      {"pubsub.publish_span_ns", "ns", "isolated"},
      {"pubsub.fetch_into_ns_per_msg", "ns", "isolated"},
      {"pubsub.fetch_spans_ns_per_msg", "ns", "isolated"},
      {"net.publish_encode_ns", "ns", "isolated"},
      {"net.publish_decode_ns", "ns", "isolated"},
      {"net.frame_decode_ns", "ns", "isolated"},
      {"net.deliver_encode_ns_per_msg", "ns", "isolated"},
      {"net.deliver_decode_ns_per_msg", "ns", "isolated"},
      {"loadgen.late_p99_us", "us", ""},
      {"ledger.late_us_p50", "us", ""},
      {"ledger.publish_us_p50", "us", ""},
      {"ledger.deliver_us_p50", "us", ""},
      {"ledger.residual_frac", "ratio", ""},
      {"span.gen_arrival.self_ns_p50", "ns", ""},
      {"span.publish_call.self_ns_p50", "ns", ""},
      {"span.consumer.self_ns_per_msg", "ns", ""},
      {"trace.overhead_frac", "ratio", ""},
  };
  return m;
}

// Traced runs: the untraced reference only needs a steady cpu_us_per_msg
// (half the run), and the companion runs only stable layer ratios; both
// are kept short so a traced run stays within a few times the run length.
constexpr double kReferenceMinSeconds = 2.0;
constexpr double kCompanionSeconds = 1.0;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n",
               why);
  return 2;
}

void Report(const std::string& label, const Outcome& o) {
  std::printf("# [%s] verdict: %s\n", label.c_str(), o.verdict.Describe().c_str());
  std::printf("# [%s] attempted=%llu rejected=%llu\n", label.c_str(),
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.rejected));
  std::printf("# [%s] deliver p50 %.2f us, p90 %.2f us, p99 %.2f us (%zu samples, %zu beyond p99)\n",
              label.c_str(), o.deliver_p50_us.value, o.deliver_p90_us.value,
              o.deliver_p99_us.value, o.deliver_p99_us.count, o.deliver_p99_us.beyond);
  std::printf("# [%s] cpu %.4f us/msg, throughput %.1f msg/s, setup %.4f s\n", label.c_str(),
              o.cpu_us_per_msg, o.throughput_msgs_per_s, o.setup_s);
  std::printf("# [%s] generator late p99 %.2f us%s\n", label.c_str(), o.late_p99_us,
              o.generator_late ? " -- RUN INVALID: the generator fell behind its schedule" : "");
  for (const std::string& note : o.notes) {
    std::printf("# [%s] %s\n", label.c_str(), note.c_str());
  }
  for (const auto& [name, row] : o.spans.rows) {
    std::printf("# [%s] span %-20s count %9llu items %9llu total %9.2f ms self %9.2f ms "
                "self p50 %8.1f ns self/item %8.1f ns\n",
                label.c_str(), name.c_str(), static_cast<unsigned long long>(row.count),
                static_cast<unsigned long long>(row.items), row.total_ms, row.self_ms,
                row.self_p50_ns, row.self_ns_per_item);
  }
}

std::uint64_t Failed(const Outcome& o) {
  const DeliveryChecker::Verdict& v = o.verdict;
  return o.rejected + v.loss + v.phantom + v.duplicates + v.reorders + v.corrupt + v.misrouted +
         v.resyncs;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics, const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name, values.at(metrics[i].name), metrics[i].unit);
  }
  std::printf("}}\n");
}

int Run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Usage(("bad argument " + a).c_str());
    }
    args[a.substr(2)] = argv[++i];
  }
  for (const char* need : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(need) == 0) {
      return Usage((std::string("missing --") + need).c_str());
    }
  }
  RunSpec spec;
  spec.workload = args["workload"];
  bool known = false;
  for (const std::string& w : WorkloadNames()) {
    known = known || w == spec.workload;
  }
  if (!known) {
    return Usage(("unknown workload " + spec.workload).c_str());
  }
  spec.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  spec.seconds = std::atof(args["seconds"].c_str());
  if (spec.seconds <= 0 || spec.seconds > 120) {
    return Usage("--seconds must be in (0, 120]");
  }
  const bool trace = args["trace"] == "1";
  const std::string trace_dir = args.count("trace-dir") ? args["trace-dir"] : "";

  if (!trace) {
    const Outcome o = RunWorkload(spec, "");
    Report(spec.workload, o);
    std::map<std::string, double> values = {
        {"setup_s", o.setup_s},
        {"deliver_p50_us", o.deliver_p50_us.value},
        {"cpu_us_per_msg", o.cpu_us_per_msg},
        {"peak_rss_mb", o.peak_rss_mb},
    };
    PrintResult(o.verdict.ok(), o.attempted, Failed(o), EndToEndMetrics(), values);
    return o.verdict.ok() ? 0 : 1;
  }

  // Traced: the untraced reference (for trace.overhead_frac), the traced
  // run of this workload, a short traced companion run of every other
  // workload for the layers only it exercises, and the isolated timings.
  std::map<std::string, double> values = IsolatedLayerMetrics(spec.seed);
  RunSpec plain = spec;
  plain.setups = 1;
  plain.seconds = std::max(kReferenceMinSeconds, spec.seconds / 2);
  const Outcome reference = RunWorkload(plain, "");
  Report(spec.workload + " untraced", reference);
  RunSpec traced = spec;
  traced.setups = 1;
  traced.trace = true;
  const Outcome main_run = RunWorkload(traced, trace_dir);
  Report(spec.workload + " traced", main_run);
  bool correct = reference.verdict.ok() && main_run.verdict.ok();
  std::uint64_t attempted = reference.attempted + main_run.attempted;
  std::uint64_t failed = Failed(reference) + Failed(main_run);
  for (const auto& [name, v] : main_run.layers) {
    values[name] = v;
  }
  values["trace.overhead_frac"] =
      reference.cpu_us_per_msg <= 0
          ? 0
          : main_run.cpu_us_per_msg / reference.cpu_us_per_msg - 1.0;
  for (const std::string& other : WorkloadNames()) {
    if (other == spec.workload) {
      continue;
    }
    RunSpec companion = traced;
    companion.workload = other;
    companion.seconds = kCompanionSeconds;
    const Outcome c = RunWorkload(companion, trace_dir);
    Report(other + " companion", c);
    correct = correct && c.verdict.ok();
    attempted += c.attempted;
    failed += Failed(c);
    for (const Metric& m : PerLayerMetrics()) {
      if (m.home == other) {
        values[m.name] = c.layers.at(m.name);
      }
    }
  }
  for (const Metric& m : PerLayerMetrics()) {
    if (values.count(m.name) == 0) {
      std::fprintf(stderr, "perfbench: per-layer metric %s was not measured\n", m.name);
      return 2;
    }
    std::printf("# layer %-36s %14.4f %s\n", m.name, values[m.name], m.unit);
  }
  PrintResult(correct, attempted, failed, PerLayerMetrics(), values);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
