// The benchmark's four workloads, driven through the public APIs of the
// runtime, server, client and watch facades (see ../README.md for why each
// exists and which layers it should move).
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/stats.h"
#include "harness/trace.h"

namespace perfbench {

const std::vector<std::string>& WorkloadNames();

struct RunSpec {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Full set-ups made; all but the last are torn down unmeasured, and
  // setup_s is their median.
  int setups = 3;
};

struct Outcome {
  DeliveryChecker::Verdict verdict;
  std::uint64_t attempted = 0;  // Publish / ingest calls in the measured phase.
  std::uint64_t rejected = 0;   // Of those, refused by the program.

  // End-to-end figures. The window is cut into slices of about a second;
  // cpu_us_per_msg and throughput are medians over slices. Latency pools
  // every record due in the window.
  double setup_s = 0;
  Percentile deliver_p50_us, deliver_p90_us, deliver_p99_us;
  double cpu_us_per_msg = 0;
  double throughput_msgs_per_s = 0;
  double peak_rss_mb = 0;
  double late_p99_us = 0;
  bool generator_late = false;

  // Traced runs only: per-layer metrics this workload measured.
  std::map<std::string, double> layers;
  SpanSummary spans;
  std::vector<std::string> notes;  // Human-readable report lines.
};

// Runs one workload in this process. `trace_dir` (traced runs) receives
// the span file.
Outcome RunWorkload(const RunSpec& spec, const std::string& trace_dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
