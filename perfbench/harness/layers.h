// Isolated, single-threaded timings of the layers no workload can time from
// outside a call: the pubsub broker (a private Broker) and the wire codec.
// Same record shape as the workloads.
#ifndef PERFBENCH_HARNESS_LAYERS_H_
#define PERFBENCH_HARNESS_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

std::map<std::string, double> IsolatedLayerMetrics(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LAYERS_H_
