// Spans the harness records around its own calls into the program, one
// SpanSink per thread. A span's self time is its duration minus the part
// its child spans (opened while it was open, on the same thread) cover.
// Aggregates are always kept; the first kRawSpans raw spans of each sink
// are kept too and written out with the aggregates when the run ends.
// A disabled sink records nothing and reads no clock.
#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum SpanKind : int {
  kGenArrival,        // Generator: one arrival, after its due-time wait.
  kPublishCall,       // The workload's publish call (parent: kGenArrival).
  kConsumerIteration, // Consumer: one wait + poll + check round.
  kWaitCall,          // Subscription::Wait (parent: kConsumerIteration).
  kPollCall,          // PollBatch / client Poll (parent: kConsumerIteration).
  kWatchCallback,     // Watch OnEvent, run on a shard thread.
  kSpanKinds,
};

const char* SpanName(SpanKind kind);

struct SpanAggregate {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::vector<float> self_samples;  // First kMaxSamples self times, ns.
};

class SpanSink {
 public:
  static constexpr std::size_t kRawSpans = 2048;
  static constexpr std::size_t kMaxSamples = 1 << 20;

  explicit SpanSink(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Opens a span now (returns the clock read, 0 when disabled).
  std::int64_t Open(SpanKind kind);
  // Closes the innermost open span now. `id` ties it to a record (sequence
  // number) or is 0; `items` counts the records it handled, for per-record
  // self times. Returns the clock read (0 when disabled).
  std::int64_t Close(std::uint64_t id = 0, std::uint64_t items = 1);

  const SpanAggregate& aggregate(SpanKind kind) const { return agg_[kind]; }
  std::uint64_t items(SpanKind kind) const { return items_[kind]; }

  struct Raw {
    int kind;
    int parent;  // -1: root.
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
  };
  const std::vector<Raw>& raw() const { return raw_; }

 private:
  struct OpenSpan {
    int kind;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  bool enabled_;
  std::vector<OpenSpan> stack_;
  SpanAggregate agg_[kSpanKinds];
  std::uint64_t items_[kSpanKinds] = {};
  std::vector<Raw> raw_;
};

// Merged view over several sinks.
struct SpanSummary {
  struct Row {
    std::uint64_t count = 0;
    std::uint64_t items = 0;
    double total_ms = 0;
    double self_ms = 0;
    double self_p50_ns = 0;
    double self_ns_per_item = 0;
  };
  std::map<std::string, Row> rows;
};

SpanSummary Summarize(const std::vector<const SpanSink*>& sinks);

// Writes aggregates and raw spans as JSON to `path`; false on I/O failure.
bool WriteSpans(const std::string& path, const std::string& workload,
                const std::vector<const SpanSink*>& sinks);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
