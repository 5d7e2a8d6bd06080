#include "harness/trace.h"

#include <algorithm>
#include <cstdio>

#include "harness/stats.h"

namespace perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case kGenArrival: return "gen.arrival";
    case kPublishCall: return "publish.call";
    case kConsumerIteration: return "consumer.iteration";
    case kWaitCall: return "consumer.wait_call";
    case kPollCall: return "consumer.poll_call";
    case kWatchCallback: return "watch.callback";
    case kSpanKinds: break;
  }
  return "?";
}

std::int64_t SpanSink::Open(SpanKind kind) {
  if (!enabled_) {
    return 0;
  }
  const std::int64_t now = NowNs();
  stack_.push_back({kind, now, 0});
  return now;
}

std::int64_t SpanSink::Close(std::uint64_t id, std::uint64_t items) {
  if (!enabled_ || stack_.empty()) {
    return 0;
  }
  const std::int64_t now = NowNs();
  const OpenSpan top = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = now - top.start_ns;
  const std::int64_t self = std::max<std::int64_t>(0, dur - top.child_ns);
  SpanAggregate& a = agg_[top.kind];
  ++a.count;
  items_[top.kind] += items;
  a.total_ns += dur;
  a.self_ns += self;
  if (a.self_samples.size() < kMaxSamples) {
    a.self_samples.push_back(static_cast<float>(self));
  }
  if (raw_.size() < kRawSpans) {
    raw_.push_back({top.kind, stack_.empty() ? -1 : stack_.back().kind, top.start_ns, now, id});
  }
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  return now;
}

SpanSummary Summarize(const std::vector<const SpanSink*>& sinks) {
  SpanSummary out;
  for (int k = 0; k < kSpanKinds; ++k) {
    SpanSummary::Row row;
    std::vector<double> samples;
    for (const SpanSink* sink : sinks) {
      const SpanAggregate& a = sink->aggregate(static_cast<SpanKind>(k));
      row.count += a.count;
      row.items += sink->items(static_cast<SpanKind>(k));
      row.total_ms += static_cast<double>(a.total_ns) / 1e6;
      row.self_ms += static_cast<double>(a.self_ns) / 1e6;
      samples.insert(samples.end(), a.self_samples.begin(), a.self_samples.end());
    }
    if (row.count == 0) {
      continue;
    }
    row.self_p50_ns = PercentileOf(&samples, 50).value;
    row.self_ns_per_item = row.self_ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, row.items));
    out.rows[SpanName(static_cast<SpanKind>(k))] = row;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::string& workload,
                const std::vector<const SpanSink*>& sinks) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const SpanSummary summary = Summarize(sinks);
  std::fprintf(f, "{\"workload\": \"%s\", \"aggregates\": {", workload.c_str());
  bool first = true;
  for (const auto& [name, row] : summary.rows) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %llu, \"items\": %llu, \"total_ms\": %.3f, "
                 "\"self_ms\": %.3f, \"self_p50_ns\": %.1f}",
                 first ? "" : ",", name.c_str(), static_cast<unsigned long long>(row.count),
                 static_cast<unsigned long long>(row.items), row.total_ms, row.self_ms,
                 row.self_p50_ns);
    first = false;
  }
  std::fprintf(f, "},\n\"spans\": [");
  first = true;
  for (std::size_t t = 0; t < sinks.size(); ++t) {
    for (const SpanSink::Raw& r : sinks[t]->raw()) {
      std::fprintf(f, "%s\n  {\"thread\": %zu, \"name\": \"%s\", \"parent\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"id\": %llu}",
                   first ? "" : ",", t, SpanName(static_cast<SpanKind>(r.kind)),
                   r.parent < 0 ? "" : SpanName(static_cast<SpanKind>(r.parent)),
                   static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns),
                   static_cast<unsigned long long>(r.id));
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
