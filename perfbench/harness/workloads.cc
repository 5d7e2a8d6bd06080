#include "harness/workloads.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench/loadgen.h"
#include "client/client.h"
#include "common/metrics.h"
#include "harness/record.h"
#include "runtime/concurrent_broker.h"
#include "runtime/concurrent_watch.h"
#include "runtime/publish_batch.h"
#include "runtime/shard_pool.h"
#include "server/pubsubd.h"

namespace perfbench {
namespace {

constexpr const char* kTopic = "bench";
constexpr std::uint64_t kKeySpace = 4096;
// Before its streams open, every workload appends a backlog (records, or
// watch events), so the log or window the measured records join is full and
// retention is already trimming. It is also most of setup_s, which is then
// long enough to measure steadily.
constexpr std::size_t kBacklog = 1 << 20;
constexpr std::size_t kWatchBacklog = 1 << 18;
// Tasks a backlog producer lets queue per shard before yielding, so the
// backlog's staged batches never pile up in memory.
constexpr std::size_t kBacklogQueueDepth = 32;
// Size cap per partition: far below the backlog, so set-up already trims;
// at least the saturating window, so retention trims only records every
// stream has read.
constexpr std::uint64_t kCapPerPartition = 1 << 17;
constexpr std::size_t kBatch = 256;
// Records published (and awaited) at full speed before measuring.
constexpr std::size_t kWarmupRecords = 20000;
constexpr std::size_t kSocketWarmupRecords = 4000;
constexpr std::size_t kSaturateWarmupRecords = 1 << 19;
// Saturating loop: at most this many records published but not delivered.
constexpr std::uint64_t kSaturateWindow = 1 << 15;
// Shard ring bound of the open-loop workloads. When the host deschedules the
// generator or a shard, the generator catches up with a burst of every
// arrival due meanwhile; the default 4096 slots (41 ms at 100k/s per shard)
// overflowed on a loaded shared host and TryPublish / TryIngest rejected a
// few hundred records in some runs. 2^16 slots absorb a stall of 0.65 s at
// 100k/s per shard; in steady state the rings stay shallow either way.
constexpr std::size_t kOpenLoopQueueCapacity = 1 << 16;
constexpr std::int64_t kLeadInNs = 250'000'000;  // Open loop runs before the window.
constexpr std::int64_t kDrainStallNs = 15'000'000'000;  // No progress: give up.
constexpr std::uint64_t kBacklogSeedSalt = 0x6261636b6c6f67ull;

int CurrentTid() { return static_cast<int>(::syscall(SYS_gettid)); }

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Sleeps towards `deadline` and spins the last stretch, so arrivals fire on
// time without the timer slack of a plain sleep.
void WaitUntil(std::int64_t deadline) {
  for (;;) {
    const std::int64_t now = NowNs();
    if (now >= deadline) {
      return;
    }
    if (deadline - now > 300'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(deadline - now - 200'000));
    } else {
      CpuRelax();
    }
  }
}

double Median(std::vector<double> v) { return PercentileOf(&v, 50).value; }

// bench::RankKey of every rank, formatted once.
const std::string& Key(std::uint32_t rank) {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    for (std::uint64_t r = 0; r < kKeySpace; ++r) {
      k.push_back(bench::RankKey(r));
    }
    return k;
  }();
  return keys[rank];
}

// What the generator reads at the edges of the measured window.
struct Sample {
  std::int64_t wall = 0;
  std::int64_t process_cpu = 0;
  std::int64_t generator_cpu = 0;
  std::int64_t generator_in_call = 0;
  std::uint64_t delivered = 0;
  std::int64_t shard_cpu = 0;
  std::int64_t consumer_cpu = 0;
  std::int64_t server_cpu = 0;
  std::map<std::string, std::int64_t> counters;
};

class Workload {
 public:
  Workload(const RunSpec& spec, double rate, std::size_t streams, std::uint64_t max_seq,
           std::uint64_t stride)
      : spec_(spec),
        rate_(rate),
        max_seq_(max_seq),
        stride_(stride),
        checker_(spec.seed, streams, max_seq),
        gen_sink_(spec.trace) {
    if (spec.trace) {
      const std::size_t slots = max_seq / stride + 1;
      pub_call_.assign(slots, 0);
      pub_ret_.assign(slots, 0);
      wake_.assign(slots, 0);
      in_hand_.assign(slots, 0);
    }
  }
  virtual ~Workload() = default;

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Starts everything, appends the backlog, opens the streams and runs the
  // unmeasured warm-up.
  virtual void Setup() = 0;
  // Stops every thread the workload started and tears the program down.
  virtual void Teardown() = 0;

  // Runs the measured window and the drain. Call Teardown next: Report reads
  // what the consumer and shard threads wrote, so they must have been joined.
  void Run();
  void Report(Outcome* out);
  void WriteSpans(const std::string& path);

 protected:
  // One open-loop arrival: build record `seq`, make the publish call between
  // BeginCall and EndCall. False when the program refused the record.
  virtual bool Fire(std::uint64_t seq, std::int64_t due_ns, std::uint32_t rank) {
    (void)seq, (void)due_ns, (void)rank;
    return false;
  }
  // Drives load from `epoch` until `t1`, sampling at the slice edges. The
  // default is the open loop; the saturating workload replaces it.
  virtual void RunLoad(std::int64_t epoch, std::int64_t t1);
  // Records the program refused after the caller counted them accepted
  // (fire-and-forget socket publishes), so far.
  virtual std::uint64_t LateRejections() { return 0; }
  virtual std::vector<std::string> CounterNames() const { return {}; }
  // Per-layer metrics of this workload's own layers (traced runs).
  virtual void LayerMetrics(const Sample& a, const Sample& b, Outcome* out) {
    (void)a, (void)b, (void)out;
  }
  // Workload-specific report lines (every run).
  virtual void Notes(Outcome* out) { (void)out; }

  // -- Helpers for subclasses ------------------------------------------------------

  void StartPool(runtime::RuntimeOptions options) {
    options.seed = spec_.seed;
    pool_ = std::make_unique<runtime::ShardPool>(options, &registry_);
    const std::vector<int> before = ListTids();
    pool_->Start();
    shard_tids_ = NewTids(before, ListTids());
  }

  void CreateSizeCappedTopic(runtime::ConcurrentBroker& broker, pubsub::PartitionId partitions) {
    pubsub::TopicConfig config;
    config.partitions = partitions;
    config.retention.max_messages = kCapPerPartition;
    const common::Status st = broker.CreateTopic(kTopic, config);
    if (!st.ok()) {
      throw std::runtime_error("CreateTopic: " + st.ToString());
    }
  }

  // The retained backlog, through the batched publish path. Its records use
  // another seed, so one delivered by mistake reads as corrupt.
  void AppendBacklog(runtime::ConcurrentBroker& broker) {
    std::string value;
    for (std::size_t i = 0; i < kBacklog; i += kBatch) {
      auto batch = std::make_shared<runtime::PublishBatch>(kBatch);
      for (std::size_t j = i; j < std::min(kBacklog, i + kBatch); ++j) {
        const auto rank = static_cast<std::uint32_t>(j % kKeySpace);
        MakeValue(spec_.seed ^ kBacklogSeedSalt, j, rank, 0, &value);
        batch->Add(Key(rank), value);
      }
      while (!broker.TryPublishBatch(kTopic, batch).ok()) {
        std::this_thread::yield();
      }
      WaitForShallowQueues();
    }
    pool_->Quiesce();
  }

  void WaitForShallowQueues() {
    for (std::size_t s = 0; s < pool_->shard_count(); ++s) {
      while (pool_->queue_depth(s) > kBacklogQueueDepth) {
        std::this_thread::yield();
      }
    }
  }

  std::uint64_t NextSeq() { return next_seq_++; }

  std::int64_t BeginCall(std::uint64_t seq, std::int64_t due_ns) {
    gen_sink_.Open(kPublishCall);
    const std::int64_t now = NowNs();
    if (InWindow(due_ns)) {
      late_us_.push_back(static_cast<double>(now - due_ns) / 1e3);
    }
    if (Traced(seq)) {
      pub_call_[seq / stride_] = now;
    }
    return now;
  }

  void EndCall(std::int64_t start, std::uint64_t seq, std::uint64_t records = 1) {
    const std::int64_t now = NowNs();
    gen_sink_.Close(seq, records);
    in_call_ns_ += now - start;
    if (spec_.trace) {
      // A batch call stamps every sampled record it carried.
      for (std::uint64_t s = seq; s < seq + records; ++s) {
        if (Traced(s)) {
          pub_ret_[s / stride_] = now;
        }
      }
    }
  }

  // Acquire pairs with Measure's release store of window_lo_, which
  // publishes the slice layout and the per-slice latency vectors.
  bool InWindow(std::int64_t due_ns) const {
    return due_ns >= window_lo_.load(std::memory_order_acquire) &&
           due_ns < window_hi_.load(std::memory_order_relaxed);
  }

  // The generator's clock for slice edges: takes the sample of every edge
  // at or before `now`, waiting for each edge first.
  void SampleEdgesUpTo(std::int64_t now) {
    while (next_edge_ < edges_.size() && edges_[next_edge_] <= now) {
      WaitUntil(edges_[next_edge_]);
      slices_.push_back(TakeSample());
      ++next_edge_;
    }
  }
  bool Traced(std::uint64_t seq) const { return spec_.trace && seq % stride_ == 0; }

  // Checks one delivered record on `stream` and charges its latency to
  // `consumer` (a consuming thread or watch session), in the slice of the
  // window its due time falls in.
  void Delivered(std::size_t stream, std::string_view key, std::string_view value,
                 std::int64_t in_hand, std::int64_t wake, std::size_t consumer,
                 long expected_stream = -1, ParsedRecord* parsed = nullptr) {
    ParsedRecord rec;
    if (!checker_.Deliver(stream, key, value, expected_stream, &rec)) {
      return;
    }
    if (parsed != nullptr) {
      *parsed = rec;
    }
    if (rec.seq % stride_ != 0) {
      return;
    }
    if (InWindow(rec.due_ns)) {
      const auto slice = static_cast<std::size_t>(
          (rec.due_ns - window_lo_.load(std::memory_order_relaxed)) /
          slice_ns_.load(std::memory_order_relaxed));
      latencies_[consumer][slice].push_back(static_cast<double>(in_hand - rec.due_ns) / 1e3);
    }
    if (spec_.trace) {
      in_hand_[rec.seq / stride_] = in_hand;
      wake_[rec.seq / stride_] = wake;
    }
  }

  // Blocks until every record accepted so far is delivered, or until
  // delivery stops making progress (what is missing then counts as loss).
  void WaitDelivered() {
    std::uint64_t last = checker_.delivered();
    std::int64_t last_progress = NowNs();
    for (;;) {
      const std::uint64_t want = checker_.accepted() - std::min(checker_.accepted(), LateRejections());
      const std::uint64_t got = checker_.delivered();
      if (got >= want) {
        return;
      }
      if (got != last) {
        last = got;
        last_progress = NowNs();
      } else if (NowNs() - last_progress > kDrainStallNs) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  void RegisterConsumerTid() {
    std::lock_guard<std::mutex> lock(tids_mu_);
    consumer_tids_.push_back(CurrentTid());
  }

  Sample TakeSample() {
    Sample s;
    s.wall = NowNs();
    s.process_cpu = ProcessCpuNs();
    s.generator_cpu = ThreadCpuNs();
    s.generator_in_call = in_call_ns_;
    s.delivered = checker_.delivered();
    s.shard_cpu = TidsCpuNs(shard_tids_);
    {
      std::lock_guard<std::mutex> lock(tids_mu_);
      s.consumer_cpu = TidsCpuNs(consumer_tids_);
    }
    s.server_cpu = TidsCpuNs(server_tids_);
    for (const std::string& name : CounterNames()) {
      s.counters[name] = registry_.counter(name).value();
    }
    return s;
  }

  double CallMeanNs() const {
    const SpanAggregate& a = gen_sink_.aggregate(kPublishCall);
    const std::uint64_t items = gen_sink_.items(kPublishCall);
    return items == 0 ? 0 : static_cast<double>(a.total_ns) / static_cast<double>(items);
  }

  RunSpec spec_;
  double rate_;
  std::uint64_t max_seq_;
  std::uint64_t stride_;  // Latency and trace sample every stride-th record.
  DeliveryChecker checker_;
  common::MetricsRegistry registry_;
  std::unique_ptr<runtime::ShardPool> pool_;
  std::vector<int> shard_tids_;
  std::vector<int> server_tids_;
  std::mutex tids_mu_;
  std::vector<int> consumer_tids_;

  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> window_lo_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> window_hi_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> slice_ns_{1};
  // The measured window is cut into equal slices; the generator samples at
  // every edge, and the end-to-end metrics are medians over slices.
  std::vector<std::int64_t> edges_;
  std::size_t next_edge_ = 0;
  std::vector<Sample> slices_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t rejected_ = 0;
  std::int64_t in_call_ns_ = 0;
  std::vector<double> late_us_;
  SpanSink gen_sink_;
  // Per consuming thread or session: latencies by window slice, and a span
  // sink.
  std::vector<std::vector<std::vector<double>>> latencies_;
  std::vector<std::unique_ptr<SpanSink>> consumer_sinks_;
  // Traced runs: per-record timestamps, indexed by seq / stride.
  std::vector<std::int64_t> pub_call_, pub_ret_, wake_, in_hand_;
};

void Workload::RunLoad(std::int64_t epoch, std::int64_t t1) {
  bench::OpenLoopGen gen({.rate_per_sec = rate_,
                          .poisson = true,
                          .zipf_theta = 0.0,
                          .key_space = kKeySpace,
                          .seed = spec_.seed});
  for (;;) {
    const std::int64_t due = epoch + gen.NextDueUs() * 1000;
    const auto rank = static_cast<std::uint32_t>(gen.NextRank());
    if (due >= t1 || next_seq_ >= max_seq_) {
      break;
    }
    SampleEdgesUpTo(due);
    WaitUntil(due);
    gen_sink_.Open(kGenArrival);
    const std::uint64_t seq = NextSeq();
    ++attempted_;
    if (Fire(seq, due, rank)) {
      checker_.Accepted();
    } else {
      ++rejected_;
    }
    gen_sink_.Close(seq);
  }
}

void Workload::Run() {
  const std::int64_t epoch = NowNs() + 1'000'000;
  const std::int64_t t0 = epoch + kLeadInNs;
  const auto slices = static_cast<std::size_t>(std::max(3.0, std::round(spec_.seconds)));
  const auto slice_ns = static_cast<std::int64_t>(spec_.seconds * 1e9 / static_cast<double>(slices));
  const std::int64_t t1 = t0 + slice_ns * static_cast<std::int64_t>(slices);
  for (std::size_t k = 0; k <= slices; ++k) {
    edges_.push_back(t0 + slice_ns * static_cast<std::int64_t>(k));
  }
  // Sized up front: growing sample vectors mid-run would add allocator
  // churn and peak memory that differ from run to run.
  const double arrivals_per_slice = rate_ * static_cast<double>(slice_ns) / 1e9;
  const auto reserve = static_cast<std::size_t>(
      1.2 * arrivals_per_slice / static_cast<double>(stride_ * std::max<std::size_t>(1, latencies_.size())));
  for (auto& per_consumer : latencies_) {
    per_consumer.assign(slices, {});
    for (auto& v : per_consumer) {
      v.reserve(reserve);
    }
  }
  late_us_.reserve(static_cast<std::size_t>(1.1 * arrivals_per_slice * static_cast<double>(slices)));
  slice_ns_.store(slice_ns, std::memory_order_relaxed);
  window_hi_.store(t1, std::memory_order_relaxed);
  window_lo_.store(t0, std::memory_order_release);
  registry_.histogram("runtime.wakeup_latency_us").Reset();
  const std::uint64_t late_rejections_before = LateRejections();
  RunLoad(epoch, t1);
  SampleEdgesUpTo(t1);
  WaitDelivered();
  const std::uint64_t late_rejections = LateRejections() - late_rejections_before;
  checker_.Withdraw(std::min(late_rejections, checker_.accepted()));
  rejected_ += late_rejections;
}

void Workload::Report(Outcome* out) {
  const std::size_t slices = edges_.size() - 1;
  const std::int64_t t0 = edges_.front();
  const std::int64_t t1 = edges_.back();
  out->verdict = checker_.Finish();
  out->attempted = attempted_;
  out->rejected = rejected_;

  // Per slice: system CPU per delivered record and delivered rate; the
  // reported figure is the median slice, so one stall moves one slice, not
  // the metric. Latency percentiles pool every record due in the window.
  std::vector<double> cpu_per_msg, rate, p50, all;
  for (std::size_t k = 0; k < slices; ++k) {
    const Sample& a = slices_[k];
    const Sample& b = slices_[k + 1];
    const std::uint64_t delivered = b.delivered - a.delivered;
    const std::int64_t cpu = SystemCpuNs(b.process_cpu - a.process_cpu,
                                         b.generator_cpu - a.generator_cpu,
                                         b.generator_in_call - a.generator_in_call);
    if (delivered > 0) {
      cpu_per_msg.push_back(static_cast<double>(cpu) / 1e3 / static_cast<double>(delivered));
    }
    rate.push_back(static_cast<double>(delivered) / (static_cast<double>(b.wall - a.wall) / 1e9));
    std::vector<double> lat;
    for (const auto& per_consumer : latencies_) {
      lat.insert(lat.end(), per_consumer[k].begin(), per_consumer[k].end());
    }
    all.insert(all.end(), lat.begin(), lat.end());
    p50.push_back(PercentileOf(&lat, 50).value);
  }
  out->cpu_us_per_msg = Median(cpu_per_msg);
  out->throughput_msgs_per_s = Median(rate);
  out->deliver_p50_us = PercentileOf(&all, 50);
  out->deliver_p90_us = PercentileOf(&all, 90);
  out->deliver_p99_us = PercentileOf(&all, 99);
  std::vector<double> late = late_us_;
  out->late_p99_us = PercentileOf(&late, 99).value;
  out->generator_late = GeneratorFellBehind(out->late_p99_us, kLateLimitUs);

  const Sample& a = slices_.front();
  const Sample& b = slices_.back();
  const std::int64_t cpu = SystemCpuNs(b.process_cpu - a.process_cpu,
                                       b.generator_cpu - a.generator_cpu,
                                       b.generator_in_call - a.generator_in_call);
  char line[256];
  std::snprintf(line, sizeof(line),
                "window %.3f s in %zu slices: delivered %llu, system cpu %.3f s, generator cpu "
                "%.3f s (%.3f s inside calls)",
                static_cast<double>(b.wall - a.wall) / 1e9, slices,
                static_cast<unsigned long long>(b.delivered - a.delivered),
                static_cast<double>(cpu) / 1e9,
                static_cast<double>(b.generator_cpu - a.generator_cpu) / 1e9,
                static_cast<double>(b.generator_in_call - a.generator_in_call) / 1e9);
  out->notes.push_back(line);
  std::string per_slice =
      "slices (msg/s, cpu us/msg, p50 us, shard/consumer/server threads' cpu per wall):";
  for (std::size_t k = 0; k < rate.size(); ++k) {
    const double wall = static_cast<double>(slices_[k + 1].wall - slices_[k].wall);
    const auto busy = [&](std::int64_t Sample::*field) {
      return static_cast<double>(slices_[k + 1].*field - slices_[k].*field) / wall;
    };
    char cell[128];
    std::snprintf(cell, sizeof(cell), " [%.0f %.3f %.1f %.2f/%.2f/%.2f]", rate[k],
                  k < cpu_per_msg.size() ? cpu_per_msg[k] : 0.0, k < p50.size() ? p50[k] : 0.0,
                  busy(&Sample::shard_cpu), busy(&Sample::consumer_cpu),
                  busy(&Sample::server_cpu));
    per_slice += cell;
  }
  out->notes.push_back(per_slice);
  Notes(out);

  if (!spec_.trace) {
    return;
  }
  // The ledger: each sampled record's path from due time to consumer's hand,
  // split at the harness's own call boundaries.
  std::vector<double> seg_publish, seg_deliver, seg_wake, seg_poll;
  for (std::size_t i = 0; i < in_hand_.size(); ++i) {
    if (in_hand_[i] == 0 || pub_call_[i] == 0 || pub_ret_[i] == 0) {
      continue;
    }
    const std::int64_t call = pub_call_[i];
    const std::int64_t ret = pub_ret_[i];
    const std::int64_t hand = in_hand_[i];
    if (call < t0 || call >= t1) {
      continue;
    }
    seg_publish.push_back(static_cast<double>(ret - call) / 1e3);
    seg_deliver.push_back(static_cast<double>(std::max<std::int64_t>(0, hand - ret)) / 1e3);
    if (wake_[i] != 0) {
      const std::int64_t wake = std::clamp(wake_[i], ret, hand);
      seg_wake.push_back(static_cast<double>(wake - ret) / 1e3);
      seg_poll.push_back(static_cast<double>(hand - wake) / 1e3);
    }
  }
  std::vector<double> late_copy = late_us_;
  const double late_p50 = PercentileOf(&late_copy, 50).value;
  const double publish_p50 = PercentileOf(&seg_publish, 50).value;
  const double deliver_p50 = PercentileOf(&seg_deliver, 50).value;
  out->layers["loadgen.late_p99_us"] = out->late_p99_us;
  out->layers["ledger.late_us_p50"] = late_p50;
  out->layers["ledger.publish_us_p50"] = publish_p50;
  out->layers["ledger.deliver_us_p50"] = deliver_p50;
  const double e2e = out->deliver_p50_us.value;
  out->layers["ledger.residual_frac"] =
      e2e <= 0 ? 0 : (e2e - late_p50 - publish_p50 - deliver_p50) / e2e;
  std::snprintf(line, sizeof(line),
                "ledger (p50, us): late %.2f + publish call %.2f + publish-return->hand %.2f "
                "vs deliver %.2f",
                late_p50, publish_p50, deliver_p50, e2e);
  out->notes.push_back(line);
  if (!seg_wake.empty()) {
    std::snprintf(line, sizeof(line),
                  "  publish-return->hand split (p50, us): ->wait return %.2f, ->poll return %.2f "
                  "(%zu records)",
                  PercentileOf(&seg_wake, 50).value, PercentileOf(&seg_poll, 50).value,
                  seg_wake.size());
    out->notes.push_back(line);
  }

  std::vector<const SpanSink*> sinks{&gen_sink_};
  for (const auto& s : consumer_sinks_) {
    sinks.push_back(s.get());
  }
  out->spans = Summarize(sinks);
  const auto row = [&](const char* name) {
    auto it = out->spans.rows.find(name);
    return it == out->spans.rows.end() ? SpanSummary::Row{} : it->second;
  };
  out->layers["span.gen_arrival.self_ns_p50"] = row("gen.arrival").self_p50_ns;
  out->layers["span.publish_call.self_ns_p50"] = row("publish.call").self_p50_ns;
  const SpanSummary::Row consumer =
      row("consumer.iteration").count > 0 ? row("consumer.iteration") : row("watch.callback");
  const std::uint64_t consumed = row("consumer.poll_call").items + row("watch.callback").items;
  out->layers["span.consumer.self_ns_per_msg"] =
      consumed == 0 ? 0 : consumer.self_ms * 1e6 / static_cast<double>(consumed);
  LayerMetrics(a, b, out);
}

void Workload::WriteSpans(const std::string& path) {
  std::vector<const SpanSink*> sinks{&gen_sink_};
  for (const auto& s : consumer_sinks_) {
    sinks.push_back(s.get());
  }
  if (!perfbench::WriteSpans(path, spec_.workload, sinks)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

std::uint64_t OpenLoopMaxSeq(double rate, double seconds) {
  const double expected = rate * (seconds + static_cast<double>(kLeadInNs) / 1e9 + 0.1);
  return static_cast<std::uint64_t>(expected * 1.1) + kWarmupRecords + 100000;
}

std::int64_t Delta(const Sample& a, const Sample& b, const std::string& counter) {
  return b.counters.at(counter) - a.counters.at(counter);
}

// -- inproc_steady -------------------------------------------------------------------

class InprocSteady : public Workload {
 public:
  explicit InprocSteady(const RunSpec& spec)
      : Workload(spec, kRate, 2, OpenLoopMaxSeq(kRate, spec.seconds), 1) {}
  ~InprocSteady() override { Teardown(); }

  void Setup() override {
    runtime::RuntimeOptions options;
    options.shards = 1;
    options.queue_capacity = kOpenLoopQueueCapacity;
    StartPool(options);
    broker_ = std::make_unique<runtime::ConcurrentBroker>(pool_.get());
    CreateSizeCappedTopic(*broker_, 2);
    AppendBacklog(*broker_);
    latencies_.resize(2);
    for (pubsub::PartitionId p = 0; p < 2; ++p) {
      subs_.push_back(broker_->Subscribe(kTopic, p, broker_->EndOffset(kTopic, p)));
      consumer_sinks_.push_back(std::make_unique<SpanSink>(spec_.trace));
    }
    for (std::size_t p = 0; p < 2; ++p) {
      consumers_.emplace_back([this, p] { Consume(p); });
    }
    std::string value;
    for (std::size_t i = 0; i < kWarmupRecords; ++i) {
      const std::uint64_t seq = NextSeq();
      const auto rank = static_cast<std::uint32_t>(seq % kKeySpace);
      MakeValue(spec_.seed, seq, rank, NowNs(), &value);
      while (!broker_->TryPublish(kTopic, pubsub::Message{Key(rank), value, 0, {}})
                  .ok()) {
        std::this_thread::yield();
      }
      checker_.Accepted();
    }
    WaitDelivered();
  }

  void Teardown() override {
    stop_.store(true);
    for (auto& t : consumers_) {
      t.join();
    }
    consumers_.clear();
    subs_.clear();
    if (pool_ != nullptr) {
      pool_->Stop();
    }
    broker_.reset();
    pool_.reset();
  }

 protected:
  static constexpr double kRate = 100000;

  bool Fire(std::uint64_t seq, std::int64_t due_ns, std::uint32_t rank) override {
    MakeValue(spec_.seed, seq, rank, due_ns, &value_);
    pubsub::Message msg{Key(rank), value_, 0, {}};
    const std::int64_t start = BeginCall(seq, due_ns);
    const bool ok = broker_->TryPublish(kTopic, std::move(msg)).ok();
    EndCall(start, seq);
    return ok;
  }

  std::vector<std::string> CounterNames() const override {
    return {"runtime.tasks_run", "runtime.batches_run", "runtime.doorbell_rings"};
  }

  void LayerMetrics(const Sample& a, const Sample& b, Outcome* out) override {
    const double delivered = static_cast<double>(std::max<std::uint64_t>(1, b.delivered - a.delivered));
    out->layers["runtime.try_publish_ns"] = CallMeanNs();
    out->layers["runtime.tasks_per_batch"] =
        static_cast<double>(Delta(a, b, "runtime.tasks_run")) /
        static_cast<double>(std::max<std::int64_t>(1, Delta(a, b, "runtime.batches_run")));
    out->layers["runtime.doorbell_rings_per_kmsg"] =
        static_cast<double>(Delta(a, b, "runtime.doorbell_rings")) * 1000 / delivered;
    out->layers["runtime.wakeup_latency_us_p50"] =
        registry_.histogram("runtime.wakeup_latency_us").Percentile(50);
    std::vector<double> to_poll;
    for (std::size_t i = 0; i < in_hand_.size(); ++i) {
      if (in_hand_[i] != 0 && pub_ret_[i] >= a.wall && pub_ret_[i] < b.wall) {
        to_poll.push_back(static_cast<double>(std::max<std::int64_t>(0, in_hand_[i] - pub_ret_[i])) / 1e3);
      }
    }
    out->layers["runtime.publish_to_poll_us_p50"] = PercentileOf(&to_poll, 50).value;
    const auto row = out->spans.rows["consumer.poll_call"];
    out->layers["runtime.poll_batch_ns_per_msg"] =
        row.items == 0 ? 0 : row.total_ms * 1e6 / static_cast<double>(row.items);
    out->layers["runtime.msgs_per_poll"] =
        static_cast<double>(polled_msgs_.load()) /
        static_cast<double>(std::max<std::uint64_t>(1, nonempty_polls_.load()));
  }

 private:
  void Consume(std::size_t p) {
    RegisterConsumerTid();
    SpanSink& sink = *consumer_sinks_[p];
    std::vector<pubsub::StoredMessage> buf;
    buf.reserve(512);
    while (!stop_.load(std::memory_order_relaxed)) {
      sink.Open(kConsumerIteration);
      sink.Open(kWaitCall);
      const bool ready = subs_[p]->Wait(2000);
      const std::int64_t wake = sink.Close();
      if (!ready) {
        sink.Close();
        continue;
      }
      buf.clear();
      sink.Open(kPollCall);
      const std::size_t n = subs_[p]->PollBatch(&buf, 512);
      sink.Close(0, n);
      const std::int64_t in_hand = NowNs();
      if (n > 0) {
        nonempty_polls_.fetch_add(1, std::memory_order_relaxed);
        polled_msgs_.fetch_add(n, std::memory_order_relaxed);
      }
      for (const pubsub::StoredMessage& m : buf) {
        Delivered(p, m.message.key, m.message.value, in_hand, wake, p);
      }
      sink.Close(0, n);
    }
  }

  std::unique_ptr<runtime::ConcurrentBroker> broker_;
  std::vector<std::unique_ptr<runtime::Subscription>> subs_;
  std::vector<std::thread> consumers_;
  std::string value_;
  std::atomic<std::uint64_t> nonempty_polls_{0};
  std::atomic<std::uint64_t> polled_msgs_{0};
};

// -- inproc_saturate -----------------------------------------------------------------

class InprocSaturate : public Workload {
 public:
  explicit InprocSaturate(const RunSpec& spec)
      : Workload(spec, 0, 2, MaxSeq(spec.seconds), kLatencyStride) {}
  ~InprocSaturate() override { Teardown(); }

  void Setup() override {
    runtime::RuntimeOptions options;
    // One shard: with two, the single consumer is a second bottleneck and
    // the run is bistable (see ../README.md).
    options.shards = 1;
    StartPool(options);
    broker_ = std::make_unique<runtime::ConcurrentBroker>(pool_.get());
    CreateSizeCappedTopic(*broker_, 2);
    AppendBacklog(*broker_);
    latencies_.resize(1);
    consumer_sinks_.push_back(std::make_unique<SpanSink>(spec_.trace));
    runtime::SubscriptionOptions sub_options;
    // A hook-driven consumer never runs Wait()'s re-check sweep, so every
    // ring must reach the hook (as pubsubd configures it).
    sub_options.wake_coalesce_us = 0;
    for (pubsub::PartitionId p = 0; p < 2; ++p) {
      subs_.push_back(broker_->Subscribe(kTopic, p, broker_->EndOffset(kTopic, p), sub_options));
      subs_.back()->SetReadyHook([this] {
        {
          std::lock_guard<std::mutex> lock(bell_mu_);
          bell_ = true;
        }
        bell_cv_.notify_one();
      });
    }
    consumer_ = std::thread([this] { Consume(); });
    const std::int64_t end = std::numeric_limits<std::int64_t>::max();
    PublishWindowed(end, kSaturateWarmupRecords, nullptr);
    WaitDelivered();
  }

  void Teardown() override {
    stop_.store(true);
    bell_cv_.notify_one();
    if (consumer_.joinable()) {
      consumer_.join();
    }
    subs_.clear();
    if (pool_ != nullptr) {
      pool_->Stop();
    }
    broker_.reset();
    pool_.reset();
  }

 protected:
  static constexpr std::uint64_t kLatencyStride = 64;

  static std::uint64_t MaxSeq(double seconds) {
    // Far above what the host can publish in the run; the loop stops early
    // (and says so) rather than overrun the checker.
    return static_cast<std::uint64_t>(4e6 * (seconds + 2)) + kSaturateWarmupRecords;
  }

  void RunLoad(std::int64_t epoch, std::int64_t t1) override {
    (void)epoch;
    PublishWindowed(t1, std::numeric_limits<std::uint64_t>::max(), &attempted_);
  }

  std::vector<std::string> CounterNames() const override {
    return {"runtime.slow_consumer.stalls", "runtime.publish_rejected"};
  }

  void LayerMetrics(const Sample& a, const Sample& b, Outcome* out) override {
    const double wall = static_cast<double>(std::max<std::int64_t>(1, b.wall - a.wall));
    out->layers["runtime.publish_batch_ns_per_msg"] = CallMeanNs();
    out->layers["runtime.shard_busy_frac"] =
        static_cast<double>(b.shard_cpu - a.shard_cpu) / wall /
        static_cast<double>(std::max<std::size_t>(1, shard_tids_.size()));
    out->layers["runtime.consumer_busy_frac"] =
        static_cast<double>(b.consumer_cpu - a.consumer_cpu) / wall;
    out->layers["runtime.slow_consumer.stalls"] =
        static_cast<double>(Delta(a, b, "runtime.slow_consumer.stalls"));
    out->layers["runtime.publish_rejected_frac"] =
        static_cast<double>(Delta(a, b, "runtime.publish_rejected")) /
        static_cast<double>(std::max<std::uint64_t>(1, batches_));
  }

 private:
  // The window-limited closed loop: at most kSaturateWindow records in
  // flight, batches of kBatch. Runs until `end` or `records` are published.
  void PublishWindowed(std::int64_t end, std::uint64_t records, std::uint64_t* attempted) {
    bench::OpenLoopGen keys({.rate_per_sec = 1,
                             .poisson = true,
                             .zipf_theta = 0.0,
                             .key_space = kKeySpace,
                             .seed = spec_.seed + next_seq_});
    std::uint64_t published = 0;
    while (published < records && next_seq_ + kBatch <= max_seq_) {
      if (checker_.accepted() - checker_.delivered() + kBatch > kSaturateWindow) {
        const std::int64_t wait_start = NowNs();
        // Poll the consumer's counters sparsely: a tight read loop would
        // pull their cache lines away from the consumer on every record.
        while (checker_.accepted() - checker_.delivered() + kBatch > kSaturateWindow &&
               NowNs() < end) {
          for (int i = 0; i < 64; ++i) {
            CpuRelax();
          }
        }
        if (InWindow(wait_start)) {
          late_us_.push_back(static_cast<double>(NowNs() - wait_start) / 1e3);
        }
      }
      const std::int64_t now = NowNs();
      if (now >= end) {
        break;
      }
      SampleEdgesUpTo(now);
      gen_sink_.Open(kGenArrival);
      const std::int64_t due = NowNs();
      const std::uint64_t first = next_seq_;
      for (std::size_t j = 0; j < kBatch; ++j) {
        ranks_[j] = static_cast<std::uint32_t>(keys.NextRank());
        MakeValue(spec_.seed, NextSeq(), ranks_[j], due, &values_[j]);
      }
      // Staging into the batch is the program's API: it counts as in-call.
      const std::int64_t stage_start = NowNs();
      auto batch = NextBatch();
      for (std::size_t j = 0; j < kBatch; ++j) {
        batch->Add(Key(ranks_[j]), values_[j]);
      }
      const std::int64_t start = BeginCall(first, std::numeric_limits<std::int64_t>::min());
      std::size_t accepted = 0;
      const common::Status st = broker_->TryPublishBatch(kTopic, batch, nullptr, &accepted);
      EndCall(start, first, kBatch);
      in_call_ns_ += start - stage_start;
      ++batches_;
      if (attempted != nullptr) {
        *attempted += kBatch;
      }
      if (st.ok()) {
        accepted = kBatch;
      } else {
        rejected_ += kBatch - accepted;
      }
      checker_.Accepted(accepted);
      published += kBatch;
      gen_sink_.Close(first, kBatch);
    }
  }

  // Recycles a batch whose shard tasks have drained (the producer holds the
  // only reference), else makes a fresh one.
  std::shared_ptr<runtime::PublishBatch> NextBatch() {
    std::shared_ptr<runtime::PublishBatch>& slot = batches_ring_[ring_pos_++ % batches_ring_.size()];
    if (slot != nullptr && slot.use_count() == 1) {
      slot->Clear();
    } else {
      slot = std::make_shared<runtime::PublishBatch>(kBatch);
    }
    return slot;
  }

  void Consume() {
    RegisterConsumerTid();
    SpanSink& sink = *consumer_sinks_[0];
    std::vector<pubsub::StoredMessage> buf;
    buf.reserve(1024);
    while (!stop_.load(std::memory_order_relaxed)) {
      sink.Open(kConsumerIteration);
      std::size_t total = 0;
      for (std::size_t p = 0; p < subs_.size(); ++p) {
        buf.clear();
        sink.Open(kPollCall);
        const std::size_t n = subs_[p]->PollBatch(&buf, 1024);
        sink.Close(0, n);
        const std::int64_t in_hand = NowNs();
        for (const pubsub::StoredMessage& m : buf) {
          Delivered(p, m.message.key, m.message.value, in_hand, 0, 0);
        }
        total += n;
      }
      if (total == 0) {
        sink.Open(kWaitCall);
        std::unique_lock<std::mutex> lock(bell_mu_);
        bell_cv_.wait_for(lock, std::chrono::milliseconds(1),
                          [this] { return bell_ || stop_.load(std::memory_order_relaxed); });
        bell_ = false;
        lock.unlock();
        sink.Close();
      }
      sink.Close(0, total);
    }
  }

  std::unique_ptr<runtime::ConcurrentBroker> broker_;
  std::vector<std::unique_ptr<runtime::Subscription>> subs_;
  std::thread consumer_;
  std::mutex bell_mu_;
  std::condition_variable bell_cv_;
  bool bell_ = false;
  // Twice the batches the window can hold in flight, so a slot's previous
  // batch has normally drained by the time the producer comes back to it.
  std::vector<std::shared_ptr<runtime::PublishBatch>> batches_ring_ =
      std::vector<std::shared_ptr<runtime::PublishBatch>>(2 * kSaturateWindow / kBatch);
  std::size_t ring_pos_ = 0;
  std::uint64_t batches_ = 0;
  std::vector<std::uint32_t> ranks_ = std::vector<std::uint32_t>(kBatch);
  std::vector<std::string> values_ = std::vector<std::string>(kBatch);
};

// -- socket_steady -------------------------------------------------------------------

class SocketSteady : public Workload {
 public:
  explicit SocketSteady(const RunSpec& spec)
      : Workload(spec, kRate, 1, OpenLoopMaxSeq(kRate, spec.seconds), 1) {}
  ~SocketSteady() override { Teardown(); }

  void Setup() override {
    runtime::RuntimeOptions options;
    options.shards = 1;
    options.queue_capacity = kOpenLoopQueueCapacity;
    StartPool(options);
    broker_ = std::make_unique<runtime::ConcurrentBroker>(pool_.get());
    CreateSizeCappedTopic(*broker_, 1);
    AppendBacklog(*broker_);
    server_ = std::make_unique<server::Server>(broker_.get(), nullptr, &registry_);
    const std::vector<int> before = ListTids();
    const common::Status st = server_->Start();
    if (!st.ok()) {
      throw std::runtime_error("Server::Start: " + st.ToString());
    }
    server_tids_ = NewTids(before, ListTids());
    publisher_ = Connect("publisher");
    subscriber_ = Connect("subscriber");
    auto sub = subscriber_->Subscribe(kTopic, 0, broker_->EndOffset(kTopic, 0), 256);
    if (!sub.ok()) {
      throw std::runtime_error("Subscribe: " + sub.status().ToString());
    }
    sub_ = std::move(*sub);
    latencies_.resize(1);
    consumer_sinks_.push_back(std::make_unique<SpanSink>(spec_.trace));
    consumer_ = std::thread([this] { Consume(); });
    // Warm-up with acknowledged publishes: each one is known accepted.
    std::string value;
    for (std::size_t i = 0; i < kSocketWarmupRecords; ++i) {
      const std::uint64_t seq = NextSeq();
      const auto rank = static_cast<std::uint32_t>(seq % kKeySpace);
      MakeValue(spec_.seed, seq, rank, NowNs(), &value);
      const common::Status pst =
          publisher_->Publish(kTopic, Key(rank), value, std::nullopt,
                              net::PublishAck::kAccept);
      if (!pst.ok()) {
        throw std::runtime_error("warm-up Publish: " + pst.ToString());
      }
      checker_.Accepted();
    }
    WaitDelivered();
    // Refusals of the acknowledged warm-up were retried; count from here.
    rejected_base_ = registry_.counter("runtime.publish_rejected").value();
    counting_rejections_ = true;
  }

  void Teardown() override {
    stop_.store(true);
    if (consumer_.joinable()) {
      consumer_.join();
    }
    if (sub_ != nullptr && sub_->errored()) {
      sub_error_ = sub_->error().message;
    }
    sub_.reset();
    subscriber_.reset();
    publisher_.reset();
    if (server_ != nullptr) {
      server_->Stop();
    }
    if (pool_ != nullptr) {
      pool_->Stop();
    }
    server_.reset();
    broker_.reset();
    pool_.reset();
  }

 protected:
  // 40k msg/s keeps the server loop near 60 % busy. At 50k/s it ran about
  // 73 % busy, and a slow spell on a shared host saturated it. The
  // subscriber then fell a cap behind, and retention trimmed unread records.
  static constexpr double kRate = 40000;

  bool Fire(std::uint64_t seq, std::int64_t due_ns, std::uint32_t rank) override {
    MakeValue(spec_.seed, seq, rank, due_ns, &value_);
    const std::int64_t start = BeginCall(seq, due_ns);
    const bool ok = publisher_
                        ->Publish(kTopic, Key(rank), value_, std::nullopt,
                                  net::PublishAck::kNone)
                        .ok();
    EndCall(start, seq);
    return ok;
  }

  std::uint64_t LateRejections() override {
    if (!counting_rejections_) {
      return 0;
    }
    return static_cast<std::uint64_t>(registry_.counter("runtime.publish_rejected").value() -
                                      rejected_base_);
  }

  std::vector<std::string> CounterNames() const override {
    return {"net.frames_in", "net.frames_out", "net.bytes_out", "net.backpressure_errors"};
  }

  // A saturated server loop can starve a session past the dead-peer
  // window; say so when a run reports loss.
  void Notes(Outcome* out) override {
    out->notes.push_back(
        "server: " + std::to_string(registry_.counter("net.heartbeat_misses").value()) +
        " heartbeat misses, " + std::to_string(registry_.counter("net.sessions_closed").value()) +
        " sessions closed; subscriber stream " +
        (sub_error_.empty() ? std::string("healthy") : "failed: " + sub_error_));
  }

  void LayerMetrics(const Sample& a, const Sample& b, Outcome* out) override {
    const double delivered = static_cast<double>(std::max<std::uint64_t>(1, b.delivered - a.delivered));
    const double wall = static_cast<double>(std::max<std::int64_t>(1, b.wall - a.wall));
    out->layers["server.loop_busy_frac"] = static_cast<double>(b.server_cpu - a.server_cpu) / wall;
    out->layers["server.frames_in_per_kmsg"] =
        static_cast<double>(Delta(a, b, "net.frames_in")) * 1000 / delivered;
    out->layers["server.frames_out_per_kmsg"] =
        static_cast<double>(Delta(a, b, "net.frames_out")) * 1000 / delivered;
    out->layers["server.bytes_out_per_msg"] =
        static_cast<double>(Delta(a, b, "net.bytes_out")) / delivered;
    out->layers["server.backpressure_errors"] =
        static_cast<double>(Delta(a, b, "net.backpressure_errors"));
    out->layers["client.publish_ns"] = CallMeanNs();
    out->layers["client.sub_cpu_us_per_msg"] =
        static_cast<double>(b.consumer_cpu - a.consumer_cpu) / 1e3 / delivered;
    out->layers["client.msgs_per_poll"] =
        static_cast<double>(polled_msgs_.load()) /
        static_cast<double>(std::max<std::uint64_t>(1, nonempty_polls_.load()));
  }

 private:
  std::unique_ptr<client::Client> Connect(const std::string& name) {
    client::ClientOptions options;
    options.client_name = name;
    auto c = client::Client::Connect("127.0.0.1", server_->port(), options);
    if (!c.ok()) {
      throw std::runtime_error("Connect: " + c.status().ToString());
    }
    return std::move(*c);
  }

  void Consume() {
    RegisterConsumerTid();
    SpanSink& sink = *consumer_sinks_[0];
    std::vector<pubsub::StoredMessage> buf;
    buf.reserve(512);
    while (!stop_.load(std::memory_order_relaxed)) {
      sink.Open(kConsumerIteration);
      buf.clear();
      sink.Open(kPollCall);
      const std::size_t n = sub_->Poll(&buf, 512, 2000);
      sink.Close(0, n);
      const std::int64_t in_hand = NowNs();
      if (n > 0) {
        nonempty_polls_.fetch_add(1, std::memory_order_relaxed);
        polled_msgs_.fetch_add(n, std::memory_order_relaxed);
      }
      for (const pubsub::StoredMessage& m : buf) {
        Delivered(0, m.message.key, m.message.value, in_hand, 0, 0);
      }
      sink.Close(0, n);
    }
  }

  std::unique_ptr<runtime::ConcurrentBroker> broker_;
  std::unique_ptr<server::Server> server_;
  std::unique_ptr<client::Client> publisher_;
  std::unique_ptr<client::Client> subscriber_;
  std::unique_ptr<client::Subscription> sub_;
  std::thread consumer_;
  std::string value_;
  std::int64_t rejected_base_ = 0;
  bool counting_rejections_ = false;
  std::string sub_error_;  // The DELIVER stream's error, if it failed.
  std::atomic<std::uint64_t> nonempty_polls_{0};
  std::atomic<std::uint64_t> polled_msgs_{0};
};

// -- watch_steady --------------------------------------------------------------------

class WatchSteady : public Workload {
 public:
  explicit WatchSteady(const RunSpec& spec)
      : Workload(spec, kRate, kSessions, OpenLoopMaxSeq(kRate, spec.seconds), 1) {}
  ~WatchSteady() override { Teardown(); }

  void Setup() override {
    runtime::RuntimeOptions options;
    options.shards = 2;
    options.queue_capacity = kOpenLoopQueueCapacity;
    // All keys share the RankKey prefix; split them evenly between shards.
    options.watch_splits = {bench::RankKey(kKeySpace / 2)};
    StartPool(options);
    service_ = std::make_unique<runtime::ConcurrentWatchService>(pool_.get());
    std::string value;
    for (std::size_t i = 0; i < kWatchBacklog; ++i) {
      const auto rank = static_cast<std::uint32_t>(i % kKeySpace);
      MakeValue(spec_.seed ^ kBacklogSeedSalt, i, rank, 0, &value);
      const common::ChangeEvent event{Key(rank), common::Mutation::Put(value),
                                      static_cast<common::Version>(i + 1)};
      while (!service_->TryIngest(event).ok()) {
        std::this_thread::yield();
      }
      if (i % kBatch == 0) {
        WaitForShallowQueues();
      }
    }
    pool_->Quiesce();
    latencies_.resize(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      consumer_sinks_.push_back(std::make_unique<SpanSink>(spec_.trace));
      callbacks_.push_back(std::make_unique<Session>(this, i));
    }
    constexpr std::uint64_t kPerSession = kKeySpace / kSessions;
    for (std::size_t i = 0; i < kSessions; ++i) {
      handles_.push_back(service_->Watch(bench::RankKey(i * kPerSession),
                                         bench::RankKey((i + 1) * kPerSession), kWatchBacklog,
                                         callbacks_[i].get()));
    }
    for (std::size_t i = 0; i < kWarmupRecords; ++i) {
      const std::uint64_t seq = NextSeq();
      const auto rank = static_cast<std::uint32_t>(seq % kKeySpace);
      MakeValue(spec_.seed, seq, rank, NowNs(), &value);
      const common::ChangeEvent event{Key(rank), common::Mutation::Put(value),
                                      VersionOf(seq)};
      while (!service_->TryIngest(event).ok()) {
        std::this_thread::yield();
      }
      checker_.Accepted();
    }
    WaitDelivered();
    stats_before_ = service_->TotalStats();
  }

  void Teardown() override {
    if (service_ != nullptr && pool_ != nullptr && pool_->running()) {
      stats_after_ = service_->TotalStats();
    }
    handles_.clear();
    if (pool_ != nullptr) {
      pool_->Stop();
    }
    service_.reset();
    pool_.reset();
  }

 protected:
  static constexpr double kRate = 200000;
  static constexpr std::size_t kSessions = 16;

  static common::Version VersionOf(std::uint64_t seq) { return kWatchBacklog + 1 + seq; }

  bool Fire(std::uint64_t seq, std::int64_t due_ns, std::uint32_t rank) override {
    MakeValue(spec_.seed, seq, rank, due_ns, &value_);
    const common::ChangeEvent event{Key(rank), common::Mutation::Put(value_),
                                    VersionOf(seq)};
    const std::int64_t start = BeginCall(seq, due_ns);
    const bool ok = service_->TryIngest(event).ok();
    EndCall(start, seq);
    return ok;
  }

  std::vector<std::string> CounterNames() const override {
    return {"runtime.ingest_accepted", "runtime.ingest_rejected", "runtime.watch_resyncs"};
  }

  void LayerMetrics(const Sample& a, const Sample& b, Outcome* out) override {
    const runtime::ConcurrentWatchService::Stats& after = stats_after_;
    const std::uint64_t ingested = checker_.accepted();
    out->layers["runtime.try_ingest_ns"] = CallMeanNs();
    out->layers["runtime.ingest_rejected"] =
        static_cast<double>(Delta(a, b, "runtime.ingest_rejected"));
    out->layers["runtime.watch_resyncs"] = static_cast<double>(Delta(a, b, "runtime.watch_resyncs"));
    out->layers["watch.events_delivered_per_ingest"] =
        static_cast<double>(after.events_delivered - stats_before_.events_delivered) /
        static_cast<double>(std::max<std::uint64_t>(1, ingested - kWarmupRecords));
    out->layers["watch.retained_events"] = static_cast<double>(after.retained_events);
  }

 private:
  class Session : public watch::WatchCallback {
   public:
    Session(WatchSteady* owner, std::size_t index) : owner_(owner), index_(index) {}
    void OnEvent(const common::ChangeEvent& event) override {
      const std::int64_t in_hand = NowNs();
      SpanSink& sink = *owner_->consumer_sinks_[index_];
      sink.Open(kWatchCallback);
      ParsedRecord rec;
      rec.seq = std::numeric_limits<std::uint64_t>::max();
      owner_->Delivered(index_, event.key, event.mutation.value, in_hand, 0, index_,
                        static_cast<long>(RankOf(event.key) / kPer), &rec);
      if (rec.seq != std::numeric_limits<std::uint64_t>::max() &&
          event.version != VersionOf(rec.seq)) {
        owner_->checker_.Corrupt();
      }
      sink.Close(rec.seq, 1);
    }
    void OnProgress(const common::ProgressEvent&) override {}
    void OnResync() override { owner_->checker_.Resync(); }

   private:
    static constexpr std::uint64_t kPer = kKeySpace / kSessions;
    static std::uint64_t RankOf(const std::string& key) {
      return key.size() == kKeyBytes ? std::strtoull(key.c_str() + 1, nullptr, 10) : 0;
    }
    WatchSteady* owner_;
    std::size_t index_;
  };

  std::unique_ptr<runtime::ConcurrentWatchService> service_;
  std::vector<std::unique_ptr<Session>> callbacks_;
  std::vector<std::unique_ptr<watch::WatchHandle>> handles_;
  runtime::ConcurrentWatchService::Stats stats_before_;
  runtime::ConcurrentWatchService::Stats stats_after_;  // Read before the pool stops.
  std::string value_;
};

std::unique_ptr<Workload> MakeWorkload(const RunSpec& spec) {
  if (spec.workload == "inproc_steady") {
    return std::make_unique<InprocSteady>(spec);
  }
  if (spec.workload == "inproc_saturate") {
    return std::make_unique<InprocSaturate>(spec);
  }
  if (spec.workload == "socket_steady") {
    return std::make_unique<SocketSteady>(spec);
  }
  if (spec.workload == "watch_steady") {
    return std::make_unique<WatchSteady>(spec);
  }
  throw std::invalid_argument("unknown workload " + spec.workload);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"inproc_steady", "socket_steady",
                                                 "inproc_saturate", "watch_steady"};
  return names;
}

Outcome RunWorkload(const RunSpec& spec, const std::string& trace_dir) {
  // The measured instance is set up first; the extra set-ups (timed only)
  // come after its peak memory is read, so they cannot raise it.
  Outcome out;
  std::vector<double> setup_s;
  {
    std::unique_ptr<Workload> w = MakeWorkload(spec);
    const std::int64_t start = NowNs();
    w->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    w->Run();
    w->Teardown();
    out.peak_rss_mb = PeakRssMb();
    w->Report(&out);
    if (spec.trace && !trace_dir.empty()) {
      w->WriteSpans(trace_dir + "/spans-" + spec.workload + "-seed" + std::to_string(spec.seed) +
                    ".json");
    }
  }
  for (int i = 1; i < spec.setups; ++i) {
    std::unique_ptr<Workload> w = MakeWorkload(spec);
    const std::int64_t start = NowNs();
    w->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    w->Teardown();
  }
  out.setup_s = Median(setup_s);
  return out;
}

}  // namespace perfbench
