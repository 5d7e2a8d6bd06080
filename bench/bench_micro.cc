// M1: google-benchmark microbenchmarks for the library's hot paths —
// interval-map operations, MVCC reads/writes, log append/read, compaction,
// the caught-up subscription handoff (hop 7), watch dispatch fan-out,
// knowledge stitching, and the CDC codec.
#include <benchmark/benchmark.h>

#include <functional>
#include <string>
#include <vector>

#include "cdc/codec.h"
#include "common/interval_map.h"
#include "common/rng.h"
#include "pubsub/broker.h"
#include "pubsub/log.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/mvcc_store.h"
#include "watch/knowledge.h"
#include "watch/router.h"
#include "watch/watch_system.h"

namespace {

void BM_IntervalMapAssign(benchmark::State& state) {
  common::Rng rng(1);
  common::IntervalMap<int> map(0);
  int v = 0;
  for (auto _ : state) {
    const auto lo = rng.Below(100000);
    map.Assign(common::KeyRange{common::IndexKey(lo), common::IndexKey(lo + rng.Below(500))},
               ++v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntervalMapAssign);

void BM_IntervalMapGet(benchmark::State& state) {
  common::Rng rng(2);
  common::IntervalMap<int> map(0);
  for (int i = 0; i < 1000; ++i) {
    const auto lo = rng.Below(100000);
    map.Assign(common::KeyRange{common::IndexKey(lo), common::IndexKey(lo + 50)}, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Get(common::IndexKey(rng.Below(100000))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntervalMapGet);

void BM_MvccApply(benchmark::State& state) {
  storage::MvccStore store;
  common::Rng rng(3);
  for (auto _ : state) {
    store.Apply(common::IndexKey(rng.Below(10000)), common::Mutation::Put("value"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvccApply);

void BM_MvccGetLatest(benchmark::State& state) {
  storage::MvccStore store;
  common::Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    store.Apply(common::IndexKey(i), common::Mutation::Put("value"));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.GetLatest(common::IndexKey(rng.Below(10000))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvccGetLatest);

void BM_MvccSnapshotScan(benchmark::State& state) {
  storage::MvccStore store;
  for (int i = 0; i < 1000; ++i) {
    store.Apply(common::IndexKey(i), common::Mutation::Put("value"));
  }
  const common::Version v = store.LatestVersion();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Scan(common::KeyRange::All(), v));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MvccSnapshotScan);

void BM_LogAppend(benchmark::State& state) {
  pubsub::PartitionLog log({.max_messages = 100000});
  for (auto _ : state) {
    log.Append(pubsub::Message{"key", std::string(128, 'x'), 0});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogAppend);

void BM_LogCompact(benchmark::State& state) {
  common::Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    pubsub::PartitionLog log({});
    for (int i = 0; i < 10000; ++i) {
      log.Append(pubsub::Message{common::IndexKey(rng.Below(100)), "v",
                                 static_cast<common::TimeMicros>(i)});
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(log.Compact(9000));
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_LogCompact);

// The caught-up record shape: a short key and a 100-byte value, on a
// partition capped at 2^17 records (the retained history a live-edge read
// seeks over; every append past the cap trims the head).
constexpr std::size_t kLiveEdgeCap = std::size_t{1} << 17;

pubsub::Message LiveEdgeRecord(std::uint64_t i) {
  return pubsub::Message{"k" + std::to_string(i % 4096), std::string(100, 'v'), 0, {}};
}

// One append, then a one-record read at the live edge: the fetch a
// caught-up pump makes after every append. BM_LogAppend alone is the
// append's share.
void BM_LogReadLiveEdge(benchmark::State& state) {
  pubsub::PartitionLog log({.max_messages = kLiveEdgeCap});
  for (std::uint64_t i = 0; i < kLiveEdgeCap; ++i) {
    log.Append(LiveEdgeRecord(i));
  }
  std::vector<pubsub::StoredMessage> out;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const pubsub::Offset at = log.Append(LiveEdgeRecord(i++));
    out.clear();
    benchmark::DoNotOptimize(log.ReadInto(at, 1, &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogReadLiveEdge);

// Hop 7 in isolation, without threads: per record, a broker publish fires
// the caught-up reader's parked append waiter as an immediate simulator
// event; the reader fetches the new record and re-arms at the live edge —
// the runtime Subscription's pump, minus its handoff lock and doorbell.
void BM_CaughtUpPump(benchmark::State& state) {
  sim::Simulator sim;
  sim::Network net(&sim);
  pubsub::Broker broker(&sim, &net);
  pubsub::TopicConfig config;
  config.retention.max_messages = kLiveEdgeCap;
  if (!broker.CreateTopic("t", config).ok()) {
    state.SkipWithError("CreateTopic failed");
    return;
  }
  for (std::uint64_t i = 0; i < kLiveEdgeCap; ++i) {
    (void)broker.Publish("t", LiveEdgeRecord(i), 0);
  }
  struct Reader {
    pubsub::Broker* broker;
    pubsub::Offset cursor;
    std::vector<pubsub::StoredMessage> scratch;
    void Pump() {
      scratch.clear();
      auto got = broker->FetchInto("t", 0, cursor, 256, &scratch);
      if (got.ok() && *got > 0) {
        cursor = scratch.back().offset + 1;
      }
      broker->WaitForAppend("t", 0, cursor, [this] { Pump(); });
    }
  };
  Reader reader{&broker, broker.EndOffset("t", 0), {}};
  reader.Pump();
  std::uint64_t i = kLiveEdgeCap;
  for (auto _ : state) {
    (void)broker.Publish("t", LiveEdgeRecord(i++), 0);
    sim.RunUntil(sim.Now());  // The fired waiter; not the broker's periodic GC.
  }
  if (reader.cursor != broker.EndOffset("t", 0)) {
    state.SkipWithError("the reader fell behind the live edge");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CaughtUpPump);

void BM_WatchDispatch(benchmark::State& state) {
  const auto sessions = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  watch::WatchSystem ws(&sim, nullptr, "ws",
                        {.delivery_latency = 0, .progress_period = 0});

  class NullCallback : public watch::WatchCallback {
   public:
    void OnEvent(const watch::ChangeEvent&) override {}
    void OnProgress(const watch::ProgressEvent&) override {}
    void OnResync() override {}
  };
  std::vector<NullCallback> callbacks(sessions);
  std::vector<std::unique_ptr<watch::WatchHandle>> handles;
  for (std::size_t s = 0; s < sessions; ++s) {
    // Each session watches a distinct slice; dispatch filters by range.
    handles.push_back(ws.Watch(common::IndexKey(s * 100), common::IndexKey((s + 1) * 100), 0,
                               &callbacks[s]));
  }
  common::Rng rng(6);
  common::Version v = 0;
  for (auto _ : state) {
    ws.Append(common::ChangeEvent{common::IndexKey(rng.Below(sessions * 100)),
                                  common::Mutation::Put("x"), ++v, true});
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WatchDispatch)->Arg(4)->Arg(32)->Arg(256);

void BM_KnowledgeStitch(benchmark::State& state) {
  const auto maps_n = static_cast<std::size_t>(state.range(0));
  std::vector<watch::KnowledgeMap> maps(maps_n);
  common::Rng rng(7);
  for (std::size_t i = 0; i < maps_n; ++i) {
    const auto lo = i * 1000;
    maps[i].AddSnapshot(common::KeyRange{common::IndexKey(lo), common::IndexKey(lo + 1000)},
                        10 + rng.Below(5));
    maps[i].ExtendTo(common::KeyRange{common::IndexKey(lo), common::IndexKey(lo + 1000)},
                     100 + rng.Below(50));
  }
  std::vector<const watch::KnowledgeMap*> ptrs;
  for (const auto& m : maps) {
    ptrs.push_back(&m);
  }
  const common::KeyRange query{common::IndexKey(0), common::IndexKey(maps_n * 1000)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(watch::KnowledgeMap::MaxStitchableVersion(ptrs, query));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KnowledgeStitch)->Arg(4)->Arg(16)->Arg(64);

void BM_CodecEncode(benchmark::State& state) {
  const common::ChangeEvent ev{"user/12345", common::Mutation::Put(std::string(256, 'p')),
                               987654321, true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdc::EncodeChangeEvent(ev));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecEncode);

void BM_CodecDecode(benchmark::State& state) {
  const common::Value encoded = cdc::EncodeChangeEvent(
      {"user/12345", common::Mutation::Put(std::string(256, 'p')), 987654321, true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdc::DecodeChangeEvent(encoded));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecDecode);

void BM_WindowSetUnion(benchmark::State& state) {
  common::Rng rng(9);
  watch::WindowSet set;
  for (int i = 0; i < 50; ++i) {
    set = watch::UnionWindow(set, {i * 100ull, i * 100ull + 40});
  }
  for (auto _ : state) {
    const std::uint64_t lo = rng.Below(5000);
    benchmark::DoNotOptimize(watch::UnionWindow(set, {lo, lo + rng.Below(300)}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowSetUnion);

void BM_RouterAppend(benchmark::State& state) {
  const auto partitions = static_cast<std::uint32_t>(state.range(0));
  sim::Simulator sim;
  sim::Network net(&sim, {.base = 0, .jitter = 0});
  std::vector<common::KeyRange> ranges;
  for (std::uint32_t i = 0; i < partitions; ++i) {
    ranges.push_back(common::KeyRange{common::IndexKey(i * 1000), common::IndexKey((i + 1) * 1000)});
  }
  watch::WatchRouter router(&sim, &net, "r", ranges,
                            {.window = {.max_events = 1000},
                             .delivery_latency = 0,
                             .progress_period = 0});
  common::Rng rng(10);
  common::Version v = 0;
  for (auto _ : state) {
    router.Append({common::IndexKey(rng.Below(partitions * 1000)),
                   common::Mutation::Put("x"), ++v, true});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterAppend)->Arg(2)->Arg(8)->Arg(32);

void BM_SimulatorEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    int counter = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.At(i, [&counter] { ++counter; });
    }
    state.ResumeTiming();
    sim.Run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventLoop);

void BM_RngZipf(benchmark::State& state) {
  common::Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Zipf(100000, 0.99));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngZipf);


}  // namespace

BENCHMARK_MAIN();
