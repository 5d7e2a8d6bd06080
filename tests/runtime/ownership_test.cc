// Shard ownership: whoever runs a shard's tasks holds its owner lock, and a
// non-blocking post to an idle shard runs to completion on the caller. These
// tests pin the rule down: an idle shard runs TryPublish / TryIngest on the
// calling thread, a mix of claimed and queued posts keeps per-producer FIFO
// and exact counts, durable pools and batches always hand off, Stop leaves no
// claimed task running, and a fence sees settled cores while producers
// hammer TryPost.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.h"
#include "pubsub/types.h"
#include "runtime/concurrent_broker.h"
#include "runtime/concurrent_watch.h"
#include "runtime/publish_batch.h"
#include "runtime/shard_pool.h"
#include "runtime/subscription.h"
#include "wal/fault_vfs.h"
#include "watch/api.h"

namespace runtime {
namespace {

RuntimeOptions Options(std::size_t shards, std::size_t queue_capacity = 4096) {
  RuntimeOptions o;
  o.shards = shards;
  o.queue_capacity = queue_capacity;
  return o;
}

pubsub::TopicConfig OnePartition() {
  pubsub::TopicConfig config;
  config.partitions = 1;
  return config;
}

// Every push rings, so the ready hook sees every pump.
SubscriptionOptions Uncoalesced() {
  SubscriptionOptions o;
  o.wake_coalesce_us = 0;
  return o;
}

std::int64_t Inline(ShardPool& pool) {
  return pool.metrics().counter("runtime.tasks_inline").value();
}

// Retries `attempt` until it reports a run on the calling thread. An idle
// worker holds its owner lock only for the instants between popping a task
// and flushing after it, so a few attempts always find the shard free.
template <typename Fn>
bool EventuallyOnCaller(Fn attempt) {
  for (int i = 0; i < 2000; ++i) {
    if (attempt()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

class ThreadRecorder : public watch::WatchCallback {
 public:
  void OnEvent(const common::ChangeEvent&) override {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::this_thread::get_id());
  }
  void OnProgress(const common::ProgressEvent&) override {}
  void OnResync() override {}

  std::vector<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::thread::id> threads_;
};

TEST(ShardOwnershipTest, IdleShardRunsTryPublishOnTheCaller) {
  ShardPool pool(Options(1));
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", OnePartition()).ok());
  auto sub = broker.Subscribe("t", 0, 0, Uncoalesced());
  ASSERT_NE(sub, nullptr);
  std::mutex mu;
  std::vector<std::thread::id> hook_threads;
  sub->SetReadyHook([&] {
    std::lock_guard<std::mutex> lock(mu);
    hook_threads.push_back(std::this_thread::get_id());
  });
  pool.Quiesce();

  const std::thread::id me = std::this_thread::get_id();
  const std::int64_t inline_before = Inline(pool);
  int published = 0;
  const bool on_caller = EventuallyOnCaller([&] {
    std::size_t seen;
    {
      std::lock_guard<std::mutex> lock(mu);
      seen = hook_threads.size();
    }
    const std::int64_t before = Inline(pool);
    EXPECT_TRUE(broker.TryPublish("t", {"k", "v" + std::to_string(published), 0, {}}).ok());
    ++published;
    if (Inline(pool) == before) {
      return false;  // Queued: the worker held the shard this time.
    }
    // Claimed: the append, the pump and the hook all ran before TryPublish
    // returned, on this thread.
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_GT(hook_threads.size(), seen);
    return hook_threads.size() > seen && hook_threads.back() == me;
  });
  EXPECT_TRUE(on_caller) << "no TryPublish ever ran on the idle shard's caller";
  EXPECT_GT(Inline(pool), inline_before);

  std::vector<pubsub::StoredMessage> got;
  while (got.size() < static_cast<std::size_t>(published) && sub->Wait(1'000'000)) {
    sub->PollBatch(&got, 256);
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(published));
  for (int i = 0; i < published; ++i) {
    EXPECT_EQ(got[i].message.value, "v" + std::to_string(i));
  }
  sub.reset();
  pool.Stop();
}

TEST(ShardOwnershipTest, IdleShardRunsTryIngestOnTheCaller) {
  ShardPool pool(Options(2));
  ConcurrentWatchService watch(&pool);
  pool.Start();
  ThreadRecorder recorder;
  auto handle = watch.Watch(common::Key(), common::Key(), 0, &recorder);
  ASSERT_NE(handle, nullptr);
  pool.Quiesce();

  const std::thread::id me = std::this_thread::get_id();
  const std::int64_t inline_before = Inline(pool);
  common::Version version = 0;
  const bool on_caller = EventuallyOnCaller([&] {
    const std::size_t seen = recorder.threads().size();
    const std::int64_t before = Inline(pool);
    ++version;
    const common::ChangeEvent event{"key", common::Mutation::Put("v"), version};
    EXPECT_TRUE(watch.TryIngest(event).ok());
    if (Inline(pool) == before) {
      return false;
    }
    const std::vector<std::thread::id> threads = recorder.threads();
    EXPECT_EQ(threads.size(), seen + 1) << "a claimed ingest delivers before returning";
    return threads.size() == seen + 1 && threads.back() == me;
  });
  EXPECT_TRUE(on_caller) << "no TryIngest ever ran on the idle shard's caller";
  EXPECT_GT(Inline(pool), inline_before);
  pool.Quiesce();
  EXPECT_EQ(recorder.threads().size(), static_cast<std::size_t>(version));
  handle.reset();
  pool.Stop();
}

TEST(ShardOwnershipTest, MixedClaimedAndQueuedPostsKeepPerProducerFifo) {
  constexpr std::size_t kShards = 2;
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 5000;
  ShardPool pool(Options(kShards, 256));
  pool.Start();

  // Shard-confined logs: only tasks touch them, and the owner lock is the
  // only thing keeping two runners apart. `inside` catches any overlap.
  struct ShardLog {
    std::vector<std::pair<int, int>> entries;
    std::atomic<int> inside{0};
    std::atomic<int> overlaps{0};
  };
  std::vector<ShardLog> logs(kShards);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      ShardLog& log = logs[static_cast<std::size_t>(p) % kShards];
      for (int seq = 0; seq < kPerProducer; ++seq) {
        Task task = [&log, p, seq] {
          if (log.inside.fetch_add(1) != 0) {
            log.overlaps.fetch_add(1);
          }
          log.entries.emplace_back(p, seq);
          log.inside.fetch_sub(1);
        };
        const std::size_t shard = static_cast<std::size_t>(p) % kShards;
        if (seq % 16 == 15) {
          pool.Post(shard, std::move(task));  // Always queued.
          continue;
        }
        while (!pool.TryPost(shard, task)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  pool.Stop();

  std::size_t total = 0;
  for (const ShardLog& log : logs) {
    EXPECT_EQ(log.overlaps.load(), 0) << "two threads ran one shard's tasks at once";
    std::vector<int> next(kProducers, 0);
    for (const auto& [p, seq] : log.entries) {
      EXPECT_EQ(seq, next[p]) << "producer " << p << " reordered";
      next[p] = seq + 1;
    }
    total += log.entries.size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kProducers) * kPerProducer);
  EXPECT_EQ(pool.metrics().counter("runtime.tasks_run").value(),
            static_cast<std::int64_t>(total));
  EXPECT_LE(Inline(pool), static_cast<std::int64_t>(total));
}

TEST(ShardOwnershipTest, DurablePoolsAndBatchesAlwaysHandOff) {
  const std::thread::id me = std::this_thread::get_id();
  {
    wal::FaultVfs vfs;
    RuntimeOptions options;
    options.shards = 1;
    options.durable_vfs = &vfs;
    ShardPool pool(options);
    ConcurrentBroker broker(&pool);
    pool.Start();
    ASSERT_TRUE(broker.CreateTopic("t", OnePartition()).ok());
    std::mutex mu;
    std::vector<std::thread::id> ran_on;
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(pool.TryPost(0, [&] {
        std::lock_guard<std::mutex> lock(mu);
        ran_on.push_back(std::this_thread::get_id());
      }));
      ASSERT_TRUE(broker.TryPublish("t", {"k", "v", 0, {}}).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    pool.Quiesce();
    ASSERT_EQ(ran_on.size(), 200u);
    for (const std::thread::id& t : ran_on) {
      EXPECT_NE(t, me) << "a durable pool ran a task on the caller";
    }
    EXPECT_EQ(Inline(pool), 0);
    EXPECT_EQ(broker.EndOffset("t", 0), 200u);
    pool.Stop();
  }
  {
    ShardPool pool(Options(1));
    ConcurrentBroker broker(&pool);
    pool.Start();
    ASSERT_TRUE(broker.CreateTopic("t", OnePartition()).ok());
    auto sub = broker.Subscribe("t", 0, 0, Uncoalesced());
    std::mutex mu;
    std::vector<std::thread::id> hook_threads;
    sub->SetReadyHook([&] {
      std::lock_guard<std::mutex> lock(mu);
      hook_threads.push_back(std::this_thread::get_id());
    });
    pool.Quiesce();
    for (int i = 0; i < 50; ++i) {
      auto batch = std::make_shared<PublishBatch>();
      batch->Add("k", "a");
      batch->Add("k", "b");
      ASSERT_TRUE(broker.TryPublishBatch("t", batch).ok());
      Task tasks[2] = {[] {}, [] {}};
      ASSERT_TRUE(pool.TryPostBatch(0, tasks, 2));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // Drain through the subscription, not a fence: a fence flushes the cores
    // on its caller, which would run the pump (and the hook) right here.
    std::vector<pubsub::StoredMessage> got;
    while (got.size() < 100 && sub->Wait(1'000'000)) {
      sub->PollBatch(&got, 256);
    }
    EXPECT_EQ(got.size(), 100u);
    EXPECT_EQ(Inline(pool), 0);
    pool.Stop();
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(hook_threads.empty());
    for (const std::thread::id& t : hook_threads) {
      EXPECT_NE(t, me) << "a batch ran on the caller";
    }
  }
}

TEST(ShardOwnershipTest, StopRacingClaimsLeavesNoTaskRunning) {
  // A short ring keeps Stop's drain of 20 µs tasks short.
  ShardPool pool(Options(2, 16));
  std::atomic<int> active{0};
  std::atomic<bool> stopped{false};
  std::atomic<int> ran_after_stop{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      while (!done.load()) {
        (void)pool.TryPost(static_cast<std::size_t>(p) % 2, [&] {
          if (stopped.load()) {
            ran_after_stop.fetch_add(1);
          }
          active.fetch_add(1);
          // Long enough for Stop to land mid-task now and then.
          const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(20);
          while (std::chrono::steady_clock::now() < until) {
          }
          active.fetch_sub(1);
        });
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    stopped.store(false);
    pool.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pool.Stop();
    EXPECT_EQ(active.load(), 0) << "a task was still running when Stop returned";
    stopped.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    EXPECT_EQ(ran_after_stop.load(), 0) << "a task started after Stop returned";
  }
  done.store(true);
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_GT(pool.metrics().counter("runtime.tasks_run").value(), 0);
}

TEST(ShardOwnershipTest, FenceUnderTryPostHammerSeesSettledCores) {
  constexpr std::size_t kShards = 2;
  ShardPool pool(Options(kShards));
  pool.Start();
  // Per shard: tasks bump `posted` and schedule a zero-delay simulator event
  // that bumps `flushed`. A settled core has flushed everything it posted,
  // and no task is mid-flight while the fence holds it.
  struct Core {
    std::int64_t posted = 0;
    std::int64_t flushed = 0;
    std::atomic<int> inside{0};
  };
  std::vector<Core> cores(kShards);
  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      const std::size_t shard = static_cast<std::size_t>(p) % kShards;
      Core& c = cores[shard];
      ShardCore& core = pool.core(shard);
      while (!done.load()) {
        (void)pool.TryPost(shard, [&c, &core] {
          c.inside.fetch_add(1);
          ++c.posted;
          core.sim->After(0, [&c] { ++c.flushed; });
          c.inside.fetch_sub(1);
        });
      }
    });
  }
  for (int fence = 0; fence < 200; ++fence) {
    pool.RunFenced([&] {
      for (Core& c : cores) {
        EXPECT_EQ(c.inside.load(), 0) << "a task ran inside the fence";
        EXPECT_EQ(c.posted, c.flushed) << "the fence saw an unflushed core";
      }
    });
  }
  done.store(true);
  for (auto& t : producers) {
    t.join();
  }
  pool.Stop();
  for (const Core& c : cores) {
    EXPECT_EQ(c.posted, c.flushed);
    EXPECT_GT(c.posted, 0);
  }
}

}  // namespace
}  // namespace runtime
