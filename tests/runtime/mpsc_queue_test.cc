// MpscQueue, the shard ingress ring. Four layers:
//
//  1. RingContractTest: the behavioural contract the ShardPool builds on —
//     loud TryPush backpressure with exact rejection behaviour, per-producer
//     FIFO, all-or-nothing batch claims, close-drains-then-exit, reopen, and
//     edge parking. The 8-producer stress is the TSan-facing test CI runs
//     under -DPUBSUB_SANITIZE=thread.
//  2. RingEquivalenceTest: the ring and a plain reference model (a deque
//     with a capacity and a closed flag) driven by the same deterministic op
//     script produce identical accept/reject/drain traces.
//  3. MpscRegressionTest: two fixed paper cuts — drained slots must release
//     captured task state, and a drain must not reallocate the output vector
//     inside the critical section.
//  4. MpscQueueTest: the ring's first unit tests — FIFO, the full edge,
//     close-then-drain, blocking push and a 4-producer count-and-order run —
//     at smaller sizes than the contract suite.
#include "runtime/mpsc_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace runtime {
namespace {

TEST(RingContractTest, FifoSingleProducer) {
  MpscQueue<int> q(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.TryPush(int{i}));
  }
  std::vector<int> out;
  EXPECT_EQ(q.TryPopBatch(out, 16), 5u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RingContractTest, ExactCapacityAndRejectionAtTheFullEdge) {
  // Deliberately NOT a power of two: the capacity is exact.
  MpscQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_FALSE(q.TryPush(4));  // Full: loud, item untouched.
  EXPECT_FALSE(q.TryPush(5));
  std::vector<int> out;
  EXPECT_EQ(q.TryPopBatch(out, 1), 1u);  // Batch bound respected: one popped.
  EXPECT_TRUE(q.TryPush(4));          // Exactly one slot freed.
  EXPECT_FALSE(q.TryPush(5));
  out.clear();
  EXPECT_EQ(q.TryPopBatch(out, 8), 3u);
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4}));
}

TEST(RingContractTest, RejectedPushLeavesItemUntouched) {
  // Capacity 1, the smallest ring: one accepted item fills it.
  MpscQueue<std::vector<int>> q(1);
  ASSERT_TRUE(q.TryPush(std::vector<int>{0}));
  std::vector<int> item{1, 2, 3};
  EXPECT_FALSE(q.TryPush(std::move(item)));
  // The backpressure contract: a rejected move-push must leave the caller
  // owning the intact value (it retries or surfaces kUnavailable with it).
  EXPECT_EQ(item, (std::vector<int>{1, 2, 3}));
}

TEST(RingContractTest, CloseDrainsRemainderThenSignalsExit) {
  MpscQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_FALSE(q.Push(3));
  std::vector<int> out;
  EXPECT_EQ(q.TryPopBatch(out, 8), 2u);  // Remainder drains.
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_FALSE(q.WaitForWork());  // Closed-and-drained.
}

TEST(RingContractTest, ReopenRestoresServiceAfterCloseAndDrain) {
  MpscQueue<int> q(2);
  ASSERT_TRUE(q.TryPush(1));
  q.Close();
  std::vector<int> out;
  ASSERT_EQ(q.TryPopBatch(out, 8), 1u);
  ASSERT_FALSE(q.WaitForWork());
  q.Reopen();
  EXPECT_FALSE(q.closed());
  EXPECT_TRUE(q.TryPush(7));  // The Stop→Start cycle of a ShardPool.
  EXPECT_TRUE(q.TryPush(8));
  EXPECT_FALSE(q.TryPush(9));  // Capacity intact across the cycle.
  out.clear();
  EXPECT_EQ(q.TryPopBatch(out, 8), 2u);
  EXPECT_EQ(out, (std::vector<int>{7, 8}));
}

TEST(RingContractTest, TryPushBatchIsAllOrNothing) {
  MpscQueue<int> q(4);
  int batch3[] = {1, 2, 3};
  EXPECT_TRUE(q.TryPushBatch(batch3, 3));
  int batch2[] = {4, 5};
  EXPECT_FALSE(q.TryPushBatch(batch2, 2));  // Only one slot free: none taken.
  EXPECT_EQ(batch2[0], 4);                  // Items untouched on rejection.
  EXPECT_EQ(batch2[1], 5);
  int one[] = {4};
  EXPECT_TRUE(q.TryPushBatch(one, 1));  // The single free slot is claimable.
  int oversized[8] = {};
  EXPECT_FALSE(q.TryPushBatch(oversized, 8));  // n > capacity can never fit.
  EXPECT_TRUE(q.TryPushBatch(nullptr, 0));     // Empty batch is a no-op.
  std::vector<int> out;
  EXPECT_EQ(q.TryPopBatch(out, 8), 4u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));  // Batch order preserved.
  q.Close();
  int after[] = {9};
  EXPECT_FALSE(q.TryPushBatch(after, 1));
}

TEST(RingContractTest, BlockingPushWaitsForSpace) {
  MpscQueue<int> q(2);
  ASSERT_TRUE(q.TryPush(0));
  ASSERT_TRUE(q.TryPush(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));
    pushed = true;
  });
  // A sleep can only produce a false pass, never a false failure.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // Parked on the full edge.
  std::vector<int> out;
  EXPECT_EQ(q.TryPopBatch(out, 1), 1u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  out.clear();
  EXPECT_EQ(q.TryPopBatch(out, 8), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(RingContractTest, CloseWakesBlockedProducer) {
  // No consumer thread: nothing can free a slot, so the blocked Push can only
  // return via the close wake (a drain racing ahead of Close would otherwise
  // let the push legitimately succeed).
  MpscQueue<int> q(2);
  ASSERT_TRUE(q.TryPush(0));
  ASSERT_TRUE(q.TryPush(1));
  std::thread producer([&] { EXPECT_FALSE(q.Push(2)); });  // Full, then closed.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
  // The accepted items survived the rejected push and the close.
  std::vector<int> out;
  EXPECT_EQ(q.TryPopBatch(out, 8), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1}));
  EXPECT_FALSE(q.WaitForWork());
}

TEST(RingContractTest, CloseWakesParkedConsumer) {
  MpscQueue<int> q(2);
  std::thread consumer([&] {
    // Empty and open: parks until the close wake, then reports drained.
    EXPECT_FALSE(q.WaitForWork());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

// The accounting property the backpressure contract is built on, at the CI
// stress width (8 producers): every push that returned true drains exactly
// once, every TryPush that returned false drained zero times, and each
// producer's accepted items drain in its push order. Runs blocking Push on
// half the producers and TryPush (counting rejections) on the other half so
// both the parked-edge and the loud-failure paths are exercised under TSan.
TEST(RingContractTest, EightProducerStressExactAccountingAndFifo) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 5000;
  MpscQueue<std::pair<int, int>> q(64);

  std::vector<std::vector<int>> drained(kProducers);
  std::thread consumer([&] {
    std::vector<std::pair<int, int>> batch;
    while (q.WaitForWork()) {
      batch.clear();
      q.TryPopBatch(batch, 128);
      for (const auto& [producer, seq] : batch) {
        drained[static_cast<std::size_t>(producer)].push_back(seq);
      }
    }
  });

  std::vector<std::size_t> accepted(kProducers, 0);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &accepted, p] {
      const bool blocking = (p % 2) == 0;
      std::size_t ok = 0;
      for (int i = 0; i < kPerProducer; ++i) {
        if (blocking) {
          ASSERT_TRUE(q.Push({p, i}));
          ++ok;
        } else if (q.TryPush({p, i})) {
          ++ok;
        }
        // Rejected TryPush items are simply dropped by this producer; the
        // accounting below proves the queue dropped nothing it accepted and
        // invented nothing it rejected.
      }
      accepted[static_cast<std::size_t>(p)] = ok;
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  q.Close();
  consumer.join();

  for (int p = 0; p < kProducers; ++p) {
    const auto& seqs = drained[static_cast<std::size_t>(p)];
    ASSERT_EQ(seqs.size(), accepted[static_cast<std::size_t>(p)])
        << "producer " << p << ": accepted/drained mismatch";
    if ((p % 2) == 0) {
      ASSERT_EQ(seqs.size(), static_cast<std::size_t>(kPerProducer));
    }
    // Per-producer FIFO: drained sequence numbers strictly increase.
    for (std::size_t i = 1; i < seqs.size(); ++i) {
      ASSERT_LT(seqs[i - 1], seqs[i]) << "producer " << p << " reordered";
    }
  }
}

// Concurrent batch producers: batches land contiguously (a drained window of
// one producer's batch is never interleaved) and accounting stays exact.
TEST(RingContractTest, ConcurrentBatchClaimsStayContiguous) {
  constexpr int kProducers = 4;
  constexpr int kBatches = 2000;
  constexpr int kBatchLen = 3;
  MpscQueue<std::pair<int, int>> q(64);

  std::vector<std::vector<int>> drained(kProducers);
  std::thread consumer([&] {
    std::vector<std::pair<int, int>> batch;
    while (q.WaitForWork()) {
      batch.clear();
      q.TryPopBatch(batch, 128);
      for (const auto& [producer, seq] : batch) {
        drained[static_cast<std::size_t>(producer)].push_back(seq);
      }
    }
  });

  std::vector<std::size_t> accepted_batches(kProducers, 0);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &accepted_batches, p] {
      std::size_t ok = 0;
      for (int b = 0; b < kBatches; ++b) {
        std::pair<int, int> items[kBatchLen];
        for (int i = 0; i < kBatchLen; ++i) {
          items[i] = {p, b * kBatchLen + i};
        }
        if (q.TryPushBatch(items, kBatchLen)) {
          ++ok;
        }
      }
      accepted_batches[static_cast<std::size_t>(p)] = ok;
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  q.Close();
  consumer.join();

  for (int p = 0; p < kProducers; ++p) {
    const auto& seqs = drained[static_cast<std::size_t>(p)];
    ASSERT_EQ(seqs.size(), accepted_batches[static_cast<std::size_t>(p)] * kBatchLen);
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      if (i % kBatchLen == 0) {
        ASSERT_EQ(seqs[i] % kBatchLen, 0) << "batch start misaligned";
      } else {
        // Within a batch, members are consecutive: the claim was contiguous.
        ASSERT_EQ(seqs[i], seqs[i - 1] + 1) << "producer " << p << " batch torn";
      }
      if (i > 0 && i % kBatchLen == 0) {
        ASSERT_LT(seqs[i - 1], seqs[i]) << "batches reordered";
      }
    }
  }
}

// The reference model: the ring's single-threaded contract with nothing else
// in it — a bounded deque plus a closed flag.
class ModelRing {
 public:
  explicit ModelRing(std::size_t capacity) : capacity_(capacity) {}

  bool TryPush(int&& v) {
    if (closed_ || items_.size() == capacity_) {
      return false;
    }
    items_.push_back(v);
    return true;
  }
  bool TryPushBatch(int* items, std::size_t n) {
    if (n == 0) {
      return true;
    }
    if (closed_ || items_.size() + n > capacity_) {
      return false;
    }
    items_.insert(items_.end(), items, items + n);
    return true;
  }
  std::size_t TryPopBatch(std::vector<int>& out, std::size_t max) {
    std::size_t popped = 0;
    for (; popped < max && !items_.empty(); ++popped) {
      out.push_back(items_.front());
      items_.pop_front();
    }
    return popped;
  }
  void Close() { closed_ = true; }
  void Reopen() { closed_ = false; }
  std::size_t size() const { return items_.size(); }
  bool closed() const { return closed_; }

 private:
  std::size_t capacity_;
  std::deque<int> items_;
  bool closed_ = false;
};

// Drives one queue through a fixed op script and records everything externally
// observable: accept/reject of each push, the exact drained values of each
// TryPopBatch, and size/closed probes. Single-threaded, so blocking ops are
// excluded and the trace is fully deterministic.
template <typename Queue>
std::vector<std::string> RunScript(Queue& q, std::uint32_t seed, int ops) {
  common::Rng rng(seed);
  std::vector<std::string> trace;
  int next_value = 0;
  for (int i = 0; i < ops; ++i) {
    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // TryPush (weighted: pushes dominate real traffic).
        const int v = next_value++;
        trace.push_back("push " + std::to_string(v) + " " +
                        (q.TryPush(int{v}) ? "ok" : "rej"));
        break;
      }
      case 4:
      case 5: {  // TryPushBatch of 1..4.
        const std::size_t n = 1 + rng.Below(4);
        std::vector<int> items;
        for (std::size_t j = 0; j < n; ++j) {
          items.push_back(next_value++);
        }
        trace.push_back("batch " + std::to_string(n) + " " +
                        (q.TryPushBatch(items.data(), n) ? "ok" : "rej"));
        break;
      }
      case 6:
      case 7: {  // TryPopBatch of 1..6 (pops 0 on an empty ring).
        const std::size_t max = 1 + rng.Below(6);
        std::vector<int> out;
        const std::size_t popped = q.TryPopBatch(out, max);
        std::string line = "pop " + std::to_string(popped) + ":";
        for (int v : out) {
          line += " " + std::to_string(v);
        }
        trace.push_back(line);
        break;
      }
      case 8:  // Probes.
        trace.push_back("size " + std::to_string(q.size()) +
                        (q.closed() ? " closed" : " open"));
        break;
      default:  // Close / Reopen cycles.
        if (q.closed()) {
          q.Reopen();
          trace.push_back("reopen");
        } else {
          q.Close();
          trace.push_back("close");
        }
        break;
    }
  }
  return trace;
}

TEST(RingEquivalenceTest, ScriptedOpTracesAreIdentical) {
  // Several seeds and an awkward (non-power-of-two) capacity so the scripts
  // exercise full-edge rejections, partial drains, and close/reopen in many
  // different interleavings.
  for (std::uint32_t seed : {1u, 7u, 42u, 1234u}) {
    MpscQueue<int> ring(5);
    ModelRing model(5);
    const auto ring_trace = RunScript(ring, seed, 3000);
    const auto model_trace = RunScript(model, seed, 3000);
    ASSERT_EQ(ring_trace, model_trace) << "seed " << seed;
  }
}

// A task type whose move degrades to copy (user-declared copy ops suppress
// the implicit move ops): after `out.push_back(std::move(slot))` the slot
// STILL holds the captured payload — the worst case the slot reset exists
// for. std::function lands in the same place via "valid but unspecified".
struct StickyTask {
  std::shared_ptr<int> payload;

  StickyTask() = default;
  explicit StickyTask(std::shared_ptr<int> p) : payload(std::move(p)) {}
  StickyTask(const StickyTask&) = default;
  StickyTask& operator=(const StickyTask&) = default;
};

TEST(MpscRegressionTest, DrainedSlotReleasesCapturedTaskState) {
  MpscQueue<StickyTask> q(4);
  auto payload = std::make_shared<int>(42);
  std::weak_ptr<int> observer = payload;
  ASSERT_TRUE(q.TryPush(StickyTask(std::move(payload))));

  std::vector<StickyTask> out;
  ASSERT_EQ(q.TryPopBatch(out, 4), 1u);
  ASSERT_TRUE(observer.lock() != nullptr);  // The drained copy holds it...
  out.clear();                              // ...until the consumer is done.

  // Without the slot reset, the ring slot would still hold a copy of the
  // capture, keeping it alive until some later push overwrote the slot — on
  // an idle queue, arbitrarily long. TryPopBatch resets drained slots to T{}.
  EXPECT_TRUE(observer.expired());
}

// Counts move-constructions (what vector growth and push_back perform).
struct MoveCounted {
  static int move_ctors;
  int v = 0;

  MoveCounted() = default;
  explicit MoveCounted(int x) : v(x) {}
  MoveCounted(MoveCounted&& o) noexcept : v(o.v) { ++move_ctors; }
  MoveCounted& operator=(MoveCounted&&) noexcept = default;
  MoveCounted(const MoveCounted&) = delete;
  MoveCounted& operator=(const MoveCounted&) = delete;
};
int MoveCounted::move_ctors = 0;

TEST(MpscRegressionTest, TryPopBatchReservesOnceAndNeverReallocatesMidDrain) {
  constexpr std::size_t kN = 64;
  MpscQueue<MoveCounted> q(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(q.TryPush(MoveCounted(static_cast<int>(i))));
  }

  // A cold, zero-capacity output vector is the worst case: without the
  // up-front reserve, push_back under the lock grows 1→2→4→…→64, move-
  // constructing every element again on each reallocation (63 extra moves).
  std::vector<MoveCounted> out;
  MoveCounted::move_ctors = 0;
  ASSERT_EQ(q.TryPopBatch(out, kN), kN);
  EXPECT_EQ(MoveCounted::move_ctors, static_cast<int>(kN))
      << "TryPopBatch reallocated the output vector mid-drain (inside the "
         "critical section) instead of reserving up front";
  EXPECT_GE(out.capacity(), kN);
}


TEST(MpscQueueTest, FifoSingleProducer) {
  MpscQueue<int> q(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.TryPush(int{i}));
  }
  std::vector<int> out;
  EXPECT_EQ(q.TryPopBatch(out, 16), 5u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(MpscQueueTest, TryPushFailsWhenFullAndRecovers) {
  MpscQueue<int> q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // The backpressure edge.
  std::vector<int> out;
  EXPECT_EQ(q.TryPopBatch(out, 1), 1u);  // Batch bound respected: one popped.
  EXPECT_EQ(out, std::vector<int>{1});
  EXPECT_TRUE(q.TryPush(3));  // Space freed.
  out.clear();
  EXPECT_EQ(q.TryPopBatch(out, 8), 2u);
  EXPECT_EQ(out, (std::vector<int>{2, 3}));
}

TEST(MpscQueueTest, CloseDrainsRemainderThenSignalsExit) {
  MpscQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_FALSE(q.Push(3));
  std::vector<int> out;
  EXPECT_EQ(q.TryPopBatch(out, 8), 2u);  // Remainder drains.
  EXPECT_FALSE(q.WaitForWork());  // Closed-and-drained: consumer exits.
}

TEST(MpscQueueTest, BlockingPushWaitsForSpace) {
  MpscQueue<int> q(1);
  ASSERT_TRUE(q.TryPush(0));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(1));
    pushed = true;
  });
  // The producer must be parked while the queue is full. (A sleep can only
  // produce a false pass, never a false failure.)
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  std::vector<int> out;
  EXPECT_EQ(q.TryPopBatch(out, 1), 1u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  out.clear();
  EXPECT_EQ(q.TryPopBatch(out, 1), 1u);
  EXPECT_EQ(out, std::vector<int>{1});
}

TEST(MpscQueueTest, CloseWakesBlockedProducerAndConsumer) {
  MpscQueue<int> q(1);
  ASSERT_TRUE(q.TryPush(0));
  std::thread producer([&] { EXPECT_FALSE(q.Push(1)); });  // Full, then closed.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
}

// The accounting property the runtime's backpressure contract is built on:
// with P producers pushing concurrently, every push that returned true is
// drained exactly once, and each producer's items drain in its push order.
TEST(MpscQueueTest, MultiProducerExactCountAndPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 10000;
  MpscQueue<std::pair<int, int>> q(64);  // {producer, sequence}

  std::vector<std::vector<int>> drained(kProducers);
  std::thread consumer([&] {
    std::vector<std::pair<int, int>> batch;
    std::size_t total = 0;
    while (q.WaitForWork()) {
      batch.clear();
      total += q.TryPopBatch(batch, 128);
      for (const auto& [producer, seq] : batch) {
        drained[static_cast<std::size_t>(producer)].push_back(seq);
      }
    }
    EXPECT_EQ(total, static_cast<std::size_t>(kProducers) * kPerProducer);
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push({p, i}));
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  q.Close();
  consumer.join();

  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(drained[p].size(), static_cast<std::size_t>(kPerProducer));
    for (int i = 0; i < kPerProducer; ++i) {
      ASSERT_EQ(drained[p][static_cast<std::size_t>(i)], i)
          << "producer " << p << " reordered";
    }
  }
}

}  // namespace
}  // namespace runtime
