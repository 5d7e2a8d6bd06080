// Bounded multi-producer / single-consumer ring queue: the ingress lane of a
// runtime shard. Producers (client threads) push tasks; the shard's worker
// thread drains them in batches. The bound is the backpressure mechanism —
// TryPush fails loudly when the shard is saturated instead of queueing
// unboundedly, exactly the "better treatment of backlogs" posture (paper
// §4.4) applied to the execution layer.
//
// The implementation is a mutex + condvar ring. That is deliberate: every
// operation is a handful of instructions under an uncontended lock, batched
// dequeue amortizes the consumer's lock acquisitions over up to `max` tasks,
// and the queue is trivially clean under ThreadSanitizer. A CAS-claimed
// lock-free ring measures as a tie against it at equal batch size (see
// docs/RUNTIME.md); batching (TryPushBatch), not the ring, moves throughput.
// Per-producer FIFO order is preserved (a single producer's pushes drain in
// push order), which the equivalence tests rely on. Pushes take items by
// rvalue only: the shard pool moves its tasks in.
#ifndef SRC_RUNTIME_MPSC_QUEUE_H_
#define SRC_RUNTIME_MPSC_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace runtime {

template <typename T>
class MpscQueue {
 public:
  explicit MpscQueue(std::size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  // Non-blocking push; false when the queue is full or closed. This is the
  // backpressure edge: the caller turns false into kUnavailable + retry-after.
  // On failure `item` is untouched — the caller still owns a valid value.
  bool TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || count_ == ring_.size()) {
        return false;
      }
      ring_[(head_ + count_) % ring_.size()] = std::move(item);
      ++count_;
      MirrorSize();
    }
    not_empty_.notify_one();
    return true;
  }

  // All-or-nothing batch push: accepts all `n` items (moved out) or none
  // (items untouched). One lock acquisition and one consumer wakeup for the
  // whole batch — the mutex ring's form of a batched slot claim.
  bool TryPushBatch(T* items, std::size_t n) {
    if (n == 0) {
      return true;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || count_ + n > ring_.size()) {
        return false;
      }
      for (std::size_t i = 0; i < n; ++i) {
        ring_[(head_ + count_) % ring_.size()] = std::move(items[i]);
        ++count_;
      }
      MirrorSize();
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocking push; waits while full. False only if the queue is (or becomes)
  // closed, in which case `item` is untouched and the caller may still run
  // it (ShardPool's inline fallback relies on this).
  bool Push(T&& item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock, [this] { return closed_ || count_ < ring_.size(); });
      if (closed_) {
        return false;
      }
      ring_[(head_ + count_) % ring_.size()] = std::move(item);
      ++count_;
      MirrorSize();
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is queued or the queue is closed and empty.
  // Returns false only for the latter: the consumer should exit.
  bool WaitForWork() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || count_ > 0; });
    return count_ > 0;
  }

  // Pops up to `max` items into `out` (appended) without blocking; returns
  // the number popped. Single consumer.
  std::size_t TryPopBatch(std::vector<T>& out, std::size_t max) {
    // Reserve before taking the lock: push_back must never reallocate (or
    // throw) inside the critical section.
    out.reserve(out.size() + (max < ring_.size() ? max : ring_.size()));
    std::size_t popped = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (popped < max && count_ > 0) {
        out.push_back(std::move(ring_[head_]));
        // Reset the drained slot: a moved-from task may still pin captured
        // state (shared_ptrs, payloads) until the slot is overwritten — an
        // arbitrarily-later event on an idle queue.
        ring_[head_] = T{};
        head_ = (head_ + 1) % ring_.size();
        --count_;
        ++popped;
      }
      MirrorSize();
    }
    if (popped > 0) {
      not_full_.notify_all();
    }
    return popped;
  }

  // Closes the queue: subsequent pushes fail; the consumer drains what
  // remains and then WaitForWork returns false.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  // Reverses Close so a stopped pool can Start again. Only call with no
  // consumer attached (between Stop and Start).
  void Reopen() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = false;
  }

  // Lock-free read of the depth: a claimer's emptiness checks and the retry
  // hint read it on every inline publish. It is exact for the calling
  // thread's own pushes and for pops made under a lock it has since taken.
  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  std::size_t capacity() const { return ring_.size(); }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  // Copies count_ into its lock-free mirror; call with mu_ held.
  void MirrorSize() { size_.store(count_, std::memory_order_release); }

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> ring_;
  std::size_t head_ = 0;   // Index of the oldest element.
  std::size_t count_ = 0;  // Elements currently queued.
  // Mirror of count_, written under mu_ and read without it by size().
  std::atomic<std::size_t> size_{0};
  bool closed_ = false;
};

}  // namespace runtime

#endif  // SRC_RUNTIME_MPSC_QUEUE_H_
