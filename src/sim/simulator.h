// Deterministic discrete-event simulator. All distributed behaviour in this
// library (broker deliveries, consumer polls, shard moves, watch dispatch,
// node failures) is expressed as events on this single queue, so every
// experiment is exactly reproducible from its seed.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace sim {

using EventId = std::uint64_t;

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  common::TimeMicros Now() const { return now_; }
  common::Rng& rng() { return rng_; }

  // Schedules `fn` at absolute simulated time `t` (>= Now()).
  EventId At(common::TimeMicros t, std::function<void()> fn) {
    assert(t >= now_);
    const EventId id = next_id_++;
    queue_.push_back(Event{t, id, std::move(fn)});
    std::push_heap(queue_.begin(), queue_.end());
    return id;
  }

  // Schedules `fn` after `delay` microseconds.
  EventId After(common::TimeMicros delay, std::function<void()> fn) {
    return At(now_ + delay, std::move(fn));
  }

  // Cancels a scheduled event. Safe to call for already-fired events (no-op).
  void Cancel(EventId id) { cancelled_.insert(id); }

  // Runs a single event; returns false if the queue is empty.
  bool Step() {
    while (!queue_.empty()) {
      // Move the head out rather than copy it: a copy would clone the
      // callback and everything it captures.
      std::pop_heap(queue_.begin(), queue_.end());
      Event ev = std::move(queue_.back());
      queue_.pop_back();
      if (cancelled_.erase(ev.id) > 0) {
        continue;
      }
      assert(ev.time >= now_);
      now_ = ev.time;
      ev.fn();
      return true;
    }
    return false;
  }

  // Runs events until the queue drains.
  void Run() {
    while (Step()) {
    }
  }

  // Runs all events with time <= deadline, then advances the clock to it.
  void RunUntil(common::TimeMicros deadline) {
    while (!queue_.empty()) {
      // Skip cancelled entries at the head so we don't advance time for them.
      const Event& head = queue_.front();
      if (cancelled_.count(head.id) > 0) {
        cancelled_.erase(head.id);
        std::pop_heap(queue_.begin(), queue_.end());
        queue_.pop_back();
        continue;
      }
      if (head.time > deadline) {
        break;
      }
      Step();
    }
    if (now_ < deadline) {
      now_ = deadline;
    }
  }

  std::size_t pending_events() const { return queue_.size(); }

 private:
  struct Event {
    common::TimeMicros time;
    EventId id;
    std::function<void()> fn;

    // Later time = lower priority (a max-heap on this order pops the
    // earliest event); ties broken by schedule order for determinism.
    bool operator<(const Event& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return id > other.id;
    }
  };

  common::TimeMicros now_ = 0;
  EventId next_id_ = 1;
  std::vector<Event> queue_;  // Binary heap ordered by Event::operator<.
  std::unordered_set<EventId> cancelled_;
  common::Rng rng_;
};

// A repeating task on the simulator. Construction schedules the first firing
// after `period`; destruction (or Stop) cancels future firings.
class PeriodicTask {
 public:
  PeriodicTask(Simulator* sim, common::TimeMicros period, std::function<void()> fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {
    assert(period_ > 0);
    ScheduleNext();
  }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  ~PeriodicTask() { Stop(); }

  void Stop() {
    if (active_) {
      sim_->Cancel(pending_);
      active_ = false;
    }
  }

 private:
  void ScheduleNext() {
    active_ = true;
    pending_ = sim_->After(period_, [this] {
      active_ = false;
      fn_();
      ScheduleNext();
    });
  }

  Simulator* sim_;
  common::TimeMicros period_;
  std::function<void()> fn_;
  EventId pending_ = 0;
  bool active_ = false;
};

}  // namespace sim

#endif  // SRC_SIM_SIMULATOR_H_
