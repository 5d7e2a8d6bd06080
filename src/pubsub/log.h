// PartitionLog: one partition's durable, offset-addressed message log, with
// the two head-trimming behaviours the paper analyzes:
//
//  * retention GC — messages older than the retention period (or beyond the
//    size cap) are dropped entirely; and
//  * compaction — messages older than the compaction window keep only the
//    latest version per key.
//
// Crucially (Section 3.1), a reader positioned below the first retained
// offset is silently repositioned to the earliest retained message — exactly
// Kafka's `auto.offset.reset=earliest` — and nothing in the consumer-visible
// API reports how many messages were skipped. The log *does* track the skip
// internally so experiments can count the loss the application cannot see.
#ifndef SRC_PUBSUB_LOG_H_
#define SRC_PUBSUB_LOG_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "pubsub/span.h"
#include "pubsub/types.h"

namespace pubsub {

// Fired whenever retained history shrinks, so a durability layer can mirror
// the exact trim/compact decision into its journal. `first_offset` is the
// post-event first retained offset.
struct RetentionEvent {
  enum class Kind { kGcBefore, kSizeCap, kCompact };
  Kind kind;
  common::TimeMicros horizon = 0;  // kGcBefore / kCompact only.
  Offset first_offset = 0;
  std::uint64_t removed = 0;
};

class PartitionLog {
 public:
  using AppendCallback = std::function<void(const StoredMessage&)>;
  using RetentionCallback = std::function<void(const RetentionEvent&)>;

  explicit PartitionLog(RetentionPolicy policy) : policy_(policy) {}

  // Observation hooks for the WAL journal. The append callback fires before
  // any size-cap trim its append may trigger, so a journal sees the op order
  // exactly as it happened. Not fired by the Restore* replay APIs.
  void set_append_callback(AppendCallback cb) { append_cb_ = std::move(cb); }
  void set_retention_callback(RetentionCallback cb) { retention_cb_ = std::move(cb); }

  // Appends a message, returning its offset.
  Offset Append(Message msg) {
    log_.push_back(StoredMessage{next_offset_++, std::move(msg)});
    const Offset offset = log_.back().offset;
    if (append_cb_) {
      append_cb_(log_.back());
    }
    EnforceSizeCap();
    return offset;
  }

  // First offset still present (== end_offset() when empty after GC).
  Offset first_offset() const { return log_.empty() ? next_offset_ : log_.front().offset; }
  // One past the last appended offset.
  Offset end_offset() const { return next_offset_; }
  std::size_t size() const { return log_.size(); }

  // Reads up to `max` messages starting at `from`. If `from` precedes the
  // first retained offset, reading silently resumes at the earliest retained
  // message (the Kafka reset behaviour). `max` == 0 means unlimited.
  std::vector<StoredMessage> Read(Offset from, std::size_t max = 0) const {
    std::vector<StoredMessage> out;
    ReadInto(from, max, &out);
    return out;
  }

  // Allocation-free Read for hot pollers: appends up to `max` messages into
  // `*out` (not cleared), reusing its capacity. Returns the number appended.
  std::size_t ReadInto(Offset from, std::size_t max, std::vector<StoredMessage>* out) const {
    const std::size_t before = out->size();
    for (auto it = Seek(from); it != log_.end(); ++it) {
      out->push_back(*it);
      if (max != 0 && out->size() - before >= max) {
        break;
      }
    }
    const std::size_t appended = out->size() - before;
    if (appended != 0 && (*out)[before].offset > from) {
      // Reader fell below retained history; it cannot observe this, but the
      // harness can.
      silent_skips_ += (*out)[before].offset - from;
    } else if (appended == 0 && from < first_offset()) {
      silent_skips_ += first_offset() - from;
    }
    return appended;
  }

  // Zero-copy ReadInto: appends up to `max` MessageSpans viewing retained
  // records into `*out` (not cleared). The views alias log-owned storage —
  // the caller must hold a ReadPin on this log for as long as it touches
  // them; the pin defers retention reclamation so the views cannot dangle.
  // Same silent-reset semantics and accounting as ReadInto.
  std::size_t ReadSpansInto(Offset from, std::size_t max, std::vector<MessageSpan>* out) const {
    const std::size_t before = out->size();
    for (auto it = Seek(from); it != log_.end(); ++it) {
      const Message& m = it->message;
      out->push_back(MessageSpan{it->offset, m.key, m.value, m.publish_time,
                                 m.headers.empty() ? nullptr : &m.headers});
      if (max != 0 && out->size() - before >= max) {
        break;
      }
    }
    const std::size_t appended = out->size() - before;
    if (appended != 0 && (*out)[before].offset > from) {
      silent_skips_ += (*out)[before].offset - from;
    } else if (appended == 0 && from < first_offset()) {
      silent_skips_ += first_offset() - from;
    }
    return appended;
  }

  // Predicate-filtered ReadInto for the filtered-subscription catch-up path:
  // scans forward from `from`, appending messages satisfying `pred` into
  // `*out`, until `max` matches are appended, `max_scan` records have been
  // examined (0: unbounded), or the log ends. `*next_offset` is set to the
  // offset after the last scanned record — the cursor resume point — so a
  // filter matching nothing still makes scan progress. Returns the number of
  // matches appended; `*scanned` (optional) counts records examined. Shares
  // ReadInto's silent-reset accounting when `from` fell below retention.
  std::size_t ScanInto(Offset from, std::size_t max, std::size_t max_scan,
                       const std::function<bool(const StoredMessage&)>& pred,
                       std::vector<StoredMessage>* out, Offset* next_offset,
                       std::uint64_t* scanned = nullptr) const {
    const std::size_t before = out->size();
    auto it = Seek(from);
    if (it != log_.end() && it->offset > from) {
      silent_skips_ += it->offset - from;
    } else if (it == log_.end() && from < first_offset()) {
      silent_skips_ += first_offset() - from;
    }
    std::uint64_t examined = 0;
    Offset next = std::max(from, first_offset());
    for (; it != log_.end(); ++it) {
      if (max_scan != 0 && examined >= max_scan) {
        break;
      }
      ++examined;
      next = it->offset + 1;
      if (pred(*it)) {
        out->push_back(*it);
        if (max != 0 && out->size() - before >= max) {
          break;
        }
      }
    }
    if (it == log_.end()) {
      next = next_offset_;  // Scanned to the live edge.
    }
    *next_offset = std::max(next, from);
    if (scanned != nullptr) {
      *scanned += examined;
    }
    return out->size() - before;
  }

  // Time-based retention: drops messages published before `horizon`.
  // Returns the number of messages garbage collected. While a ReadPin is
  // held the drop is deferred (0 returned now); the last unpin applies the
  // highest deferred horizon and fires the retention callback then.
  std::uint64_t GcBefore(common::TimeMicros horizon) {
    if (pins_ > 0) {
      pending_gc_horizon_ = std::max(pending_gc_horizon_, horizon);
      return 0;
    }
    std::uint64_t dropped = 0;
    while (!log_.empty() && log_.front().message.publish_time < horizon) {
      log_.pop_front();
      ++dropped;
    }
    gced_ += dropped;
    if (dropped > 0 && retention_cb_) {
      retention_cb_(RetentionEvent{RetentionEvent::Kind::kGcBefore, horizon, first_offset(), dropped});
    }
    return dropped;
  }

  // Compaction: for messages published before `horizon`, keeps only the
  // newest record per key across the whole log (Kafka semantics: a pre-horizon
  // copy shadowed by any later record is dropped; messages at/after the
  // horizon keep every version). Returns the number of messages removed.
  // Offsets of surviving messages are unchanged, so the log acquires offset
  // gaps — indistinguishable, to a reader, from normal consumption.
  // Deferred while pinned, like GcBefore: compaction rebuilds the deque and
  // moves SSO-small strings, which would invalidate handed-out spans.
  std::uint64_t Compact(common::TimeMicros horizon);

  // First retained offset whose publish time is >= `timestamp`, or
  // end_offset() if every retained message is older. Publish times are
  // monotonic in offset order, so this is the seek-to-time target.
  Offset OffsetAtOrAfter(common::TimeMicros timestamp) const;

  // Harness-only accounting (not part of the consumer-visible API).
  std::uint64_t gced() const { return gced_; }
  std::uint64_t compacted_away() const { return compacted_away_; }
  std::uint64_t silent_skips() const { return silent_skips_; }
  // Outstanding ReadPins (tests/leak checks).
  int pins() const { return pins_; }

  // Harness-only introspection for the invariant oracle: the retained
  // messages, the highest horizon Compact has been run with, and the log end
  // offset as of that compaction (records appended later may legitimately
  // shadow pre-horizon survivors until the next compaction pass).
  const std::deque<StoredMessage>& entries() const { return log_; }
  common::TimeMicros last_compaction_horizon() const { return last_compaction_horizon_; }
  Offset compact_end_offset() const { return compact_end_offset_; }

  // -- Recovery-only replay APIs (see wal::PartitionJournal) -------------------
  //
  // These mutate state without firing callbacks and without enforcing the
  // size cap: during journal replay every trim is driven by a journaled
  // record, so policy must not be re-applied on top.

  // Re-applies a journaled append. Offsets arrive in append order.
  void RestoreAppend(Offset offset, Message msg) {
    log_.push_back(StoredMessage{offset, std::move(msg)});
    next_offset_ = offset + 1;
  }

  // Drops retained messages with offset < `first` (counted into gced_). If
  // `first` is beyond end_offset() — every append up to it was dropped with
  // its wal segment — the log advances to start empty at `first`.
  std::uint64_t TrimTo(Offset first) {
    std::uint64_t dropped = 0;
    while (!log_.empty() && log_.front().offset < first) {
      log_.pop_front();
      ++dropped;
    }
    gced_ += dropped;
    if (first > next_offset_) {
      next_offset_ = first;
    }
    return dropped;
  }

  // Overwrites harness accounting and compaction bookkeeping with
  // snapshot-record values, superseding whatever partial replay accumulated.
  void RestoreAccounting(std::uint64_t gced, std::uint64_t compacted_away,
                         std::uint64_t silent_skips, common::TimeMicros last_compaction_horizon,
                         Offset compact_end_offset) {
    gced_ = gced;
    compacted_away_ = compacted_away;
    silent_skips_ = silent_skips;
    last_compaction_horizon_ = last_compaction_horizon;
    compact_end_offset_ = compact_end_offset;
  }

 private:
  friend class ReadPin;

  // The first retained record with offset >= `from`. Offsets are strictly
  // increasing, so the record at index (from - first) has offset >= from: on a
  // gap-free log it is exactly `from` (O(1), the caught-up fetch), and after
  // compaction gaps the target lies at or before that index, so the binary
  // search only covers [begin, begin + index).
  std::deque<StoredMessage>::const_iterator Seek(Offset from) const {
    if (log_.empty() || from <= log_.front().offset) {
      return log_.begin();
    }
    if (from >= next_offset_) {
      return log_.end();
    }
    const Offset index = from - log_.front().offset;
    if (index < log_.size() && log_[index].offset == from) {
      return log_.begin() + static_cast<std::ptrdiff_t>(index);
    }
    const auto bound = log_.begin() + static_cast<std::ptrdiff_t>(
                                          std::min<Offset>(index, log_.size()));
    return std::lower_bound(
        log_.begin(), bound, from,
        [](const StoredMessage& m, Offset offset) { return m.offset < offset; });
  }

  void AddPin() { ++pins_; }
  void ReleasePin() {
    if (--pins_ > 0) {
      return;
    }
    // Last pin dropped: apply the retention the pin deferred, in the order
    // the policies normally run (time GC, then compaction, then size cap).
    // Each re-checks pins_ == 0 implicitly by running the normal path, which
    // fires the retention callbacks a journal mirrors.
    if (pending_gc_horizon_ != 0) {
      const common::TimeMicros horizon = pending_gc_horizon_;
      pending_gc_horizon_ = 0;
      GcBefore(horizon);
    }
    if (pending_compact_horizon_ != 0) {
      const common::TimeMicros horizon = pending_compact_horizon_;
      pending_compact_horizon_ = 0;
      Compact(horizon);
    }
    if (pending_size_cap_) {
      pending_size_cap_ = false;
      EnforceSizeCap();
    }
  }

  void EnforceSizeCap() {
    if (policy_.max_messages == 0) {
      return;
    }
    if (pins_ > 0) {
      pending_size_cap_ = true;
      return;
    }
    std::uint64_t dropped = 0;
    while (log_.size() > policy_.max_messages) {
      log_.pop_front();
      ++gced_;
      ++dropped;
    }
    if (dropped > 0 && retention_cb_) {
      retention_cb_(RetentionEvent{RetentionEvent::Kind::kSizeCap, 0, first_offset(), dropped});
    }
  }

  RetentionPolicy policy_;
  std::deque<StoredMessage> log_;
  Offset next_offset_ = 0;
  std::uint64_t gced_ = 0;
  std::uint64_t compacted_away_ = 0;
  mutable std::uint64_t silent_skips_ = 0;
  common::TimeMicros last_compaction_horizon_ = 0;
  Offset compact_end_offset_ = 0;
  AppendCallback append_cb_;
  RetentionCallback retention_cb_;
  // Span-read pin state: outstanding pins and the retention they deferred.
  int pins_ = 0;
  common::TimeMicros pending_gc_horizon_ = 0;
  common::TimeMicros pending_compact_horizon_ = 0;
  bool pending_size_cap_ = false;
};

inline ReadPin::ReadPin(PartitionLog* log) : log_(log) {
  if (log_ != nullptr) {
    log_->AddPin();
  }
}

inline ReadPin::~ReadPin() { Release(); }

inline void ReadPin::Release() {
  if (log_ != nullptr) {
    PartitionLog* log = log_;
    log_ = nullptr;
    log->ReleasePin();
  }
}

}  // namespace pubsub

#endif  // SRC_PUBSUB_LOG_H_
