// Property test for PartitionLog's reader positioning. ReadInto,
// ReadSpansInto and ScanInto seek in O(1) on a gap-free log and fall back to
// a bounded binary search once compaction leaves offset gaps; either way
// they must return exactly what a plain lower_bound over the retained
// records returns — the same records, the same scan cursor, and the same
// silent-skip accounting — whatever mix of appends, compaction, size cap,
// time GC, pinned (deferred) retention and journal replay shaped the log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pubsub/log.h"
#include "pubsub/span.h"

namespace pubsub {
namespace {

using Entries = std::deque<StoredMessage>;

// The reference reader: position with lower_bound over the retained records.
Entries::const_iterator RefSeek(const Entries& log, Offset from) {
  return std::lower_bound(log.begin(), log.end(), from,
                          [](const StoredMessage& m, Offset offset) { return m.offset < offset; });
}

Offset RefFirst(const PartitionLog& log) {
  return log.entries().empty() ? log.end_offset() : log.entries().front().offset;
}

// Silent skip a read from `from` reports when its first returned record is
// `first_returned` (nullptr: nothing returned).
std::uint64_t RefSkip(const PartitionLog& log, Offset from, const Offset* first_returned) {
  if (first_returned != nullptr) {
    return *first_returned > from ? *first_returned - from : 0;
  }
  return from < RefFirst(log) ? RefFirst(log) - from : 0;
}

std::vector<StoredMessage> RefRead(const PartitionLog& log, Offset from, std::size_t max) {
  std::vector<StoredMessage> out;
  for (auto it = RefSeek(log.entries(), from); it != log.entries().end(); ++it) {
    out.push_back(*it);
    if (max != 0 && out.size() >= max) {
      break;
    }
  }
  return out;
}

bool EvenKey(const StoredMessage& m) { return (m.message.key.back() - '0') % 2 == 0; }

struct ScanResult {
  std::vector<StoredMessage> records;
  Offset next = 0;
  std::uint64_t examined = 0;
  std::uint64_t skip = 0;
};

ScanResult RefScan(const PartitionLog& log, Offset from, std::size_t max, std::size_t max_scan) {
  const Entries& entries = log.entries();
  ScanResult r;
  auto it = RefSeek(entries, from);
  if (it != entries.end() && it->offset > from) {
    r.skip = it->offset - from;
  } else if (it == entries.end() && from < RefFirst(log)) {
    r.skip = RefFirst(log) - from;
  }
  Offset next = std::max(from, RefFirst(log));
  for (; it != entries.end(); ++it) {
    if (max_scan != 0 && r.examined >= max_scan) {
      break;
    }
    ++r.examined;
    next = it->offset + 1;
    if (EvenKey(*it)) {
      r.records.push_back(*it);
      if (max != 0 && r.records.size() >= max) {
        break;
      }
    }
  }
  if (it == entries.end()) {
    next = log.end_offset();
  }
  r.next = std::max(next, from);
  return r;
}

// Every reader, at every interesting `from`, against the reference.
void CheckReaders(const PartitionLog& log, common::Rng& rng, const std::string& where) {
  const Offset first = RefFirst(log);
  const Offset end = log.end_offset();
  std::vector<Offset> froms = {0, first, end, end + 1, end + 7};
  if (first > 0) {
    froms.push_back(first - 1);  // Below the first retained offset.
  }
  for (int i = 0; i < 6 && end > first; ++i) {
    froms.push_back(first + rng.Below(end - first));
  }
  for (const StoredMessage& m : log.entries()) {
    if (m.offset > first && rng.Below(8) == 0) {
      froms.push_back(m.offset - 1);  // Lands in a compaction gap if one is there.
    }
  }
  for (const Offset from : froms) {
    for (const std::size_t max : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE(where + " from=" + std::to_string(from) + " max=" + std::to_string(max) +
                   " first=" + std::to_string(first) + " end=" + std::to_string(end));
      const std::vector<StoredMessage> want = RefRead(log, from, max);
      const std::uint64_t want_skip =
          RefSkip(log, from, want.empty() ? nullptr : &want.front().offset);

      std::uint64_t skips = log.silent_skips();
      std::vector<StoredMessage> got;
      EXPECT_EQ(log.ReadInto(from, max, &got), want.size());
      EXPECT_EQ(got, want);
      EXPECT_EQ(log.silent_skips() - skips, want_skip);

      skips = log.silent_skips();
      std::vector<MessageSpan> spans;
      ASSERT_EQ(log.ReadSpansInto(from, max, &spans), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(spans[i].offset, want[i].offset);
        EXPECT_EQ(spans[i].key, want[i].message.key);
        EXPECT_EQ(spans[i].value, want[i].message.value);
      }
      EXPECT_EQ(log.silent_skips() - skips, want_skip);

      for (const std::size_t max_scan : {std::size_t{0}, std::size_t{2}}) {
        const ScanResult ref = RefScan(log, from, max, max_scan);
        skips = log.silent_skips();
        std::vector<StoredMessage> matched;
        Offset next = 0;
        std::uint64_t examined = 0;
        EXPECT_EQ(log.ScanInto(from, max, max_scan, EvenKey, &matched, &next, &examined),
                  ref.records.size());
        EXPECT_EQ(matched, ref.records);
        EXPECT_EQ(next, ref.next);
        EXPECT_EQ(examined, ref.examined);
        EXPECT_EQ(log.silent_skips() - skips, ref.skip);
      }
    }
  }
}

TEST(LogSeekPropertyTest, ReadersMatchLowerBoundUnderRetentionChurn) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 17u, 99u, 2024u}) {
    common::Rng rng(seed);
    RetentionPolicy policy;
    policy.max_messages = seed % 2 == 0 ? 0 : 40;  // Half the seeds cap the size.
    PartitionLog log(policy);
    common::TimeMicros now = 0;
    std::unique_ptr<ReadPin> pin;
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.Below(20);
      if (op < 12) {
        // Append a burst; a 6-key space gives compaction plenty to shadow.
        for (std::uint64_t n = 1 + rng.Below(4); n > 0; --n) {
          now += 1 + static_cast<common::TimeMicros>(rng.Below(3));
          log.Append(
              Message{"k" + std::to_string(rng.Below(6)), "v" + std::to_string(step), now, {}});
        }
      } else if (op < 15) {
        log.Compact(now - static_cast<common::TimeMicros>(rng.Below(30)));
      } else if (op < 17) {
        log.GcBefore(now - 20 - static_cast<common::TimeMicros>(rng.Below(40)));
      } else if (pin == nullptr) {
        pin = std::make_unique<ReadPin>(&log);  // Retention from here is deferred...
      } else {
        pin.reset();  // ...and applied on release.
      }
      CheckReaders(log, rng, "seed " + std::to_string(seed) + " step " + std::to_string(step));
      if (HasFatalFailure() || HasNonfatalFailure()) {
        return;
      }
    }
  }
}

TEST(LogSeekPropertyTest, ReplayedLogWithGapsFromTheStartMatchesLowerBound) {
  // Journal replay rebuilds a compacted log record by record, so its offsets
  // are sparse from the first record on and TrimTo can move the head past a
  // gap — the states the append path alone never produces.
  common::Rng rng(7);
  PartitionLog source({});
  for (int i = 0; i < 300; ++i) {
    source.Append(Message{"k" + std::to_string(rng.Below(5)), "v", i, {}});
  }
  source.Compact(250);
  PartitionLog replayed({});
  for (const StoredMessage& m : source.entries()) {
    replayed.RestoreAppend(m.offset, m.message);
  }
  CheckReaders(replayed, rng, "replayed");
  replayed.TrimTo(replayed.entries()[2].offset + 1);
  CheckReaders(replayed, rng, "trimmed");
  replayed.TrimTo(replayed.end_offset() + 10);  // Everything gone; the head jumps.
  CheckReaders(replayed, rng, "emptied");
}

}  // namespace
}  // namespace pubsub
