#include "pubsub/broker.h"

#include <algorithm>

namespace pubsub {

Broker::Broker(sim::Simulator* sim, sim::Network* net, sim::NodeId node,
               common::TimeMicros gc_period)
    : sim_(sim), net_(net), node_(std::move(node)) {
  net_->AddNode(node_);
  maintenance_ = std::make_unique<sim::PeriodicTask>(sim_, gc_period, [this] {
    EnforceRetention();
    SweepDeadMembers();
  });
}

Broker::~Broker() {
  // Fire (don't drop) every parked waiter: a registered wakeup must always
  // run exactly once, even when the registry dies first. The callbacks run
  // as immediate events on the (longer-lived) simulator and re-check state
  // themselves — the standard contract for every waker in this codebase.
  for (auto& [ticket, waiter] : waiter_index_) {
    sim_->After(0, std::move(waiter.fn));
  }
  waiter_index_.clear();
  rebalance_waiters_.clear();
  interests_.clear();
}

common::Status Broker::CreateTopic(const std::string& topic, TopicConfig config) {
  if (topics_.count(topic) > 0) {
    return common::Status::AlreadyExists(topic);
  }
  if (config.partitions == 0) {
    return common::Status::InvalidArgument("topic needs at least one partition");
  }
  Topic t;
  t.config = config;
  t.partitions.reserve(config.partitions);
  for (PartitionId p = 0; p < config.partitions; ++p) {
    t.partitions.push_back(std::make_unique<Partition>(config.retention));
  }
  topics_.emplace(topic, std::move(t));
  return common::Status::Ok();
}

common::Status Broker::RemoveTopic(const std::string& topic) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  // Fire every append waiter parked on the topic's partitions before the
  // registry entries vanish: long-pollers must wake and observe the removal
  // (their re-check finds the topic gone), never hang on a dead partition.
  for (auto& partition : it->second.partitions) {
    FireAllAppendWaiters(*partition);
  }
  // Filtered interests on the topic die with it: parked match waiters fire
  // (wakers re-check and find the topic gone) and registrations are dropped
  // — the per-partition index itself is destroyed with the Topic.
  for (auto in = interests_.begin(); in != interests_.end();) {
    if (in->second.topic != topic) {
      ++in;
      continue;
    }
    if (in->second.ticket != 0) {
      auto entry = waiter_index_.find(in->second.ticket);
      sim_->After(0, std::move(entry->second.fn));
      waiter_index_.erase(entry);
    }
    in = interests_.erase(in);
  }
  topics_.erase(it);
  return common::Status::Ok();
}

common::Status Broker::AddPartitions(const std::string& topic, PartitionId additional) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  if (additional == 0) {
    return common::Status::InvalidArgument("additional partitions must be > 0");
  }
  Topic& t = it->second;
  t.partitions.reserve(t.partitions.size() + additional);
  for (PartitionId p = 0; p < additional; ++p) {
    t.partitions.push_back(std::make_unique<Partition>(t.config.retention));
  }
  t.config.partitions += additional;
  // The topic changed shape: every bound group rebalances now so the new
  // partitions have owners (leaving them unowned until the next membership
  // change would violate assignment coverage).
  for (auto& [id, group] : groups_) {
    if (group.topic == topic && !group.members.empty()) {
      Rebalance(id, group, "partition_growth");
    }
  }
  return common::Status::Ok();
}

Broker::WaitTicket Broker::WaitForAppend(const std::string& topic, PartitionId partition,
                                         Offset offset, std::function<void()> fn) {
  auto it = topics_.find(topic);
  if (it == topics_.end() || partition >= it->second.config.partitions) {
    return 0;
  }
  Partition& part = *it->second.partitions[partition];
  if (part.log.end_offset() > offset) {
    // Already satisfied: fire as an immediate event, no registration. The
    // caller's check-then-park loop treats this like any other wakeup.
    sim_->After(0, std::move(fn));
    return 0;
  }
  const WaitTicket ticket = next_wait_ticket_++;
  waiter_index_.emplace_hint(waiter_index_.end(), ticket,
                             Waiter{&part, GroupId(), 0, std::move(fn)});
  part.waiters.push_back(AppendSlot{ticket, offset});
  return ticket;
}

Broker::WaitTicket Broker::WaitForRebalance(const GroupId& group, std::function<void()> fn) {
  const WaitTicket ticket = next_wait_ticket_++;
  waiter_index_.emplace_hint(waiter_index_.end(), ticket, Waiter{nullptr, group, 0, std::move(fn)});
  rebalance_waiters_[group].insert(ticket);
  return ticket;
}

bool Broker::CancelWait(WaitTicket ticket) {
  auto it = waiter_index_.find(ticket);
  if (it == waiter_index_.end()) {
    return false;
  }
  const Waiter& w = it->second;
  if (w.interest != 0) {
    auto in = interests_.find(w.interest);
    if (in != interests_.end() && in->second.ticket == ticket) {
      in->second.ticket = 0;
    }
  } else if (w.partition != nullptr) {
    std::vector<AppendSlot>& slots = w.partition->waiters;
    auto slot = std::lower_bound(
        slots.begin(), slots.end(), ticket,
        [](const AppendSlot& s, WaitTicket t) { return s.ticket < t; });
    if (slot != slots.end() && slot->ticket == ticket) {
      slots.erase(slot);  // Ticket order is kept: the erase shifts, never swaps.
    }
  } else {
    auto g = rebalance_waiters_.find(w.group);
    if (g != rebalance_waiters_.end()) {
      g->second.erase(ticket);
      if (g->second.empty()) {
        rebalance_waiters_.erase(g);
      }
    }
  }
  waiter_index_.erase(it);
  return true;
}

void Broker::NotifyAppendWaiters(Partition& partition) {
  // Fire in slot (= ticket) order, compacting the survivors forward in the
  // same pass. A fired callback runs later as its own event, so it cannot
  // re-register into the vector being compacted.
  const Offset end = partition.log.end_offset();
  std::vector<AppendSlot>& slots = partition.waiters;
  std::size_t kept = 0;
  for (const AppendSlot& slot : slots) {
    if (slot.offset >= end) {
      slots[kept++] = slot;
      continue;
    }
    auto w = waiter_index_.find(slot.ticket);
    sim_->After(0, std::move(w->second.fn));
    waiter_index_.erase(w);
  }
  slots.resize(kept);
}

void Broker::FireAllAppendWaiters(Partition& partition) {
  for (const AppendSlot& slot : partition.waiters) {
    auto w = waiter_index_.find(slot.ticket);
    sim_->After(0, std::move(w->second.fn));
    waiter_index_.erase(w);
  }
  partition.waiters.clear();
}

std::uint64_t Broker::HashKey(std::string_view key) {
  // FNV-1a: deterministic across platforms.
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

common::Result<PublishResult> Broker::Publish(const std::string& topic, Message msg,
                                              std::optional<PartitionId> partition) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  Topic& t = it->second;
  PartitionId p;
  if (partition.has_value()) {
    if (*partition >= t.config.partitions) {
      return common::Status::InvalidArgument("partition out of range");
    }
    p = *partition;
  } else if (!msg.key.empty()) {
    p = static_cast<PartitionId>(HashKey(msg.key) % t.config.partitions);
  } else {
    p = t.next_round_robin;
    t.next_round_robin = (t.next_round_robin + 1) % t.config.partitions;
  }
  msg.publish_time = sim_->Now();
  if (obs::TracingEnabled()) {
    if (!msg.trace.considered()) {
      msg.trace = obs::TraceContext::Start();  // Origin: publish accepted.
    }
    if (msg.trace.active()) {  // Sampled-out records skip the clock read.
      msg.trace.Stamp(obs::Stage::kAppend, obs::NowMicros());
    }
  }
  Partition& part = *t.partitions[p];
  const Offset offset = part.log.Append(std::move(msg));
  if (!part.waiters.empty()) {
    NotifyAppendWaiters(part);
  }
  DispatchInterests(part);
  return PublishResult{p, offset};
}

common::Result<PublishResult> Broker::PublishSpan(const std::string& topic, std::string_view key,
                                                  std::string_view value, const Headers* headers,
                                                  std::optional<PartitionId> partition) {
  // The one and only owned-Message construction for this record: the spans
  // (typically arena slices staged by a producer batch) are materialized
  // into log-owned strings here, at append.
  Message msg;
  msg.key.assign(key.data(), key.size());
  msg.value.assign(value.data(), value.size());
  if (headers != nullptr) {
    msg.headers = *headers;
  }
  return Publish(topic, std::move(msg), partition);
}

void Broker::DispatchInterests(Partition& partition) {
  InterestIndex& idx = partition.interest;
  if (idx.subscriber_count() == 0) {
    return;
  }
  const auto& entries = partition.log.entries();
  if (entries.empty()) {
    return;  // A zero-size cap can drop the record at append time.
  }
  const StoredMessage& sm = entries.back();
  const std::uint64_t scanned_before = idx.lanes_scanned();
  const std::uint64_t matched_before = idx.lanes_matched();
  std::uint64_t woken = 0;
  bool matched_any = false;
  idx.Match(sm.message.key, sm.message.headers, [&](InterestIndex::SubscriberId id) {
    matched_any = true;
    auto it = interests_.find(id);
    if (it == interests_.end()) {
      return;
    }
    Interest& interest = it->second;
    // Only a parked waiter whose target offset has arrived wakes; a consumer
    // mid-catch-up (no parked waiter) will meet this record via its filtered
    // fetch cursor instead.
    if (interest.ticket == 0 || sm.offset < interest.wait_offset) {
      return;
    }
    auto w = waiter_index_.find(interest.ticket);
    sim_->After(0, std::move(w->second.fn));
    waiter_index_.erase(w);
    interest.ticket = 0;
    ++woken;
  });
  if (fanout_wakeups_ != nullptr) {
    fanout_wakeups_->Increment(static_cast<std::int64_t>(woken));
    fanout_lanes_scanned_->Increment(
        static_cast<std::int64_t>(idx.lanes_scanned() - scanned_before));
    fanout_lanes_matched_->Increment(
        static_cast<std::int64_t>(idx.lanes_matched() - matched_before));
    if (matched_any) {
      fanout_appends_matched_->Increment();
    }
  }
}

Broker::InterestId Broker::AddInterest(const std::string& topic, PartitionId partition,
                                       Filter filter) {
  auto it = topics_.find(topic);
  if (it == topics_.end() || partition >= it->second.config.partitions) {
    return 0;
  }
  const InterestId id = next_interest_++;
  it->second.partitions[partition]->interest.Add(id, std::move(filter));
  interests_.emplace(id, Interest{topic, partition, 0, 0});
  return id;
}

bool Broker::RemoveInterest(InterestId id) {
  auto it = interests_.find(id);
  if (it == interests_.end()) {
    return false;
  }
  Interest& interest = it->second;
  if (interest.ticket != 0) {
    waiter_index_.erase(interest.ticket);  // Cancel without firing.
  }
  auto t = topics_.find(interest.topic);
  if (t != topics_.end() && interest.partition < t->second.config.partitions) {
    t->second.partitions[interest.partition]->interest.Remove(id);
  }
  interests_.erase(it);
  return true;
}

Broker::WaitTicket Broker::WaitForMatch(InterestId id, Offset offset, std::function<void()> fn) {
  auto in = interests_.find(id);
  if (in == interests_.end()) {
    return 0;
  }
  Interest& interest = in->second;
  auto t = topics_.find(interest.topic);
  if (t == topics_.end() || interest.partition >= t->second.config.partitions) {
    return 0;
  }
  const Partition& part = *t->second.partitions[interest.partition];
  const PartitionLog& log = part.log;
  const Filter* filter = part.interest.FilterOf(id);
  if (filter != nullptr && log.end_offset() > offset) {
    // A matching record may already be retained at or past `offset`: fire
    // immediately with no registration, mirroring WaitForAppend. The common
    // caller parks only once caught up, so this probe is usually empty.
    std::vector<StoredMessage> probe;
    Offset next = offset;
    if (log.ScanInto(
            offset, 1, 0,
            [filter](const StoredMessage& m) { return filter->Matches(m.message); }, &probe,
            &next) > 0) {
      sim_->After(0, std::move(fn));
      return 0;
    }
  }
  if (interest.ticket != 0) {
    waiter_index_.erase(interest.ticket);  // Re-park replaces the old wakeup.
  }
  const WaitTicket ticket = next_wait_ticket_++;
  waiter_index_.emplace_hint(waiter_index_.end(), ticket,
                             Waiter{nullptr, GroupId(), id, std::move(fn)});
  interest.ticket = ticket;
  interest.wait_offset = offset;
  return ticket;
}

common::Result<std::size_t> Broker::FetchFilteredInto(const std::string& topic,
                                                      PartitionId partition, Offset offset,
                                                      std::size_t max, std::size_t max_scan,
                                                      const Filter& filter,
                                                      std::vector<StoredMessage>* out,
                                                      Offset* next_offset,
                                                      std::uint64_t* scanned) const {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  if (partition >= it->second.config.partitions) {
    return common::Status::InvalidArgument("partition out of range");
  }
  const std::size_t before = out->size();
  std::uint64_t examined = 0;
  const std::size_t appended = it->second.partitions[partition]->log.ScanInto(
      offset, max, max_scan,
      [&filter](const StoredMessage& m) { return filter.Matches(m.message); }, out, next_offset,
      &examined);
  if (scanned != nullptr) {
    *scanned += examined;
  }
  if (fanout_fetch_scanned_ != nullptr) {
    fanout_fetch_scanned_->Increment(static_cast<std::int64_t>(examined));
    fanout_fetch_matched_->Increment(static_cast<std::int64_t>(appended));
  }
  if (obs::TracingEnabled() && appended != 0) {
    const std::int64_t now = obs::NowMicros();
    for (std::size_t i = before; i < out->size(); ++i) {
      (*out)[i].message.trace.Stamp(obs::Stage::kFetch, now);  // Handed to consumer.
    }
  }
  return appended;
}

const InterestIndex* Broker::Interests(const std::string& topic, PartitionId partition) const {
  auto it = topics_.find(topic);
  if (it == topics_.end() || partition >= it->second.config.partitions) {
    return nullptr;
  }
  return &it->second.partitions[partition]->interest;
}

common::Result<std::vector<StoredMessage>> Broker::Fetch(const std::string& topic,
                                                         PartitionId partition, Offset offset,
                                                         std::size_t max) const {
  std::vector<StoredMessage> messages;
  auto appended = FetchInto(topic, partition, offset, max, &messages);
  if (!appended.ok()) {
    return appended.status();
  }
  return messages;
}

common::Result<std::size_t> Broker::FetchInto(const std::string& topic, PartitionId partition,
                                              Offset offset, std::size_t max,
                                              std::vector<StoredMessage>* out) const {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  if (partition >= it->second.config.partitions) {
    return common::Status::InvalidArgument("partition out of range");
  }
  const std::size_t before = out->size();
  const std::size_t appended = it->second.partitions[partition]->log.ReadInto(offset, max, out);
  if (obs::TracingEnabled() && appended != 0) {  // Empty polls skip the clock read.
    const std::int64_t now = obs::NowMicros();
    for (std::size_t i = before; i < out->size(); ++i) {
      (*out)[i].message.trace.Stamp(obs::Stage::kFetch, now);  // Handed to consumer.
    }
  }
  return appended;
}

common::Result<std::size_t> Broker::FetchSpans(const std::string& topic, PartitionId partition,
                                               Offset offset, std::size_t max,
                                               std::vector<MessageSpan>* out, ReadPin* pin) const {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  if (partition >= it->second.config.partitions) {
    return common::Status::InvalidArgument("partition out of range");
  }
  PartitionLog* log = &it->second.partitions[partition]->log;
  if (pin != nullptr) {
    // Pin before reading; rebinding an already-held pin on the same log
    // overlaps the counts (new pin taken before the old releases), so the
    // log never transiently applies deferred retention between batches.
    *pin = ReadPin(log);
  }
  return log->ReadSpansInto(offset, max, out);
}

Offset Broker::EndOffset(const std::string& topic, PartitionId partition) const {
  auto it = topics_.find(topic);
  if (it == topics_.end() || partition >= it->second.config.partitions) {
    return 0;
  }
  return it->second.partitions[partition]->log.end_offset();
}

Offset Broker::FirstOffset(const std::string& topic, PartitionId partition) const {
  auto it = topics_.find(topic);
  if (it == topics_.end() || partition >= it->second.config.partitions) {
    return 0;
  }
  return it->second.partitions[partition]->log.first_offset();
}

common::Result<std::uint64_t> Broker::JoinGroup(const GroupId& group, const std::string& topic,
                                                const MemberId& member) {
  Group& g = groups_[group];
  if (g.topic.empty()) {
    g.topic = topic;
  } else if (g.topic != topic) {
    // A group's topic binding is immutable: letting a late joiner rewrite it
    // would silently repoint every member's assignment at a different log.
    return common::Status::FailedPrecondition("group '" + group + "' consumes topic '" +
                                              g.topic + "', not '" + topic + "'");
  }
  const auto [it, inserted] = g.members.insert_or_assign(member, sim_->Now());
  (void)it;
  if (inserted) {
    Rebalance(group, g, "member_join");
  }
  // A rejoin by a present member is heartbeat-equivalent: bumping the
  // generation here would invalidate every member's AssignedPartitions.
  return g.generation;
}

void Broker::LeaveGroup(const GroupId& group, const MemberId& member) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return;
  }
  if (it->second.members.erase(member) > 0) {
    Rebalance(group, it->second, "member_leave");
  }
}

void Broker::Heartbeat(const GroupId& group, const MemberId& member) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return;
  }
  auto m = it->second.members.find(member);
  if (m != it->second.members.end()) {
    m->second = sim_->Now();
  }
}

std::vector<PartitionId> Broker::AssignedPartitions(const GroupId& group, const MemberId& member,
                                                    std::uint64_t generation) const {
  std::vector<PartitionId> out;
  auto it = groups_.find(group);
  if (it == groups_.end() || it->second.generation != generation) {
    return out;
  }
  for (const auto& [partition, owner] : it->second.assignment) {
    if (owner == member) {
      out.push_back(partition);
    }
  }
  return out;
}

std::uint64_t Broker::GroupGeneration(const GroupId& group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second.generation;
}

void Broker::CommitOffset(const GroupId& group, PartitionId partition, Offset offset) {
  Group& g = groups_[group];
  Offset& committed = g.committed[partition];
  if (offset > committed) {
    committed = offset;
    for (BrokerObserver* o : observers_) {
      o->OnCommitOffset(group, partition, committed);
    }
  }
}

void Broker::SeekGroup(const GroupId& group, PartitionId partition, Offset offset) {
  groups_[group].committed[partition] = offset;  // May rewind: that is the point.
  for (BrokerObserver* o : observers_) {
    o->OnSeek(group, partition, offset);
  }
}

void Broker::SeekGroupToTime(const GroupId& group, const std::string& topic,
                             common::TimeMicros timestamp) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return;
  }
  for (PartitionId p = 0; p < it->second.config.partitions; ++p) {
    // First retained message at or after the timestamp; if everything is
    // older, land at the end (nothing replays).
    const Offset target = it->second.partitions[p]->log.OffsetAtOrAfter(timestamp);
    groups_[group].committed[p] = target;
    for (BrokerObserver* o : observers_) {
      o->OnSeek(group, p, target);
    }
  }
}

Offset Broker::CommittedOffset(const GroupId& group, PartitionId partition) const {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return 0;
  }
  auto c = it->second.committed.find(partition);
  return c == it->second.committed.end() ? 0 : c->second;
}

std::uint64_t Broker::GroupBacklog(const GroupId& group, const std::string& topic) const {
  auto t = topics_.find(topic);
  if (t == topics_.end()) {
    return 0;
  }
  std::uint64_t backlog = 0;
  for (PartitionId p = 0; p < t->second.config.partitions; ++p) {
    const Offset end = t->second.partitions[p]->log.end_offset();
    const Offset committed = CommittedOffset(group, p);
    backlog += end > committed ? end - committed : 0;
  }
  return backlog;
}

std::uint64_t Broker::TotalGced(const std::string& topic) const {
  auto t = topics_.find(topic);
  if (t == topics_.end()) {
    return 0;
  }
  std::uint64_t total = 0;
  for (const auto& p : t->second.partitions) {
    total += p->log.gced();
  }
  return total;
}

std::uint64_t Broker::TotalCompactedAway(const std::string& topic) const {
  auto t = topics_.find(topic);
  if (t == topics_.end()) {
    return 0;
  }
  std::uint64_t total = 0;
  for (const auto& p : t->second.partitions) {
    total += p->log.compacted_away();
  }
  return total;
}

std::uint64_t Broker::TotalSilentSkips(const std::string& topic) const {
  auto t = topics_.find(topic);
  if (t == topics_.end()) {
    return 0;
  }
  std::uint64_t total = 0;
  for (const auto& p : t->second.partitions) {
    total += p->log.silent_skips();
  }
  return total;
}

void Broker::EnforceRetention() {
  const common::TimeMicros now = sim_->Now();
  for (auto& [name, topic] : topics_) {
    const RetentionPolicy& policy = topic.config.retention;
    for (auto& partition : topic.partitions) {
      if (policy.compacted && policy.compaction_window > 0) {
        partition->log.Compact(now - policy.compaction_window);
      }
      if (policy.retention > 0) {
        partition->log.GcBefore(now - policy.retention);
      }
    }
  }
}

void Broker::SweepDeadMembers() {
  const common::TimeMicros now = sim_->Now();
  for (auto& [id, group] : groups_) {
    bool changed = false;
    for (auto it = group.members.begin(); it != group.members.end();) {
      if (now - it->second > session_timeout_) {
        it = group.members.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
    if (changed) {
      Rebalance(id, group, "member_eviction");
    }
  }
}

void Broker::Rebalance(const GroupId& id, Group& group, const char* cause) {
  ++group.generation;
  group.assignment.clear();
  if (obs_ != nullptr) {
    obs_->LogEvent(obs::EventKind::kRebalance, cause,
                   "group=" + id + " gen=" + std::to_string(group.generation) +
                       " members=" + std::to_string(group.members.size()),
                   obs_shard_);
  }
  auto topic = topics_.find(group.topic);
  if (topic != topics_.end() && !group.members.empty()) {
    // Range assignment: contiguous partition blocks over sorted members
    // (std::map iteration is already sorted, giving determinism).
    std::vector<MemberId> members;
    members.reserve(group.members.size());
    for (const auto& [m, hb] : group.members) {
      members.push_back(m);
    }
    const PartitionId n = topic->second.config.partitions;
    for (PartitionId p = 0; p < n; ++p) {
      group.assignment[p] = members[p % members.size()];
    }
  }
  if (!observers_.empty()) {
    std::vector<MemberId> members;
    members.reserve(group.members.size());
    for (const auto& [m, hb] : group.members) {
      members.push_back(m);
    }
    for (BrokerObserver* o : observers_) {
      o->OnRebalance(id, group.generation, members, group.assignment);
    }
  }
  // Wake parked rebalance waiters (one-shot, immediate events, ticket order).
  auto waiters = rebalance_waiters_.find(id);
  if (waiters != rebalance_waiters_.end()) {
    for (const WaitTicket ticket : waiters->second) {
      auto w = waiter_index_.find(ticket);
      sim_->After(0, std::move(w->second.fn));
      waiter_index_.erase(w);
    }
    rebalance_waiters_.erase(waiters);
  }
}

std::vector<std::string> Broker::TopicNames() const {
  std::vector<std::string> out;
  out.reserve(topics_.size());
  for (const auto& [name, topic] : topics_) {
    out.push_back(name);
  }
  return out;
}

std::vector<GroupId> Broker::GroupIds() const {
  std::vector<GroupId> out;
  out.reserve(groups_.size());
  for (const auto& [id, group] : groups_) {
    out.push_back(id);
  }
  return out;
}

GroupView Broker::ViewGroup(const GroupId& group) const {
  GroupView view;
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return view;
  }
  view.topic = it->second.topic;
  view.generation = it->second.generation;
  for (const auto& [m, hb] : it->second.members) {
    view.members.push_back(m);
  }
  view.assignment = it->second.assignment;
  view.committed = it->second.committed;
  return view;
}

const PartitionLog* Broker::Log(const std::string& topic, PartitionId partition) const {
  auto it = topics_.find(topic);
  if (it == topics_.end() || partition >= it->second.config.partitions) {
    return nullptr;
  }
  return &it->second.partitions[partition]->log;
}

const TopicConfig* Broker::TopicConfigFor(const std::string& topic) const {
  auto it = topics_.find(topic);
  return it == topics_.end() ? nullptr : &it->second.config;
}

PartitionLog* Broker::MutableLog(const std::string& topic, PartitionId partition) {
  auto it = topics_.find(topic);
  if (it == topics_.end() || partition >= it->second.config.partitions) {
    return nullptr;
  }
  return &it->second.partitions[partition]->log;
}

void Broker::RestoreGroupState(const GroupId& group, const std::string& topic,
                               PartitionId partition, Offset committed) {
  Group& g = groups_[group];
  if (g.topic.empty()) {
    g.topic = topic;
  }
  const Offset end = EndOffset(topic, partition);
  g.committed[partition] = std::min(committed, end);
}

}  // namespace pubsub
