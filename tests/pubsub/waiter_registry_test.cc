// Regression tests for the broker's long-poll waiter registry: append
// waiters live in per-partition slot vectors (ticket order), indexed by
// ticket for CancelWait. Every parked waiter fires exactly once — on the
// append that satisfies it, on topic removal, or on broker teardown — and
// always as an immediate simulator event in ticket order.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pubsub/broker.h"
#include "pubsub/filter.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace pubsub {
namespace {

class WaiterRegistryTest : public ::testing::Test {
 protected:
  WaiterRegistryTest() : net_(&sim_), broker_(std::make_unique<Broker>(&sim_, &net_)) {}

  void CreateTopic(const std::string& topic, PartitionId partitions) {
    TopicConfig config;
    config.partitions = partitions;
    ASSERT_TRUE(broker_->CreateTopic(topic, config).ok());
  }

  void Publish(const std::string& topic, PartitionId partition) {
    ASSERT_TRUE(broker_->Publish(topic, Message{"k", "v", 0, {}}, partition).ok());
  }

  // Parks an append waiter that logs `tag` into fired_ when it runs.
  Broker::WaitTicket Park(const std::string& topic, PartitionId partition, Offset offset, int tag) {
    return broker_->WaitForAppend(topic, partition, offset, [this, tag] { fired_.push_back(tag); });
  }

  // Runs the events due now — the immediate waiter fires — but not the
  // broker's periodic maintenance, which would reschedule forever.
  void Flush() { sim_.RunUntil(sim_.Now()); }

  sim::Simulator sim_;
  sim::Network net_;
  std::unique_ptr<Broker> broker_;
  std::vector<int> fired_;
};

TEST_F(WaiterRegistryTest, FiresInTicketOrderAcrossTwoPartitions) {
  CreateTopic("t", 2);
  // Interleave registrations across the partitions; tags are ticket order.
  const Broker::WaitTicket t1 = Park("t", 0, 0, 1);
  const Broker::WaitTicket t2 = Park("t", 1, 0, 2);
  const Broker::WaitTicket t3 = Park("t", 0, 0, 3);
  const Broker::WaitTicket t4 = Park("t", 1, 0, 4);
  const Broker::WaitTicket t5 = Park("t", 0, 1, 5);  // Needs a second record.
  EXPECT_LT(t1, t2);
  EXPECT_LT(t2, t3);
  EXPECT_LT(t3, t4);
  EXPECT_LT(t4, t5);
  EXPECT_EQ(broker_->PendingWaiters(), 5u);

  Publish("t", 1);
  Flush();
  EXPECT_EQ(fired_, (std::vector<int>{2, 4}));
  Publish("t", 0);
  Flush();
  EXPECT_EQ(fired_, (std::vector<int>{2, 4, 1, 3}));  // t5 still parked.
  EXPECT_EQ(broker_->PendingWaiters(), 1u);
  Publish("t", 0);
  Flush();
  EXPECT_EQ(fired_, (std::vector<int>{2, 4, 1, 3, 5}));
  EXPECT_EQ(broker_->PendingWaiters(), 0u);

  // Teardown fires every waiter still parked in global ticket order, not
  // partition by partition.
  fired_.clear();
  Park("t", 1, 5, 10);
  Park("t", 0, 5, 11);
  Park("t", 1, 5, 12);
  Park("t", 0, 5, 13);
  broker_.reset();
  Flush();
  EXPECT_EQ(fired_, (std::vector<int>{10, 11, 12, 13}));
}

TEST_F(WaiterRegistryTest, CancelWaitRemovesAParkedAppendWaiter) {
  CreateTopic("t", 2);
  Park("t", 0, 0, 1);
  const Broker::WaitTicket middle = Park("t", 0, 0, 2);
  Park("t", 0, 0, 3);
  const Broker::WaitTicket other = Park("t", 1, 0, 4);
  Park("t", 0, 0, 5);
  EXPECT_EQ(broker_->PendingWaiters(), 5u);

  EXPECT_TRUE(broker_->CancelWait(middle));
  EXPECT_FALSE(broker_->CancelWait(middle));  // Second cancel: already gone.
  EXPECT_EQ(broker_->PendingWaiters(), 4u);
  Publish("t", 0);
  Flush();
  // The cancelled waiter never runs, and the cancel kept the others in
  // ticket order.
  EXPECT_EQ(fired_, (std::vector<int>{1, 3, 5}));
  EXPECT_FALSE(broker_->CancelWait(middle));

  EXPECT_TRUE(broker_->CancelWait(other));
  Publish("t", 1);
  Flush();
  EXPECT_EQ(fired_, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(broker_->PendingWaiters(), 0u);
  EXPECT_FALSE(broker_->CancelWait(0));
}

TEST_F(WaiterRegistryTest, RemoveTopicAndTeardownFireEveryParkedWaiterOnce) {
  CreateTopic("gone", 2);
  CreateTopic("kept", 1);
  std::map<int, int> runs;
  auto count = [&runs](int tag) { return [&runs, tag] { ++runs[tag]; }; };
  ASSERT_NE(broker_->WaitForAppend("gone", 0, 0, count(1)), 0u);
  ASSERT_NE(broker_->WaitForAppend("gone", 1, 0, count(2)), 0u);
  ASSERT_NE(broker_->WaitForAppend("gone", 1, 3, count(3)), 0u);
  const Broker::InterestId interest = broker_->AddInterest("gone", 0, Filter{});
  ASSERT_NE(broker_->WaitForMatch(interest, 0, count(4)), 0u);
  ASSERT_NE(broker_->WaitForAppend("kept", 0, 0, count(5)), 0u);
  ASSERT_NE(broker_->WaitForRebalance("g", count(6)), 0u);
  EXPECT_EQ(broker_->PendingWaiters(), 6u);

  ASSERT_TRUE(broker_->RemoveTopic("gone").ok());
  Flush();
  EXPECT_EQ(runs, (std::map<int, int>{{1, 1}, {2, 1}, {3, 1}, {4, 1}}));
  EXPECT_EQ(broker_->PendingWaiters(), 2u);
  EXPECT_EQ(broker_->PendingInterests(), 0u);

  broker_.reset();
  Flush();
  EXPECT_EQ(runs, (std::map<int, int>{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1}}));
}

TEST_F(WaiterRegistryTest, WaiterOnAnAddedPartitionFires) {
  CreateTopic("t", 1);
  Park("t", 0, 0, 1);  // Parked before the topic grows.
  EXPECT_EQ(broker_->WaitForAppend("t", 1, 0, [] {}), 0u);  // No partition 1 yet.
  ASSERT_TRUE(broker_->AddPartitions("t", 7).ok());
  ASSERT_NE(Park("t", 1, 0, 2), 0u);
  ASSERT_NE(Park("t", 7, 0, 3), 0u);
  Publish("t", 7);
  Publish("t", 1);
  Publish("t", 0);
  Flush();
  EXPECT_EQ(fired_, (std::vector<int>{3, 2, 1}));
  EXPECT_EQ(broker_->PendingWaiters(), 0u);
}

TEST_F(WaiterRegistryTest, PendingWaitersTracksSubscriptionsAcrossCaughtUpReArms) {
  // Caught-up consumers that re-arm at the live edge after every fire: the
  // registry must neither leak nor lose a registration on the fire/re-arm
  // cycle the runtime's subscription pump runs once per record.
  constexpr int kSubscriptions = 4;
  constexpr int kAppends = 100000;
  CreateTopic("t", 2);
  struct Rearming {
    Broker* broker;
    PartitionId partition;
    std::uint64_t fires = 0;
    void Arm() {
      const Offset end = broker->EndOffset("t", partition);
      ASSERT_NE(broker->WaitForAppend("t", partition, end,
                                      [this] {
                                        ++fires;
                                        Arm();
                                      }),
                0u);
    }
  };
  std::vector<Rearming> subs;
  for (int i = 0; i < kSubscriptions; ++i) {
    subs.push_back(Rearming{broker_.get(), static_cast<PartitionId>(i % 2)});
  }
  for (Rearming& sub : subs) {
    sub.Arm();
  }
  for (int i = 0; i < kAppends; ++i) {
    Publish("t", static_cast<PartitionId>(i % 2));
    Flush();
    ASSERT_EQ(broker_->PendingWaiters(), static_cast<std::size_t>(kSubscriptions)) << "append " << i;
  }
  for (const Rearming& sub : subs) {
    EXPECT_EQ(sub.fires, static_cast<std::uint64_t>(kAppends / 2));
  }
}

}  // namespace
}  // namespace pubsub
