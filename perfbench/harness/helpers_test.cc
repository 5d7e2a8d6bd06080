// Tests of the benchmark's own helpers. Build and run with
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/loadgen.h"
#include "harness/record.h"
#include "harness/stats.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankWithSampleCount) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);
  }
  const Percentile p50 = PercentileOf(&v, 50);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.count, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  const Percentile p99 = PercentileOf(&v, 99);
  EXPECT_EQ(p99.value, 99);
  EXPECT_EQ(p99.beyond, 1u);
  EXPECT_EQ(PercentileOf(&v, 100).value, 100);
  EXPECT_EQ(PercentileOf(&v, 0).value, 1);
}

TEST(PercentileTest, TiesAreNotCountedBeyond) {
  std::vector<double> v = {5, 5, 5, 5, 7};
  const Percentile p = PercentileOf(&v, 50);
  EXPECT_EQ(p.value, 5);
  EXPECT_EQ(p.beyond, 1u);
}

TEST(PercentileTest, EmptyInputHasNoSamples) {
  std::vector<double> v;
  const Percentile p = PercentileOf(&v, 90);
  EXPECT_EQ(p.count, 0u);
  EXPECT_EQ(p.value, 0);
}

TEST(CpuTest, SubtractsOnlyGeneratorTimeOutsideCalls) {
  // 10 s of process CPU; the generator burned 3 s, 1 s of it inside calls.
  EXPECT_EQ(SystemCpuNs(10'000, 3'000, 1'000), 8'000);
  // Calls that took longer (wall) than the generator's CPU leave nothing to
  // subtract.
  EXPECT_EQ(SystemCpuNs(10'000, 1'000, 2'000), 10'000);
  EXPECT_EQ(SystemCpuNs(1'000, 5'000, 0), 0);
}

TEST(CpuTest, ThreadClocksAdvance) {
  const std::int64_t before = ThreadCpuNs();
  volatile double x = 0;
  for (int i = 0; i < 2'000'000; ++i) {
    x = x + i;
  }
  EXPECT_GT(ThreadCpuNs(), before);
  const std::vector<int> tids = ListTids();
  ASSERT_FALSE(tids.empty());
  EXPECT_GT(TidsCpuNs(tids), 0);
  EXPECT_TRUE(NewTids(tids, tids).empty());
}

TEST(LatenessTest, FlagsOnlyAboveTheLimit) {
  EXPECT_FALSE(GeneratorFellBehind(999.0, kLateLimitUs));
  EXPECT_FALSE(GeneratorFellBehind(kLateLimitUs, kLateLimitUs));
  EXPECT_TRUE(GeneratorFellBehind(1000.5, kLateLimitUs));
}

struct Rec {
  std::string key;
  std::string value;
};

Rec Make(std::uint64_t seed, std::uint64_t seq) {
  const auto rank = static_cast<std::uint32_t>(seq * 7 % 4096);
  Rec r{bench::RankKey(rank), ""};
  MakeValue(seed, seq, rank, 1000 + static_cast<std::int64_t>(seq), &r.value);
  return r;
}

TEST(RecordTest, RoundTripsAndRejectsTampering) {
  const Rec r = Make(9, 42);
  EXPECT_EQ(r.key.size(), kKeyBytes);
  EXPECT_EQ(r.value.size(), kValueBytes);
  ParsedRecord p;
  ASSERT_TRUE(ParseRecord(9, r.key, r.value, &p));
  EXPECT_EQ(p.seq, 42u);
  EXPECT_EQ(p.due_ns, 1042);
  EXPECT_FALSE(ParseRecord(10, r.key, r.value, &p));  // Another run's record.
  EXPECT_FALSE(ParseRecord(9, bench::RankKey(1), r.value, &p));
  EXPECT_FALSE(ParseRecord(9, r.key, r.value.substr(1), &p));
}

DeliveryChecker::Verdict Deliver(const std::vector<std::uint64_t>& seqs, std::uint64_t accepted,
                                 bool corrupt_one = false) {
  DeliveryChecker checker(3, 1, 1000);
  checker.Accepted(accepted);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    Rec r = Make(3, seqs[i]);
    if (corrupt_one && i == seqs.size() / 2) {
      r.value[50] ^= 0x01;
    }
    checker.Deliver(0, r.key, r.value);
  }
  return checker.Finish();
}

TEST(CheckerTest, CleanRunPasses) {
  const auto v = Deliver({0, 1, 2, 3, 4}, 5);
  EXPECT_TRUE(v.ok()) << v.Describe();
  EXPECT_EQ(v.delivered, 5u);
}

TEST(CheckerTest, CatchesLoss) {
  const auto v = Deliver({0, 1, 3, 4}, 5);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.loss, 1u);
}

TEST(CheckerTest, CatchesDuplication) {
  const auto v = Deliver({0, 1, 2, 2, 3, 4}, 5);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.duplicates, 1u);
  EXPECT_EQ(v.loss, 0u);
}

TEST(CheckerTest, CatchesReordering) {
  const auto v = Deliver({0, 2, 1, 3, 4}, 5);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.reorders, 1u);
}

TEST(CheckerTest, CatchesCorruption) {
  const auto v = Deliver({0, 1, 2, 3, 4}, 5, /*corrupt_one=*/true);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.corrupt, 1u);
  EXPECT_EQ(v.loss, 1u);  // The corrupt record never counts as delivered.
}

TEST(CheckerTest, CatchesMisroutingAndResyncs) {
  DeliveryChecker checker(3, 2, 100);
  checker.Accepted(2);
  const Rec a = Make(3, 0);
  const Rec b = Make(3, 1);
  checker.Deliver(0, a.key, a.value, /*expected_stream=*/0);
  checker.Deliver(1, b.key, b.value, /*expected_stream=*/0);
  EXPECT_EQ(checker.Finish().misrouted, 1u);
  checker.Resync();
  EXPECT_EQ(checker.Finish().resyncs, 1u);
  EXPECT_FALSE(checker.Finish().ok());
}

TEST(CheckerTest, OrderIsPerStream) {
  DeliveryChecker checker(3, 2, 100);
  checker.Accepted(4);
  for (std::uint64_t seq : {1, 3}) {
    const Rec r = Make(3, seq);
    checker.Deliver(0, r.key, r.value);
  }
  for (std::uint64_t seq : {0, 2}) {  // Lower seqs on another stream: fine.
    const Rec r = Make(3, seq);
    checker.Deliver(1, r.key, r.value);
  }
  EXPECT_TRUE(checker.Finish().ok()) << checker.Finish().Describe();
}

TEST(CheckerTest, WithdrawnRecordsAreNotOwed) {
  const Rec r = Make(3, 0);
  DeliveryChecker checker(3, 1, 10);
  checker.Accepted(2);
  checker.Deliver(0, r.key, r.value);
  EXPECT_EQ(checker.Finish().loss, 1u);
  checker.Withdraw(1);
  EXPECT_TRUE(checker.Finish().ok());
}

}  // namespace
}  // namespace perfbench
