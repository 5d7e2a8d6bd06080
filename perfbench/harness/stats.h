// Measurement helpers shared by every workload: percentiles that carry their
// sample count, CPU accounting taken from outside the program (getrusage,
// per-thread clocks, /proc/self/task), the generator-lateness flag, and the
// per-run delivery checker. Each is small enough to test on its own
// (helpers_test.cc).
#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness/record.h"

namespace perfbench {

// -- Clocks ----------------------------------------------------------------------

std::int64_t NowNs();             // steady_clock.
std::int64_t ThreadCpuNs();       // CPU time of the calling thread.
std::int64_t ProcessCpuNs();      // getrusage(RUSAGE_SELF) user + system.
double PeakRssMb();               // getrusage ru_maxrss, in MiB.

// Thread ids of this process, from /proc/self/task.
std::vector<int> ListTids();
// Tids present in `after` but not in `before`: the threads a Start() spawned.
std::vector<int> NewTids(const std::vector<int>& before, const std::vector<int>& after);
// On-CPU time of one of this process's threads (/proc/self/task/<tid>/schedstat);
// -1 when the thread is gone.
std::int64_t TidCpuNs(int tid);
// Sum of TidCpuNs over `tids` (gone threads count 0).
std::int64_t TidsCpuNs(const std::vector<int>& tids);

// -- Percentiles -----------------------------------------------------------------

// A percentile together with the sample count it rests on and the number of
// samples strictly above it, so a reader can tell a p99 of 40 samples from
// one of 40 000.
struct Percentile {
  double value = 0;
  std::size_t count = 0;
  std::size_t beyond = 0;
};

// Nearest-rank percentile (p in [0, 100]) of `samples`; reorders them.
// An empty input gives {0, 0, 0}.
Percentile PercentileOf(std::vector<double>* samples, double p);

// -- CPU accounting --------------------------------------------------------------

// CPU the system under test spent, in ns: the process's CPU minus what the
// load generator thread burned outside its calls into the program (spinning
// or sleeping towards the next due time, building records). The generator's
// time inside calls is wall time spent in non-blocking calls, so it stands
// in for their CPU. Never negative.
std::int64_t SystemCpuNs(std::int64_t process_cpu_ns, std::int64_t generator_cpu_ns,
                         std::int64_t generator_in_call_ns);

// -- Lateness --------------------------------------------------------------------

// An open-loop run is valid only while the generator keeps to its schedule:
// true when the p99 of (call start - due time) exceeds `limit_us`.
bool GeneratorFellBehind(double late_p99_us, double limit_us);
constexpr double kLateLimitUs = 1000;

// -- Delivery checker ------------------------------------------------------------

// The per-run correctness verdict. Every accepted record must be delivered
// exactly once, on the stream it belongs to, in publish order within that
// stream, with its bytes intact; a stream that resyncs has failed. Records
// are self-describing (record.h), so the checker needs no side table.
// Deliver() may be called concurrently for different streams; deliveries on
// one stream must be serialized.
class DeliveryChecker {
 public:
  // `max_seq` bounds the sequence numbers the run can publish.
  DeliveryChecker(std::uint64_t seed, std::size_t streams, std::uint64_t max_seq);

  // The program accepted `n` more records.
  void Accepted(std::uint64_t n = 1) { accepted_.fetch_add(n, std::memory_order_relaxed); }
  // The program refused `n` records the caller had counted as accepted (a
  // fire-and-forget publish refused on the far side of a socket).
  void Withdraw(std::uint64_t n) { accepted_.fetch_sub(n, std::memory_order_relaxed); }

  // One delivered record on `stream`. `expected_stream` (when >= 0) is the
  // stream the record's key must arrive on. Returns false when the record
  // is corrupt; otherwise `*rec` (may be null) receives its sequence number
  // and due time.
  bool Deliver(std::size_t stream, std::string_view key, std::string_view value,
               long expected_stream = -1, ParsedRecord* rec = nullptr);

  // A stream reported a resync (watch sessions).
  void Resync() { resyncs_.fetch_add(1, std::memory_order_relaxed); }
  // A record whose bytes parsed but whose delivery metadata (a watch
  // event's version) disagrees with them.
  void Corrupt() { corrupt_.fetch_add(1, std::memory_order_relaxed); }

  struct Verdict {
    std::uint64_t accepted = 0;
    std::uint64_t delivered = 0;  // Unique, intact records.
    std::uint64_t loss = 0;       // Accepted but never delivered.
    std::uint64_t phantom = 0;    // Delivered beyond what was accepted.
    std::uint64_t duplicates = 0;
    std::uint64_t reorders = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t misrouted = 0;
    std::uint64_t resyncs = 0;
    bool ok() const {
      return loss == 0 && phantom == 0 && duplicates == 0 && reorders == 0 && corrupt == 0 &&
             misrouted == 0 && resyncs == 0;
    }
    std::string Describe() const;
  };
  Verdict Finish() const;

  std::uint64_t delivered() const;
  std::uint64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }

 private:
  // Written only by the thread delivering the stream (deliveries of one
  // stream are serialized), so counting needs no read-modify-write on a
  // line other threads poll.
  struct alignas(64) Stream {
    std::uint64_t last_seq = 0;
    bool any = false;
    std::atomic<std::uint64_t> delivered{0};
  };

  std::uint64_t seed_;
  std::uint64_t max_seq_;
  std::unique_ptr<Stream[]> streams_;
  std::size_t stream_count_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> seen_;  // Bitmap over seq.
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> reorders_{0};
  std::atomic<std::uint64_t> corrupt_{0};
  std::atomic<std::uint64_t> misrouted_{0};
  std::atomic<std::uint64_t> resyncs_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
