#include "harness/stats.h"

#include <dirent.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "harness/record.h"

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::int64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1000000 + tv.tv_usec;
  };
  return (us(ru.ru_utime) + us(ru.ru_stime)) * 1000;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::vector<int> ListTids() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return tids;
  }
  while (dirent* e = readdir(dir)) {
    const int tid = std::atoi(e->d_name);
    if (tid > 0) {
      tids.push_back(tid);
    }
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<int> NewTids(const std::vector<int>& before, const std::vector<int>& after) {
  const std::set<int> old(before.begin(), before.end());
  std::vector<int> fresh;
  for (int tid : after) {
    if (old.count(tid) == 0) {
      fresh.push_back(tid);
    }
  }
  return fresh;
}

std::int64_t TidCpuNs(int tid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/schedstat", tid);
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    return -1;
  }
  long long ns = -1;
  if (std::fscanf(f, "%lld", &ns) != 1) {
    ns = -1;
  }
  std::fclose(f);
  return ns;
}

std::int64_t TidsCpuNs(const std::vector<int>& tids) {
  std::int64_t total = 0;
  for (int tid : tids) {
    total += std::max<std::int64_t>(0, TidCpuNs(tid));
  }
  return total;
}

Percentile PercentileOf(std::vector<double>* samples, double p) {
  Percentile out;
  out.count = samples->size();
  if (samples->empty()) {
    return out;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * out.count));
  rank = std::clamp<std::size_t>(rank, 1, out.count);
  auto nth = samples->begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples->begin(), nth, samples->end());
  out.value = *nth;
  out.beyond = static_cast<std::size_t>(
      std::count_if(nth + 1, samples->end(), [&](double v) { return v > out.value; }));
  return out;
}

std::int64_t SystemCpuNs(std::int64_t process_cpu_ns, std::int64_t generator_cpu_ns,
                         std::int64_t generator_in_call_ns) {
  const std::int64_t generator_own = std::max<std::int64_t>(0, generator_cpu_ns - generator_in_call_ns);
  return std::max<std::int64_t>(0, process_cpu_ns - generator_own);
}

bool GeneratorFellBehind(double late_p99_us, double limit_us) { return late_p99_us > limit_us; }

DeliveryChecker::DeliveryChecker(std::uint64_t seed, std::size_t streams, std::uint64_t max_seq)
    : seed_(seed),
      max_seq_(max_seq),
      streams_(new Stream[streams]),
      stream_count_(streams),
      seen_(new std::atomic<std::uint64_t>[max_seq / 64 + 1]) {
  for (std::uint64_t i = 0; i <= max_seq / 64; ++i) {
    seen_[i].store(0, std::memory_order_relaxed);
  }
}

bool DeliveryChecker::Deliver(std::size_t stream, std::string_view key, std::string_view value,
                              long expected_stream, ParsedRecord* out) {
  ParsedRecord rec;
  if (!ParseRecord(seed_, key, value, &rec) || rec.seq >= max_seq_) {
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (out != nullptr) {
    *out = rec;
  }
  if (expected_stream >= 0 && static_cast<std::size_t>(expected_stream) != stream) {
    misrouted_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint64_t bit = 1ull << (rec.seq % 64);
  if (seen_[rec.seq / 64].fetch_or(bit, std::memory_order_relaxed) & bit) {
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  Stream& s = streams_[stream];
  if (s.any && rec.seq < s.last_seq) {
    reorders_.fetch_add(1, std::memory_order_relaxed);
  }
  s.last_seq = std::max(s.last_seq, rec.seq);
  s.any = true;
  s.delivered.store(s.delivered.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  return true;
}

std::uint64_t DeliveryChecker::delivered() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < stream_count_; ++i) {
    total += streams_[i].delivered.load(std::memory_order_relaxed);
  }
  return total;
}

DeliveryChecker::Verdict DeliveryChecker::Finish() const {
  Verdict v;
  v.accepted = accepted_.load();
  v.delivered = delivered();
  v.loss = v.accepted > v.delivered ? v.accepted - v.delivered : 0;
  v.phantom = v.delivered > v.accepted ? v.delivered - v.accepted : 0;
  v.duplicates = duplicates_.load();
  v.reorders = reorders_.load();
  v.corrupt = corrupt_.load();
  v.misrouted = misrouted_.load();
  v.resyncs = resyncs_.load();
  return v;
}

std::string DeliveryChecker::Verdict::Describe() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "accepted=%llu delivered=%llu loss=%llu phantom=%llu duplicates=%llu "
                "reorders=%llu corrupt=%llu misrouted=%llu resyncs=%llu -> %s",
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(delivered), static_cast<unsigned long long>(loss),
                static_cast<unsigned long long>(phantom),
                static_cast<unsigned long long>(duplicates),
                static_cast<unsigned long long>(reorders), static_cast<unsigned long long>(corrupt),
                static_cast<unsigned long long>(misrouted),
                static_cast<unsigned long long>(resyncs), ok() ? "ok" : "VIOLATION");
  return buf;
}

}  // namespace perfbench
