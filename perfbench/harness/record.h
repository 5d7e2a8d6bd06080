// The fixed record shape every workload publishes: a 9-byte RankKey
// (bench/loadgen.h) and a 100-byte value that describes itself, so a
// consumer can check a record without any side table:
//
//   [0, 8)    sequence number (little endian)
//   [8, 12)   key rank — the key must equal RankKey(rank)
//   [12, 20)  due time, steady-clock ns (latency is charged from it)
//   [20, 92)  filler derived from (seed, sequence)
//   [92, 100) checksum of bytes [0, 92) keyed by the run seed
#ifndef PERFBENCH_HARNESS_RECORD_H_
#define PERFBENCH_HARNESS_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

constexpr std::size_t kValueBytes = 100;
constexpr std::size_t kKeyBytes = 9;

// Writes the value of record `seq` into `out` (resized to kValueBytes).
void MakeValue(std::uint64_t seed, std::uint64_t seq, std::uint32_t rank, std::int64_t due_ns,
               std::string* out);

struct ParsedRecord {
  std::uint64_t seq = 0;
  std::uint32_t rank = 0;
  std::int64_t due_ns = 0;
};

// False when the value has the wrong size, a bad checksum, or does not
// match `key`.
bool ParseRecord(std::uint64_t seed, std::string_view key, std::string_view value,
                 ParsedRecord* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_RECORD_H_
