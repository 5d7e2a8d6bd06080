#include "harness/record.h"

#include <cstring>

namespace perfbench {
namespace {

constexpr std::size_t kChecksumAt = kValueBytes - 8;

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Word-at-a-time keyed hash of bytes [0, kChecksumAt). Each step is a
// bijection of the running state for a fixed input word, so changing any
// one word always changes the result. Cheap enough that checking every
// delivered record does not make the consumer the bottleneck.
std::uint64_t Checksum(std::uint64_t seed, const char* p) {
  std::uint64_t h = SplitMix(seed);
  std::size_t at = 0;
  for (; at + 8 <= kChecksumAt; at += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + at, 8);
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  std::uint32_t tail;
  std::memcpy(&tail, p + at, 4);
  h = (h ^ tail) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 32);
}

// bench::RankKey(rank) without formatting: "k" and eight decimal digits.
bool KeyMatches(std::string_view key, std::uint32_t rank) {
  if (key.size() != kKeyBytes || key[0] != 'k' || rank >= 100000000u) {
    return false;
  }
  for (std::size_t i = kKeyBytes - 1; i >= 1; --i) {
    if (key[i] != static_cast<char>('0' + rank % 10)) {
      return false;
    }
    rank /= 10;
  }
  return true;
}

}  // namespace

void MakeValue(std::uint64_t seed, std::uint64_t seq, std::uint32_t rank, std::int64_t due_ns,
               std::string* out) {
  out->resize(kValueBytes);
  char* p = out->data();
  std::memcpy(p, &seq, 8);
  std::memcpy(p + 8, &rank, 4);
  std::memcpy(p + 12, &due_ns, 8);
  std::uint64_t x = seed ^ (seq * 0x9e3779b97f4a7c15ull);
  for (std::size_t at = 20; at < kChecksumAt; at += 8) {
    x = SplitMix(x);
    std::memcpy(p + at, &x, 8);
  }
  const std::uint64_t sum = Checksum(seed, p);
  std::memcpy(p + kChecksumAt, &sum, 8);
}

bool ParseRecord(std::uint64_t seed, std::string_view key, std::string_view value,
                 ParsedRecord* out) {
  if (value.size() != kValueBytes) {
    return false;
  }
  std::uint64_t sum = 0;
  std::memcpy(&sum, value.data() + kChecksumAt, 8);
  if (sum != Checksum(seed, value.data())) {
    return false;
  }
  std::memcpy(&out->seq, value.data(), 8);
  std::memcpy(&out->rank, value.data() + 8, 4);
  std::memcpy(&out->due_ns, value.data() + 12, 8);
  return KeyMatches(key, out->rank);
}

}  // namespace perfbench
