#include "harness/layers.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/loadgen.h"
#include "harness/record.h"
#include "harness/stats.h"
#include "net/frame_decoder.h"
#include "net/messages.h"
#include "net/wire.h"
#include "pubsub/broker.h"
#include "pubsub/span.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

constexpr std::size_t kRecords = 20000;
constexpr std::size_t kBatch = 256;
constexpr int kReps = 5;

// Median over kReps of `run()`'s ns per item; `run` returns the items done.
double NsPerItem(const std::function<std::size_t()>& run) {
  std::vector<double> per;
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t start = NowNs();
    const std::size_t items = run();
    per.push_back(static_cast<double>(NowNs() - start) / static_cast<double>(std::max<std::size_t>(1, items)));
  }
  return PercentileOf(&per, 50).value;
}

struct Records {
  std::vector<std::string> keys;
  std::vector<std::string> values;
};

Records MakeRecords(std::uint64_t seed) {
  Records r;
  bench::OpenLoopGen gen({.rate_per_sec = 1, .poisson = true, .zipf_theta = 0.0,
                          .key_space = 4096, .seed = seed});
  std::string value;
  for (std::size_t i = 0; i < kRecords; ++i) {
    const auto rank = static_cast<std::uint32_t>(gen.NextRank());
    MakeValue(seed, i, rank, 0, &value);
    r.keys.push_back(bench::RankKey(rank));
    r.values.push_back(value);
  }
  return r;
}

void Check(bool ok, const char* what) {
  if (!ok) {
    throw std::runtime_error(std::string("isolated layer timing failed: ") + what);
  }
}

void PubsubMetrics(const Records& recs, std::map<std::string, double>* out) {
  sim::Simulator sim(1);
  sim::Network net(&sim);
  pubsub::Broker broker(&sim, &net);
  pubsub::TopicConfig config;
  config.retention.max_messages = kRecords;
  Check(broker.CreateTopic("iso", config).ok(), "CreateTopic");
  (*out)["pubsub.publish_ns"] = NsPerItem([&] {
    for (std::size_t i = 0; i < kRecords; ++i) {
      Check(broker.Publish("iso", pubsub::Message{recs.keys[i], recs.values[i], 0, {}}).ok(),
            "Publish");
    }
    return kRecords;
  });
  (*out)["pubsub.publish_span_ns"] = NsPerItem([&] {
    for (std::size_t i = 0; i < kRecords; ++i) {
      Check(broker.PublishSpan("iso", recs.keys[i], recs.values[i]).ok(), "PublishSpan");
    }
    return kRecords;
  });
  std::vector<pubsub::StoredMessage> into;
  into.reserve(kBatch);
  (*out)["pubsub.fetch_into_ns_per_msg"] = NsPerItem([&] {
    std::size_t n = 0;
    const pubsub::Offset end = broker.EndOffset("iso", 0);
    for (pubsub::Offset at = broker.FirstOffset("iso", 0); at < end;) {
      into.clear();
      const auto got = broker.FetchInto("iso", 0, at, kBatch, &into);
      Check(got.ok() && *got > 0, "FetchInto");
      at = into.back().offset + 1;
      n += *got;
    }
    return n;
  });
  std::vector<pubsub::MessageSpan> spans;
  spans.reserve(kBatch);
  (*out)["pubsub.fetch_spans_ns_per_msg"] = NsPerItem([&] {
    std::size_t n = 0;
    pubsub::ReadPin pin;
    const pubsub::Offset end = broker.EndOffset("iso", 0);
    for (pubsub::Offset at = broker.FirstOffset("iso", 0); at < end;) {
      spans.clear();
      const auto got = broker.FetchSpans("iso", 0, at, kBatch, &spans, &pin);
      Check(got.ok() && *got > 0, "FetchSpans");
      at = spans.back().offset + 1;
      n += *got;
    }
    return n;
  });
}

void NetMetrics(const Records& recs, std::map<std::string, double>* out) {
  std::vector<std::string> payloads(kRecords);
  (*out)["net.publish_encode_ns"] = NsPerItem([&] {
    net::PublishRequest req;
    req.topic = "bench";
    req.ack = net::PublishAck::kNone;
    for (std::size_t i = 0; i < kRecords; ++i) {
      req.key = recs.keys[i];
      req.value = recs.values[i];
      payloads[i].clear();
      net::Encode(req, &payloads[i]);
    }
    return kRecords;
  });
  (*out)["net.publish_decode_ns"] = NsPerItem([&] {
    net::PublishRequest req;
    for (std::size_t i = 0; i < kRecords; ++i) {
      Check(net::Decode(payloads[i], &req), "Decode(PublishRequest)");
    }
    return kRecords;
  });
  std::string frames;
  for (std::size_t i = 0; i < kRecords; ++i) {
    net::EncodeFrame(frames, net::Verb::kPublish, i + 1, payloads[i]);
  }
  const std::size_t frame_bytes = frames.size() / kRecords;
  (*out)["net.frame_decode_ns"] = NsPerItem([&] {
    net::FrameDecoder decoder;
    net::Frame frame;
    for (std::size_t i = 0; i < kRecords; ++i) {
      decoder.Feed(std::string_view(frames).substr(i * frame_bytes, frame_bytes));
      Check(decoder.Next(&frame) == net::FrameDecoder::Result::kFrame, "FrameDecoder::Next");
    }
    return kRecords;
  });
  net::MessageBatch batch;
  for (std::size_t i = 0; i < kBatch; ++i) {
    batch.messages.push_back({i, pubsub::Message{recs.keys[i], recs.values[i], 0, {}}});
  }
  std::string encoded;
  (*out)["net.deliver_encode_ns_per_msg"] = NsPerItem([&] {
    for (std::size_t i = 0; i < kRecords / kBatch; ++i) {
      encoded.clear();
      net::Encode(batch, &encoded);
    }
    return (kRecords / kBatch) * kBatch;
  });
  net::MessageBatch decoded;
  (*out)["net.deliver_decode_ns_per_msg"] = NsPerItem([&] {
    for (std::size_t i = 0; i < kRecords / kBatch; ++i) {
      decoded.messages.clear();
      Check(net::Decode(encoded, &decoded) && decoded.messages.size() == kBatch,
            "Decode(MessageBatch)");
    }
    return (kRecords / kBatch) * kBatch;
  });
}

}  // namespace

std::map<std::string, double> IsolatedLayerMetrics(std::uint64_t seed) {
  const Records recs = MakeRecords(seed);
  std::map<std::string, double> out;
  PubsubMetrics(recs, &out);
  NetMetrics(recs, &out);
  return out;
}

}  // namespace perfbench
