// Pins the broker's observable output across commits. The differential
// fuzz harness compares engines through the same Broker code, so it cannot
// see a broker-level change of delivery order, grouping or framing. This
// test runs one fixed seeded overlay scenario and hashes the ordered
// delivery trace — (sim time, client, event id, matched sub, score) per
// handler call, in dispatch order — plus the sim::Network totals by
// message type, under four broker configurations:
//
//   - boolean path, batching on (the default);
//   - boolean path, batching off;
//   - boolean path under an event flush budget (plus a delay budget);
//   - scored path with top-k and min-score cuts.
//
// The expected values are constants recorded from the broker before its
// routing pass was rewritten around flat sorted vectors and events moved
// to shared copy-on-write storage; both changes had to leave every digest
// unchanged. A change that moves any delivery, reorders a client's matched
// subscriptions, alters a score or changes a single wire message or byte
// fails here. If such a change is intended,
// re-pin the constants from the printed actual values and say why in the
// change log.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "pubsub/client.h"
#include "pubsub/overlay.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/hash.h"
#include "util/rng.h"

namespace reef::pubsub {
namespace {

enum class Mode { kBatched, kUnbatched, kFlushBudget, kScored };

Broker::Config broker_config(Mode mode) {
  Broker::Config config;
  switch (mode) {
    case Mode::kBatched:
      break;
    case Mode::kUnbatched:
      config.batching_enabled = false;
      break;
    case Mode::kFlushBudget:
      config.flush_max_events = 3;
      config.flush_max_delay_ticks = 500 * sim::kMicrosecond;
      break;
    case Mode::kScored:
      config.scoring_enabled = true;
      break;
  }
  return config;
}

const std::vector<std::string> kWords = {"storm", "coast", "market", "rally",
                                         "vote",  "court", "match", "goal"};

/// The subscription pool: overlapping filters on one feed attribute, a
/// topic prefix and the text, so a single event often matches several
/// subscriptions of one client (exercising the sorted matched-sub list).
Filter pool_filter(std::size_t index) {
  switch (index % 6) {
    case 0:
      return Filter().and_(eq("feed", static_cast<std::int64_t>(index % 4)));
    case 1:
      return Filter().and_(ge("feed", static_cast<std::int64_t>(2)));
    case 2:
      return Filter().and_(prefix("topic", index % 2 ? "news" : "sport"));
    case 3:
      return Filter().and_(contains("text", kWords[index % kWords.size()]));
    case 4:
      return Filter()
          .and_(eq("feed", static_cast<std::int64_t>(index % 4)))
          .and_(contains("text", kWords[(index + 3) % kWords.size()]));
    default:
      return Filter().and_(exists("feed"));
  }
}

/// Non-neutral specs for the scored run: BM25 over the text with top-k
/// and min-score cuts, plus a constant-policy top-1.
ScoringSpec pool_spec(std::size_t index) {
  ScoringSpec spec;
  switch (index % 4) {
    case 0:
      spec.policy = ScoringPolicy::kBm25;
      spec.query = {{kWords[index % kWords.size()], 1.0},
                    {kWords[(index + 1) % kWords.size()], 0.5}};
      spec.text_attrs = {"text"};
      spec.top_k = 1;
      break;
    case 1:
      spec.policy = ScoringPolicy::kBm25;
      spec.query = {{kWords[index % kWords.size()], 2.0}};
      spec.text_attrs = {"text", "topic"};
      spec.top_k = 2;
      spec.min_score = 0.01;
      break;
    case 2:
      spec.top_k = 1;  // constant score: ties break by event order
      break;
    default:
      break;  // neutral
  }
  return spec;
}

Event make_event(util::Rng& rng) {
  std::string text;
  const std::size_t words = 1 + rng.index(4);
  for (std::size_t w = 0; w < words; ++w) {
    if (w != 0) text += ' ';
    text += kWords[rng.index(kWords.size())];
  }
  // One draw per statement: the order of draws inside one expression is
  // unspecified, and the pinned digests need it fixed.
  const auto feed = static_cast<std::int64_t>(rng.index(4));
  std::string topic = rng.index(2) ? "news/" : "sport/";
  topic += kWords[rng.index(kWords.size())];
  return Event()
      .with("feed", feed)
      .with("topic", std::move(topic))
      .with("text", std::move(text));
}

struct TraceDigest {
  std::uint64_t deliveries = 0;
  std::uint64_t messages = 0;
  std::uint64_t hash = 0;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t value) {
  return util::hash_combine(h, value);
}

TraceDigest run_scenario(Mode mode) {
  sim::Simulator sim;
  sim::Network::Config net_config;
  net_config.default_latency = sim::kMillisecond;
  net_config.jitter_fraction = 0.5;
  net_config.seed = 1406;
  sim::Network net(sim, net_config);
  util::Rng rng(20061406);
  Overlay overlay =
      Overlay::random_tree(sim, net, 6, rng, broker_config(mode));

  TraceDigest digest;
  digest.hash = util::fnv1a64("pubsub-delivery-trace");
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::vector<SubscriptionId>> subs;
  const auto record = [&sim, &digest](sim::NodeId client, const Event& event,
                                      SubscriptionId sub, double score) {
    ++digest.deliveries;
    digest.hash = mix(digest.hash, static_cast<std::uint64_t>(sim.now()));
    digest.hash = mix(digest.hash, client);
    digest.hash = mix(digest.hash, event.id());
    digest.hash = mix(digest.hash, sub);
    // Quantized so a last-bit libm difference cannot flip the pin.
    digest.hash = mix(digest.hash, static_cast<std::uint64_t>(
                                       std::llround(score * 1e9)));
  };
  const auto subscribe = [&](std::size_t c, std::size_t pool_index) {
    Client& client = *clients[c];
    const sim::NodeId id = client.id();
    const ScoringSpec spec =
        mode == Mode::kScored ? pool_spec(pool_index) : ScoringSpec{};
    subs[c].push_back(client.subscribe_scored(
        pool_filter(pool_index), spec,
        [id, &record](const Event& event, SubscriptionId sub, double score) {
          record(id, event, sub, score);
        }));
  };

  for (std::size_t c = 0; c < 12; ++c) {
    clients.push_back(
        std::make_unique<Client>(sim, net, "c" + std::to_string(c)));
    clients.back()->connect(overlay.broker(rng.index(overlay.size())));
    subs.emplace_back();
    const std::size_t n_subs = 2 + rng.index(4);
    for (std::size_t s = 0; s < n_subs; ++s) subscribe(c, rng.index(24));
  }
  std::vector<std::unique_ptr<Client>> publishers;
  for (std::size_t p = 0; p < 3; ++p) {
    publishers.push_back(
        std::make_unique<Client>(sim, net, "p" + std::to_string(p)));
    publishers.back()->connect(overlay.broker(rng.index(overlay.size())));
  }
  sim.run_until(sim.now() + sim::kSecond);

  for (int round = 0; round < 40; ++round) {
    for (auto& publisher : publishers) {
      const std::size_t n_events = 1 + rng.index(6);  // 1 = unbatched publish
      std::vector<Event> events;
      for (std::size_t e = 0; e < n_events; ++e) {
        events.push_back(make_event(rng));
      }
      publisher->publish_batch(std::move(events));
      sim.run_until(sim.now() + rng.index(3) * sim::kMillisecond);
    }
    if (round % 8 == 7) {  // churn: retract one subscription, place another
      const std::size_t c = rng.index(clients.size());
      if (!subs[c].empty()) {
        clients[c]->unsubscribe(subs[c].front());
        subs[c].erase(subs[c].begin());
      }
      subscribe(c, rng.index(24));
    }
    sim.run_until(sim.now() + 2 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + sim::kSecond);

  digest.messages = net.total_messages();
  for (const auto* counter :
       {&net.messages_by_type(), &net.bytes_by_type(), &net.units_by_type()}) {
    for (const auto& [type, count] : counter->items()) {
      digest.hash = mix(digest.hash, util::fnv1a64(type));
      digest.hash = mix(digest.hash, count);
    }
  }
  return digest;
}

struct Pinned {
  Mode mode;
  const char* name;
  TraceDigest expected;
};

void PrintTo(const Pinned& pinned, std::ostream* os) { *os << pinned.name; }

class DeliveryTrace : public ::testing::TestWithParam<Pinned> {};

TEST_P(DeliveryTrace, MatchesPinnedDigest) {
  const Pinned& pinned = GetParam();
  const TraceDigest actual = run_scenario(pinned.mode);
  // A rerun in the same process must agree: nothing process-global (the
  // attribute table, event copy counters) may leak into broker output.
  const TraceDigest again = run_scenario(pinned.mode);
  EXPECT_EQ(again.hash, actual.hash) << pinned.name;
  EXPECT_GT(actual.deliveries, 0u) << pinned.name;
  EXPECT_EQ(actual.deliveries, pinned.expected.deliveries) << pinned.name;
  EXPECT_EQ(actual.messages, pinned.expected.messages) << pinned.name;
  EXPECT_EQ(actual.hash, pinned.expected.hash)
      << pinned.name << ": actual {" << actual.deliveries << "u, "
      << actual.messages << "u, 0x" << std::hex << actual.hash << "ULL}";
}

INSTANTIATE_TEST_SUITE_P(
    Broker, DeliveryTrace,
    ::testing::Values(
        Pinned{Mode::kBatched, "batched",
               {7125u, 1637u, 0x25b471b8fb4b7192ULL}},
        Pinned{Mode::kUnbatched, "unbatched",
               {7131u, 5604u, 0xfc43b18f9e257481ULL}},
        Pinned{Mode::kFlushBudget, "flush_budget",
               {7126u, 2489u, 0x77b126c57a0ec44eULL}},
        Pinned{Mode::kScored, "scored_topk",
               {4565u, 1618u, 0x51ed3ca0aa0ace49ULL}}),
    [](const ::testing::TestParamInfo<Pinned>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace reef::pubsub
