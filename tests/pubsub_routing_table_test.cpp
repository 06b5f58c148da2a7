// RoutingTable in isolation: covering-pruned forwarding diffs, unsubscribe
// retraction, replace semantics, and destination resolution — no simulated
// network involved.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "pubsub/matcher_registry.h"
#include "pubsub/routing_table.h"
#include "util/rng.h"

namespace reef::pubsub {
namespace {

constexpr RoutingTable::IfaceId kNeighbor = 100;
constexpr RoutingTable::IfaceId kOtherNeighbor = 101;
constexpr RoutingTable::IfaceId kClient = 200;

Filter feed(const std::string& url) {
  return Filter().and_(eq("stream", "feed")).and_(eq("feed", url));
}

Filter broad() { return Filter().and_(eq("stream", "feed")); }

std::vector<std::string> keys(const std::vector<Filter>& filters) {
  std::vector<std::string> out;
  for (const auto& f : filters) out.push_back(f.key());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RoutingTable, RefreshForwardsNewClientSubscription) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.client_subscribe(kClient, 1, feed("http://x/a"));
  auto diff = table.refresh(kNeighbor);
  ASSERT_EQ(diff.subscribe.size(), 1u);
  EXPECT_TRUE(diff.unsubscribe.empty());
  EXPECT_EQ(diff.subscribe[0], feed("http://x/a"));
  EXPECT_EQ(table.forwarded_size(kNeighbor), 1u);

  // A second refresh with no state change is a no-op diff.
  EXPECT_TRUE(table.refresh(kNeighbor).empty());
}

TEST(RoutingTable, CoveringPrunesNarrowFilters) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.client_subscribe(kClient, 1, broad());
  table.client_subscribe(kClient, 2, feed("http://x/a"));
  table.client_subscribe(kClient, 3, feed("http://x/b"));
  auto diff = table.refresh(kNeighbor);
  // Only the broad filter crosses; the narrow ones are covered.
  ASSERT_EQ(diff.subscribe.size(), 1u);
  EXPECT_EQ(diff.subscribe[0], broad());
  EXPECT_EQ(table.forwarded_size(kNeighbor), 1u);
  EXPECT_EQ(table.size(), 3u);
}

TEST(RoutingTable, CoveringDisabledForwardsEverything) {
  RoutingTable table(
      RoutingTable::Config{/*covering_enabled=*/false, "anchor-index"});
  table.add_broker_iface(kNeighbor);
  table.client_subscribe(kClient, 1, broad());
  table.client_subscribe(kClient, 2, feed("http://x/a"));
  auto diff = table.refresh(kNeighbor);
  EXPECT_EQ(diff.subscribe.size(), 2u);
  EXPECT_EQ(table.forwarded_size(kNeighbor), 2u);
}

TEST(RoutingTable, UnsubscribeDiffRetractsAndUncovers) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.client_subscribe(kClient, 1, broad());
  table.client_subscribe(kClient, 2, feed("http://x/a"));
  table.refresh(kNeighbor);

  // Retracting the broad filter must unsubscribe it and re-expose the
  // narrow one in the same diff.
  EXPECT_TRUE(table.client_unsubscribe(kClient, 1));
  auto diff = table.refresh(kNeighbor);
  EXPECT_EQ(keys(diff.unsubscribe), keys({broad()}));
  EXPECT_EQ(keys(diff.subscribe), keys({feed("http://x/a")}));
  EXPECT_EQ(table.forwarded_size(kNeighbor), 1u);

  // Retracting the last filter drains the forwarded set.
  EXPECT_TRUE(table.client_unsubscribe(kClient, 2));
  diff = table.refresh(kNeighbor);
  EXPECT_TRUE(diff.subscribe.empty());
  EXPECT_EQ(diff.unsubscribe.size(), 1u);
  EXPECT_EQ(table.forwarded_size(kNeighbor), 0u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(RoutingTable, UnknownUnsubscribeIsRejected) {
  RoutingTable table;
  EXPECT_FALSE(table.client_unsubscribe(kClient, 99));
  EXPECT_FALSE(table.broker_unsubscribe(kNeighbor, broad()));
}

TEST(RoutingTable, ClientResubscribeReplacesExistingId) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.client_subscribe(kClient, 1, feed("http://x/a"));
  table.refresh(kNeighbor);
  // Re-adding the same sub id swaps the filter in place: table size stays
  // 1 and the next diff retracts the old filter, subscribes the new one.
  table.client_subscribe(kClient, 1, feed("http://x/b"));
  EXPECT_EQ(table.size(), 1u);
  auto diff = table.refresh(kNeighbor);
  EXPECT_EQ(keys(diff.subscribe), keys({feed("http://x/b")}));
  EXPECT_EQ(keys(diff.unsubscribe), keys({feed("http://x/a")}));
}

TEST(RoutingTable, BrokerResubscribeIsIdempotent) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  EXPECT_TRUE(table.broker_subscribe(kNeighbor, feed("http://x/a")));
  EXPECT_FALSE(table.broker_subscribe(kNeighbor, feed("http://x/a")));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.broker_unsubscribe(kNeighbor, feed("http://x/a")));
  EXPECT_EQ(table.size(), 0u);
}

TEST(RoutingTable, NeighborFilterNotEchoedBackInItsOwnRefresh) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.add_broker_iface(kOtherNeighbor);
  table.broker_subscribe(kNeighbor, feed("http://x/a"));
  // Never offered back to its source...
  EXPECT_TRUE(table.refresh(kNeighbor).empty());
  // ...but propagated to the other neighbor.
  auto diff = table.refresh(kOtherNeighbor);
  EXPECT_EQ(keys(diff.subscribe), keys({feed("http://x/a")}));
}

TEST(RoutingTable, MatchResolvesDestinations) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.client_subscribe(kClient, 7, feed("http://x/a"));
  table.broker_subscribe(kNeighbor, broad());

  std::vector<RoutingTable::Destination> hits;
  table.match(Event().with("stream", "feed").with("feed", "http://x/a"),
              hits);
  ASSERT_EQ(hits.size(), 2u);
  const auto client_hit = std::find_if(
      hits.begin(), hits.end(),
      [](const RoutingTable::Destination& d) { return !d.is_broker; });
  const auto broker_hit = std::find_if(
      hits.begin(), hits.end(),
      [](const RoutingTable::Destination& d) { return d.is_broker; });
  ASSERT_NE(client_hit, hits.end());
  ASSERT_NE(broker_hit, hits.end());
  EXPECT_EQ(client_hit->iface, kClient);
  EXPECT_EQ(client_hit->client_sub, 7u);
  EXPECT_EQ(broker_hit->iface, kNeighbor);
}

TEST(RoutingTable, MatchBatchAgreesWithPerEventMatch) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.client_subscribe(kClient, 1, feed("http://x/a"));
  table.client_subscribe(kClient, 2, broad());
  table.broker_subscribe(kNeighbor, Filter().and_(gt("price", 10)));

  std::vector<Event> events;
  events.push_back(Event().with("stream", "feed").with("feed", "http://x/a"));
  events.push_back(Event().with("stream", "feed").with("feed", "http://x/b"));
  events.push_back(Event().with("price", 25));
  events.push_back(Event().with("price", 5));

  std::vector<std::vector<RoutingTable::Destination>> batched;
  table.match_batch(events, batched);
  ASSERT_EQ(batched.size(), events.size());
  auto sig = [](std::vector<RoutingTable::Destination> hits) {
    std::vector<std::tuple<RoutingTable::IfaceId, bool, SubscriptionId>> out;
    for (const auto& d : hits) out.emplace_back(d.iface, d.is_broker, d.client_sub);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::vector<RoutingTable::Destination> single;
    table.match(events[i], single);
    EXPECT_EQ(sig(batched[i]), sig(single)) << "event " << i;
  }
}

// --- incremental covering vs the full-recompute oracle ----------------------

Filter churn_filter(util::Rng& rng) {
  // The Reef-like population the covering index targets: per-feed
  // equality subscriptions (massively redundant attributes, distinct
  // values), broad stream filters that cover them, price ranges, prefix
  // content filters, and the occasional universal subscription.
  switch (rng.index(6)) {
    case 0:
    case 1:
    case 2:
      return feed("http://s" + std::to_string(rng.index(200)) + "/f");
    case 3:
      return rng.chance(0.05)
                 ? broad()
                 : Filter().and_(eq("stream", "quotes"))
                       .and_(ge("price", static_cast<double>(rng.index(50))));
    case 4:
      return Filter().and_(prefix(
          "feed", "http://s" + std::to_string(rng.index(20))));
    default:
      return rng.chance(0.02) ? Filter()
                              : Filter().and_(exists("price")).and_(lt(
                                    "price",
                                    static_cast<double>(rng.index(80))));
  }
}

std::vector<std::string> diff_signature(const RoutingTable::Diff& diff) {
  std::vector<std::string> sig;
  sig.reserve(diff.subscribe.size() + diff.unsubscribe.size() + 1);
  for (const Filter& f : diff.subscribe) sig.push_back("+" + f.key());
  sig.push_back("|");
  for (const Filter& f : diff.unsubscribe) sig.push_back("-" + f.key());
  return sig;
}

/// The diff the full recompute predicts for a neighbor whose forwarded
/// keys are `shadow`: what the oracle wants and the shadow lacks, then
/// what the shadow holds and the oracle dropped, each in key order. Also
/// moves `shadow` to the oracle's set.
std::vector<std::string> oracle_diff(const RoutingTable& table,
                                     RoutingTable::IfaceId neighbor,
                                     std::set<std::string>& shadow) {
  const auto want = table.full_recompute(neighbor);
  std::vector<std::string> sig;
  for (const auto& [key, filter] : want) {
    if (!shadow.contains(key)) sig.push_back("+" + key);
  }
  sig.push_back("|");
  for (const std::string& key : shadow) {
    if (!want.contains(key)) sig.push_back("-" + key);
  }
  shadow.clear();
  for (const auto& [key, filter] : want) shadow.insert(key);
  return sig;
}

/// Regression gate for the incremental covering control plane: a table
/// under 1k-filter churn must hand every neighbor exactly the diffs that
/// recomputing its forwarded set from the whole table predicts.
TEST(RoutingTable, IncrementalRefreshMatchesFullRecomputeUnder1kChurn) {
  util::Rng rng(0xc0ffee);
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.add_broker_iface(kOtherNeighbor);
  std::map<RoutingTable::IfaceId, std::set<std::string>> shadow;

  std::vector<SubscriptionId> live;
  SubscriptionId next_id = 1;
  std::size_t added = 0;
  int checked_diffs = 0;
  for (int round = 0; round < 80; ++round) {
    // Churn burst: additions dominate until 1k filters went in, then the
    // mix turns removal-only so covering filters get retracted and the
    // filters they covered resurface in the diffs.
    for (int step = 0; step < 20; ++step) {
      const bool add = added < 1000 && (live.empty() || rng.chance(0.75));
      if (add) {
        // Client interface derived from the id so the unsubscribe below
        // can reconstruct the same (client, id) pair.
        const RoutingTable::IfaceId client = 300 + next_id % 4;
        table.client_subscribe(client, next_id, churn_filter(rng));
        live.push_back(next_id);
        ++next_id;
        ++added;
      } else if (!live.empty()) {
        const std::size_t idx = rng.index(live.size());
        const RoutingTable::IfaceId client = 300 + live[idx] % 4;
        EXPECT_TRUE(table.client_unsubscribe(client, live[idx]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    }
    for (const auto neighbor : {kNeighbor, kOtherNeighbor}) {
      const auto expected = oracle_diff(table, neighbor, shadow[neighbor]);
      const auto got = diff_signature(table.refresh(neighbor));
      ASSERT_EQ(got, expected) << "round " << round << " neighbor " << neighbor;
      if (got.size() > 1) ++checked_diffs;
      EXPECT_EQ(table.forwarded_size(neighbor), shadow[neighbor].size());
    }
  }
  EXPECT_EQ(added, 1000u);
  EXPECT_GT(checked_diffs, 10);  // the churn actually produced diffs

  // Final direct check: a fresh neighbor's first refresh carries the
  // complete covering-minimal form of the final population, so the whole
  // set is compared, not just the churn deltas.
  constexpr RoutingTable::IfaceId kFreshNeighbor = 150;
  table.add_broker_iface(kFreshNeighbor);
  std::set<std::string> fresh;
  const auto expected = oracle_diff(table, kFreshNeighbor, fresh);
  const auto full = diff_signature(table.refresh(kFreshNeighbor));
  EXPECT_GT(full.size(), 1u);
  EXPECT_EQ(full, expected);
}

/// Adversarial shapes the churn mix may miss — equivalent filters
/// (canonical-representative tie-break), chains of mutual covering,
/// universal filters — added one by one through the incremental path and
/// then retracted one by one, each refresh compared with the
/// full-recompute oracle (minimal_cover_naive over the table).
TEST(RoutingTable, IncrementalCoverEqualsNaiveOnEdgeCases) {
  const auto run = [](const std::vector<Filter>& filters) {
    RoutingTable table;
    table.add_broker_iface(kNeighbor);
    std::set<std::string> shadow;
    const auto check = [&](const std::string& step) {
      const auto expected = oracle_diff(table, kNeighbor, shadow);
      EXPECT_EQ(diff_signature(table.refresh(kNeighbor)), expected) << step;
    };
    for (std::size_t i = 0; i < filters.size(); ++i) {
      table.client_subscribe(kClient, i + 1, filters[i]);
      check("add " + filters[i].key());
    }
    const auto cover = table.forwarded_filters(kNeighbor);
    for (std::size_t i = 0; i < filters.size(); ++i) {
      EXPECT_TRUE(table.client_unsubscribe(kClient, i + 1));
      check("remove " + filters[i].key());
    }
    EXPECT_EQ(table.forwarded_size(kNeighbor), 0u);
    return cover;
  };

  // Universal filter covers everything (and survives alone).
  auto cover = run({Filter(), broad(), feed("http://x/a")});
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_TRUE(cover.front().empty());

  // Cross-type numeric equality: eq(p, 3) and eq(p, 3.0) are equivalent
  // but have distinct keys — exactly one survives, via the tie-break.
  cover = run({Filter().and_(eq("p", 3)), Filter().and_(eq("p", 3.0))});
  EXPECT_EQ(cover.size(), 1u);

  // Range chains: ge 10 covers ge 20 covers ge 30.
  cover = run({Filter().and_(ge("p", 30.0)), Filter().and_(ge("p", 20.0)),
               Filter().and_(ge("p", 10.0))});
  EXPECT_EQ(cover.size(), 1u);

  // Prefix covers longer prefix and equality; exists covers them all.
  cover = run({Filter().and_(prefix("u", "http://a")),
               Filter().and_(prefix("u", "http://a/b")),
               Filter().and_(eq("u", "http://a/b/c")),
               Filter().and_(exists("u"))});
  EXPECT_EQ(cover.size(), 1u);

  // Empty sets match nothing, so every filter on the attribute covers
  // them; ne(s, C) covers both the equality and the set.
  cover = run({Filter().and_(in_("s", {})), Filter().and_(eq("s", "A")),
               Filter().and_(in_("s", {Value("A"), Value("B")})),
               Filter().and_(ne("s", "C"))});
  EXPECT_EQ(cover.size(), 1u);

  // Incomparable mix stays intact.
  cover = run({feed("http://x/a"), feed("http://x/b"),
               Filter().and_(ge("price", 5.0))});
  EXPECT_EQ(cover.size(), 3u);
}

TEST(RoutingTable, RetractingUniversalFilterResurfacesCoveredInKeyOrder) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  const std::vector<Filter> narrow = {feed("http://x/c"), feed("http://x/a"),
                                      Filter().and_(ge("price", 5.0)),
                                      feed("http://x/b")};
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    table.client_subscribe(kClient, i + 1, narrow[i]);
  }
  table.client_subscribe(kClient, 99, Filter());
  auto diff = table.refresh(kNeighbor);
  ASSERT_EQ(diff.subscribe.size(), 1u);
  EXPECT_TRUE(diff.subscribe.front().empty());

  EXPECT_TRUE(table.client_unsubscribe(kClient, 99));
  diff = table.refresh(kNeighbor);
  ASSERT_EQ(diff.unsubscribe.size(), 1u);
  EXPECT_TRUE(diff.unsubscribe.front().empty());
  // Every covered filter resurfaces in one diff, sorted by key.
  std::vector<std::string> got;
  for (const Filter& f : diff.subscribe) got.push_back(f.key());
  EXPECT_EQ(got, keys(narrow));
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_EQ(table.forwarded_size(kNeighbor), narrow.size());
}

TEST(RoutingTable, RemovingCanonicalRepresentativeForwardsEquivalent) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  const Filter as_int = Filter().and_(eq("level", 1));
  const Filter as_double = Filter().and_(eq("level", 1.0));
  ASSERT_NE(as_int.key(), as_double.key());
  ASSERT_TRUE(as_int.covers(as_double));
  ASSERT_TRUE(as_double.covers(as_int));
  const Filter& first = as_int.key() < as_double.key() ? as_int : as_double;
  const Filter& second = as_int.key() < as_double.key() ? as_double : as_int;
  table.client_subscribe(kClient, 1, first);
  table.client_subscribe(kClient, 2, second);
  auto diff = table.refresh(kNeighbor);
  // Mutually covering: only the key-smaller representative crosses.
  EXPECT_EQ(keys(diff.subscribe), keys({first}));

  EXPECT_TRUE(table.client_unsubscribe(kClient, 1));
  diff = table.refresh(kNeighbor);
  EXPECT_EQ(keys(diff.unsubscribe), keys({first}));
  EXPECT_EQ(keys(diff.subscribe), keys({second}));
}

TEST(RoutingTable, KeyHeldOnTwoInterfacesStaysVisibleToEach) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.add_broker_iface(kOtherNeighbor);
  const Filter f = feed("http://x/a");
  EXPECT_TRUE(table.broker_subscribe(kNeighbor, f));
  EXPECT_TRUE(table.broker_subscribe(kOtherNeighbor, f));
  // Each neighbor sees the copy the other one holds.
  EXPECT_EQ(keys(table.refresh(kNeighbor).subscribe), keys({f}));
  EXPECT_EQ(keys(table.refresh(kOtherNeighbor).subscribe), keys({f}));

  // kNeighbor retracts: kOtherNeighbor no longer sees it (its only holder
  // is itself), kNeighbor still does.
  EXPECT_TRUE(table.broker_unsubscribe(kNeighbor, f));
  EXPECT_TRUE(table.refresh(kNeighbor).empty());
  EXPECT_EQ(keys(table.refresh(kOtherNeighbor).unsubscribe), keys({f}));

  // And the mirror image.
  EXPECT_TRUE(table.broker_subscribe(kNeighbor, f));
  EXPECT_EQ(keys(table.refresh(kOtherNeighbor).subscribe), keys({f}));
  EXPECT_TRUE(table.broker_unsubscribe(kOtherNeighbor, f));
  EXPECT_EQ(keys(table.refresh(kNeighbor).unsubscribe), keys({f}));
  EXPECT_TRUE(table.refresh(kOtherNeighbor).empty());
  EXPECT_EQ(table.forwarded_size(kNeighbor), 0u);
  EXPECT_EQ(table.forwarded_size(kOtherNeighbor), 1u);
}

TEST(RoutingTable, DropBrokerIfaceStateResendsFullSetOnNextRefresh) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.add_broker_iface(kOtherNeighbor);
  table.client_subscribe(kClient, 1, feed("http://x/a"));
  table.client_subscribe(kClient, 2, feed("http://x/b"));
  table.broker_subscribe(kOtherNeighbor, Filter().and_(ge("price", 5.0)));
  table.broker_subscribe(kNeighbor, Filter().and_(ge("price", 1.0)));
  const auto first = diff_signature(table.refresh(kNeighbor));
  ASSERT_EQ(first.size(), 4u);  // two feeds, ge(price, 5), separator
  EXPECT_TRUE(table.refresh(kNeighbor).empty());
  table.refresh(kOtherNeighbor);
  const std::uint64_t digest = table.forwarded_digest(kNeighbor);
  ASSERT_NE(digest, 0u);

  // The neighbor restarted: its filters and what we forwarded it are void.
  EXPECT_TRUE(table.drop_broker_iface_state(kNeighbor));
  EXPECT_EQ(table.forwarded_size(kNeighbor), 0u);
  EXPECT_EQ(table.forwarded_digest(kNeighbor), 0u);
  // The next refresh re-sends the whole desired set, nothing to retract.
  EXPECT_EQ(diff_signature(table.refresh(kNeighbor)), first);
  EXPECT_EQ(table.forwarded_digest(kNeighbor), digest);
  // The other neighbor loses the dropped ge(price, 1).
  const auto other = table.refresh(kOtherNeighbor);
  EXPECT_TRUE(other.subscribe.empty());
  EXPECT_EQ(keys(other.unsubscribe), keys({Filter().and_(ge("price", 1.0))}));
}

TEST(RoutingTable, EngineSelectedThroughRegistry) {
  for (const auto& engine : MatcherRegistry::instance().names()) {
    RoutingTable table(RoutingTable::Config{true, engine});
    EXPECT_EQ(table.matcher().name(), engine);
    table.client_subscribe(kClient, 1, feed("http://x/a"));
    std::vector<RoutingTable::Destination> hits;
    table.match(Event().with("stream", "feed").with("feed", "http://x/a"),
                hits);
    EXPECT_EQ(hits.size(), 1u) << engine;
  }
  EXPECT_THROW(
      RoutingTable(RoutingTable::Config{true, "no-such-engine"}),
      std::invalid_argument);
}

}  // namespace
}  // namespace reef::pubsub
