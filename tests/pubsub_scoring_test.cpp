// Unit tier for the scored-matching layer (pubsub/scoring.h): ScoringSpec
// neutrality/wire/hash semantics, score_event purity and the corpus-free
// BM25 formula, TopKSelector's deterministic tie-breaking, the scored
// decoration of every registry engine's match_batch (including sub-batch
// view composition), and small end-to-end broker runs composing the
// min_score threshold with the top-k cut. The differential fuzz harness
// (tests/pubsub_differential_fuzz_test.cpp, level 5) covers the same
// contract at scale; this file pins the boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <string>
#include <vector>

#include "pubsub/client.h"
#include "pubsub/matcher.h"
#include "pubsub/matcher_registry.h"
#include "pubsub/overlay.h"
#include "pubsub/scoring.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace reef::pubsub {
namespace {

ScoringSpec bm25_spec(std::vector<ir::ScoredTerm> query,
                      std::vector<std::string> attrs,
                      std::uint32_t top_k = 0, double min_score = 0.0) {
  ScoringSpec spec;
  spec.policy = ScoringPolicy::kBm25;
  spec.query = std::move(query);
  spec.text_attrs = std::move(attrs);
  spec.top_k = top_k;
  spec.min_score = min_score;
  return spec;
}

// --- ScoringSpec -------------------------------------------------------------

TEST(ScoringSpec, DefaultIsNeutralWithZeroWireAndHash) {
  const ScoringSpec spec;
  EXPECT_TRUE(spec.neutral());
  EXPECT_EQ(spec.wire_size(), 0u);
  EXPECT_EQ(spec.hash(), 0u);
}

TEST(ScoringSpec, AnySuppressionKnobBreaksNeutrality) {
  ScoringSpec k;
  k.top_k = 1;
  EXPECT_FALSE(k.neutral());
  ScoringSpec threshold;
  threshold.min_score = 0.5;
  EXPECT_FALSE(threshold.neutral());
  ScoringSpec bm25 = bm25_spec({{"a", 1.0}}, {"text"});
  EXPECT_FALSE(bm25.neutral());
  for (const ScoringSpec& spec : {k, threshold, bm25}) {
    EXPECT_GT(spec.wire_size(), 0u) << spec.summary();
    EXPECT_NE(spec.hash(), 0u) << spec.summary();
  }
}

TEST(ScoringSpec, HashDistinguishesContent) {
  const ScoringSpec a = bm25_spec({{"news", 1.5}}, {"title"}, 2, 0.5);
  ScoringSpec b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.top_k = 3;
  EXPECT_NE(a.hash(), b.hash());
  ScoringSpec c = a;
  c.query[0].score = 2.5;
  EXPECT_NE(a.hash(), c.hash());
}

TEST(ScoringSpec, SummaryNamesPolicyAndKnobs) {
  const ScoringSpec spec = bm25_spec({{"news", 1.5}}, {"title"}, 2, 0.5);
  const std::string summary = spec.summary();
  EXPECT_NE(summary.find("bm25"), std::string::npos) << summary;
  EXPECT_NE(summary.find("k=2"), std::string::npos) << summary;
  EXPECT_NE(summary.find("news"), std::string::npos) << summary;
}

// --- score_event -------------------------------------------------------------

TEST(ScoreEvent, ConstantPolicyScoresConstant) {
  ScoringSpec spec;  // constant, even with knobs set
  spec.top_k = 1;
  spec.min_score = 0.25;
  EXPECT_EQ(score_event(spec, Event()), kConstantScore);
  EXPECT_EQ(score_event(spec, Event().with("text", "log log log")),
            kConstantScore);
}

TEST(ScoreEvent, Bm25ZeroWithoutTokenizableText) {
  const ScoringSpec spec = bm25_spec({{"log", 1.0}}, {"text"});
  EXPECT_EQ(score_event(spec, Event()), 0.0);
  EXPECT_EQ(score_event(spec, Event().with("other", "log")), 0.0);
  // Non-string values under a designated attribute contribute nothing.
  EXPECT_EQ(score_event(spec, Event().with("text", std::int64_t{42})), 0.0);
  // Tokens below the tokenizer's minimum length vanish too.
  EXPECT_EQ(score_event(spec, Event().with("text", "a b c")), 0.0);
}

TEST(ScoreEvent, Bm25MonotoneInTermFrequency) {
  const ScoringSpec spec = bm25_spec({{"log", 1.0}}, {"text"});
  const double tf1 = score_event(spec, Event().with("text", "log"));
  const double tf3 = score_event(spec, Event().with("text", "log log log"));
  EXPECT_GT(tf1, 0.0);
  EXPECT_GT(tf3, tf1);
}

TEST(ScoreEvent, Bm25QueryWeightsScaleAndClamp) {
  const Event event = Event().with("text", "log");
  const double w1 = score_event(bm25_spec({{"log", 1.0}}, {"text"}), event);
  const double w2 = score_event(bm25_spec({{"log", 2.0}}, {"text"}), event);
  EXPECT_EQ(w2, 2.0 * w1);
  // Negative weights clamp to zero contribution (ir::Bm25 weighted rule).
  EXPECT_EQ(score_event(bm25_spec({{"log", -3.0}}, {"text"}), event), 0.0);
}

TEST(ScoreEvent, Bm25DesignatedAttributesFormOneBag) {
  // Two designated attributes concatenate into one bag of words: same
  // token multiset, same score as a single attribute holding both.
  const ScoringSpec split = bm25_spec({{"log", 1.0}}, {"body", "title"});
  const ScoringSpec joined = bm25_spec({{"log", 1.0}}, {"text"});
  const double split_score = score_event(
      split, Event().with("title", "log").with("body", "log feed"));
  const double joined_score =
      score_event(joined, Event().with("text", "log log feed"));
  EXPECT_EQ(split_score, joined_score);
}

TEST(ScoreEvent, DeterministicAcrossCalls) {
  const ScoringSpec spec =
      bm25_spec({{"log", 1.3}, {"feed", 0.7}}, {"text", "file"});
  const Event event =
      Event().with("text", "log feed log").with("file", "a.log");
  const double first = score_event(spec, event);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(score_event(spec, event), first);  // bitwise, not approx
  }
}

// --- TopKSelector ------------------------------------------------------------

std::vector<std::uint32_t> offer_all(
    std::uint32_t k, const std::vector<std::pair<double, std::uint32_t>>& c) {
  TopKSelector topk(k);
  for (const auto& [score, order] : c) topk.offer(score, order);
  std::vector<std::uint32_t> orders;
  topk.take(orders);
  return orders;
}

TEST(TopKSelector, ZeroMeansUnlimited) {
  EXPECT_EQ(offer_all(0, {{0.1, 3}, {0.9, 1}, {0.5, 2}, {0.7, 0}}),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(TopKSelector, KLargerThanCandidateCountKeepsAll) {
  EXPECT_EQ(offer_all(10, {{0.1, 2}, {0.9, 0}}),
            (std::vector<std::uint32_t>{0, 2}));
}

TEST(TopKSelector, KeepsHighestScoresInEventOrder) {
  // Winners are 1 (0.9) and 3 (0.8); output is event order, never score
  // order.
  EXPECT_EQ(offer_all(2, {{0.2, 0}, {0.9, 1}, {0.1, 2}, {0.8, 3}}),
            (std::vector<std::uint32_t>{1, 3}));
}

TEST(TopKSelector, DuplicateScoresAtCutKeepEarliestOrders) {
  EXPECT_EQ(offer_all(2, {{0.5, 0}, {0.5, 1}, {0.5, 2}}),
            (std::vector<std::uint32_t>{0, 1}));
  // Offer order must not matter: same candidates, reversed arrival.
  EXPECT_EQ(offer_all(2, {{0.5, 2}, {0.5, 1}, {0.5, 0}}),
            (std::vector<std::uint32_t>{0, 1}));
}

TEST(TopKSelector, TieAgainstHigherScoreResolvesByOrder) {
  // 1 wins outright (0.9); the 0-vs-2 tie at 0.5 resolves to 0.
  EXPECT_EQ(offer_all(2, {{0.5, 0}, {0.9, 1}, {0.5, 2}}),
            (std::vector<std::uint32_t>{0, 1}));
}

TEST(TopKSelector, OfferOrderInsensitive) {
  std::vector<std::pair<double, std::uint32_t>> cands = {
      {0.5, 0}, {0.9, 1}, {0.5, 2}, {0.1, 3}};
  std::sort(cands.begin(), cands.end());
  const std::vector<std::uint32_t> expected = {0, 1};
  do {
    EXPECT_EQ(offer_all(2, cands), expected);
  } while (std::next_permutation(cands.begin(), cands.end()));
}

TEST(TopKSelector, TakeEmptiesTheSelectorAndResetRearmsIt) {
  TopKSelector topk(1);
  std::vector<std::uint32_t> orders = {99};  // take replaces, not appends
  topk.offer(0.9, 7);
  topk.take(orders);
  EXPECT_EQ(orders, (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(topk.size(), 0u);
  topk.offer(0.1, 3);
  topk.take(orders);
  EXPECT_EQ(orders, (std::vector<std::uint32_t>{3}));
  // One selector serves window after window: reset drops what was
  // offered and sets the next window's k.
  topk.offer(0.5, 1);
  topk.reset(2);
  EXPECT_EQ(topk.size(), 0u);
  for (const std::uint32_t order : {4u, 5u, 6u}) topk.offer(0.5, order);
  topk.take(orders);
  EXPECT_EQ(orders, (std::vector<std::uint32_t>{4, 5}));
}

// --- match_batch_scored across the engine registry ---------------------------

std::vector<ScoredHit> sorted_hits(std::vector<ScoredHit> hits) {
  std::sort(hits.begin(), hits.end(),
            [](const ScoredHit& a, const ScoredHit& b) { return a.id < b.id; });
  return hits;
}

TEST(MatchBatchScored, DecoratesEveryRegistryEngine) {
  const ScoringSpec spec = bm25_spec({{"log", 1.0}}, {"text"}, 1, 0.0);
  const std::vector<Event> events = {
      Event().with("hot", std::int64_t{1}).with("text", "log"),
      Event().with("hot", std::int64_t{0}),
      Event().with("hot", std::int64_t{1}).with("text", "log log"),
  };
  for (const auto& name : MatcherRegistry::instance().names()) {
    auto engine = make_matcher(name);
    engine->add(1, Filter().and_(eq("hot", std::int64_t{1})));
    engine->add(2, Filter());  // universal, no spec: scores constant
    ScoringIndex scoring;
    scoring.set(1, spec);

    std::vector<std::vector<ScoredHit>> scored;
    engine->match_batch_scored(events, scoring, scored);
    ASSERT_EQ(scored.size(), events.size()) << name;

    std::vector<std::vector<SubscriptionId>> boolean;
    engine->match_batch(events, boolean);
    for (std::size_t i = 0; i < events.size(); ++i) {
      // Same hit set as the boolean batch...
      std::vector<ScoredHit> expected;
      for (const SubscriptionId id : boolean[i]) {
        expected.push_back(
            {id, id == 1 ? score_event(spec, events[i]) : kConstantScore});
      }
      // ...each hit carrying score_event of its spec.
      EXPECT_EQ(sorted_hits(scored[i]), sorted_hits(expected))
          << name << " event " << i;
    }
    EXPECT_EQ(sorted_hits(scored[1]),
              (std::vector<ScoredHit>{{2, kConstantScore}}))
        << name;
  }
}

TEST(MatchBatchScored, SubBatchViewScoresComposeWithFullBatch) {
  const ScoringSpec spec = bm25_spec({{"log", 2.0}, {"rss", 1.0}}, {"file"});
  std::vector<Event> events;
  for (int i = 0; i < 6; ++i) {
    events.push_back(Event()
                         .with("file", i % 2 ? "a.log" : "feed.rss")
                         .with("seq", static_cast<std::int64_t>(i)));
  }
  const std::vector<std::uint32_t> indices = {4, 1, 3};
  for (const auto& name : MatcherRegistry::instance().names()) {
    auto engine = make_matcher(name);
    engine->add(1, Filter().and_(exists("file")));
    ScoringIndex scoring;
    scoring.set(1, spec);

    std::vector<std::vector<ScoredHit>> full;
    engine->match_batch_scored(std::span<const Event>(events), scoring, full);
    std::vector<std::vector<ScoredHit>> sub;
    engine->match_batch_scored(
        EventBatchView(std::span<const Event>(events),
                       std::span<const std::uint32_t>(indices)),
        scoring, sub);
    ASSERT_EQ(sub.size(), indices.size()) << name;
    for (std::size_t pos = 0; pos < indices.size(); ++pos) {
      // Batch-composition independence extends to scores: the sub-batch
      // view's (id, score) lists are the full batch's at those positions.
      EXPECT_EQ(sorted_hits(sub[pos]), sorted_hits(full[indices[pos]]))
          << name << " pos " << pos;
    }
  }
}

// --- compiled scoring vs the score_event oracle ------------------------------
//
// ScoringIndex compiles each spec and ScoringIndex::Scorer scores from one
// document per (event, attribute list); score_event tokenizes per call.
// Their doubles must agree bit for bit — the top-k cut compares them, so
// an ulp of drift would move deliveries. The seeded generator aims at the
// compiled path's edges: duplicate, negative, zero, unmatchable
// (upper-case, punctuated, empty) query terms; attribute lists with
// repeats, missing, non-string and never-carried attributes; empty and
// separator-only text; constant-policy specs; and batches that mix specs
// over different attribute lists. Queries run up to 6 terms over a small
// vocabulary, so most hits sum 3+ nonzero terms, where a summation order
// other than the query order changes the last bits.

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

constexpr const char* kQueryWords[] = {
    "log", "feed", "news", "alpha", "beta", "gamma", "c20",  "4a",
    "Log", "feed!", "",    "café", "caf",  "don",   "2024", "news"};
constexpr const char* kTextWords[] = {"log",  "feed", "news", "alpha", "beta",
                                      "gamma", "LOG", "c++20", "4a",   "café",
                                      "don't", "2024", "x"};
constexpr const char* kSeparators[] = {" ", "-", ", ", "'", "  \t"};
ScoringSpec random_spec(util::Rng& rng,
                        const std::vector<std::string>& text_attrs) {
  ScoringSpec spec;
  if (rng.chance(0.1)) {  // constant policy, non-neutral through its knobs
    spec.top_k = 1 + static_cast<std::uint32_t>(rng.index(3));
    return spec;
  }
  spec.policy = ScoringPolicy::kBm25;
  spec.top_k = static_cast<std::uint32_t>(rng.index(3));
  const std::size_t terms = rng.index(7);
  for (std::size_t t = 0; t < terms; ++t) {
    double weight = 0.1 + 3.0 * rng.uniform01();
    if (rng.chance(0.1)) weight = 0.0;
    if (rng.chance(0.1)) weight = -1.5;
    spec.query.push_back(
        {kQueryWords[rng.index(std::size(kQueryWords))], weight});
  }
  const std::size_t attrs = rng.index(4);
  for (std::size_t a = 0; a < attrs; ++a) {
    spec.text_attrs.push_back(text_attrs[rng.index(text_attrs.size())]);
  }
  return spec;
}

std::string random_text(util::Rng& rng) {
  if (rng.chance(0.05)) return "";
  if (rng.chance(0.05)) return " \t ";
  std::string text;
  const std::size_t words = 1 + rng.index(12);
  for (std::size_t w = 0; w < words; ++w) {
    if (w != 0) text += kSeparators[rng.index(std::size(kSeparators))];
    text += kTextWords[rng.index(std::size(kTextWords))];
  }
  return text;
}

Event random_scored_event(util::Rng& rng) {
  Event event;
  if (rng.chance(0.8)) event.with("scoring_test_title", random_text(rng));
  if (rng.chance(0.5)) event.with("scoring_test_text", random_text(rng));
  if (rng.chance(0.5)) {  // a designated attribute with a non-string value
    event.with("scoring_test_num",
               static_cast<std::int64_t>(rng.index(100)));
  }
  return event;
}

TEST(CompiledScoring, BitIdenticalToScoreEventOnSeededBatches) {
  static int run = 0;  // a fresh never-interned name per run (gtest_repeat)
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    // The last attribute is no event's and not yet interned when the
    // first spec naming it compiles.
    const std::string unseen = "scoring_test_unseen_" + std::to_string(run++);
    ASSERT_EQ(AttrTable::instance().lookup(unseen), kNoAttrId);
    const std::vector<std::string> text_attrs = {
        "scoring_test_title", "scoring_test_text", "scoring_test_num", unseen};
    std::vector<ScoringSpec> specs;
    ScoringIndex index;
    BruteForceMatcher matcher;  // universal filters: every id hits
    for (SubscriptionId id = 1; id <= 24; ++id) {
      specs.push_back(random_spec(rng, text_attrs));
      index.set(id, specs.back());
      matcher.add(id, Filter());
    }
    std::vector<Event> events;
    for (int e = 0; e < 16; ++e) events.push_back(random_scored_event(rng));

    // Directly through the Scorer, hits in a seeded order per event.
    ScoringIndex::Scorer scorer(index);
    for (const Event& event : events) {
      scorer.start(event);
      for (std::size_t n = 0; n < specs.size(); ++n) {
        const SubscriptionId id = 1 + rng.index(specs.size());
        const ScoringSpec& spec = specs[id - 1];
        const ScoringIndex::Scorer::Result got = scorer.score(id);
        EXPECT_EQ(bits(got.score), bits(score_event(spec, event)))
            << "seed " << seed << " " << spec.summary() << " on "
            << event.to_string();
        EXPECT_EQ(got.spec, index.find(id));
      }
    }
    // And through the batch path every matcher inherits.
    std::vector<std::vector<ScoredHit>> scored;
    matcher.match_batch_scored(events, index, scored);
    ASSERT_EQ(scored.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_EQ(scored[i].size(), specs.size());
      for (const ScoredHit& hit : scored[i]) {
        EXPECT_EQ(bits(hit.score), bits(score_event(specs[hit.id - 1],
                                                    events[i])))
            << "seed " << seed << " event " << i << " id " << hit.id;
      }
    }
  }
}

TEST(CompiledScoring, DuplicateQueryTermsCountOncePerOccurrence) {
  const ScoringSpec twice = bm25_spec({{"log", 1.0}, {"log", 1.0}}, {"text"});
  const ScoringSpec once = bm25_spec({{"log", 1.0}}, {"text"});
  ScoringIndex index;
  index.set(1, twice);
  index.set(2, once);
  const Event event = Event().with("text", "log feed");
  ScoringIndex::Scorer scorer(index);
  scorer.start(event);
  EXPECT_EQ(bits(scorer.score(1).score), bits(score_event(twice, event)));
  EXPECT_EQ(scorer.score(1).score, 2.0 * scorer.score(2).score);
  EXPECT_EQ(scorer.score(3).spec, nullptr);  // no spec: the constant
  EXPECT_EQ(scorer.score(3).score, kConstantScore);
}

TEST(CompiledScoring, DictionaryHoldsLiveQueryTermsOnly) {
  ScoringIndex index;
  index.set(1, bm25_spec({{"log", 1.0}, {"feed", 1.0}}, {"text"}));
  index.set(2, bm25_spec({{"log", 2.0}, {"news", 1.0}}, {"title"}));
  EXPECT_EQ(index.term_count(), 3u);
  index.erase(1);
  EXPECT_EQ(index.term_count(), 2u);  // "log" still used by id 2
  // Replacing a spec releases its old terms; a neutral one releases all.
  index.set(2, bm25_spec({{"alpha", 1.0}}, {"text"}));
  EXPECT_EQ(index.term_count(), 1u);
  index.set(2, ScoringSpec{});
  EXPECT_EQ(index.term_count(), 0u);
  EXPECT_TRUE(index.empty());
  // Freed term ids are reused without mixing up frequencies.
  const ScoringSpec spec = bm25_spec({{"feed", 1.0}, {"log", 0.5}}, {"text"});
  index.set(3, spec);
  const Event event = Event().with("text", "log log feed");
  ScoringIndex::Scorer scorer(index);
  scorer.start(event);
  EXPECT_EQ(bits(scorer.score(3).score), bits(score_event(spec, event)));
}

// --- end-to-end: threshold + top-k composition at a broker -------------------

struct Harness {
  sim::Simulator sim;
  sim::Network net;
  explicit Harness() : net(sim, fast()) {}
  static sim::Network::Config fast() {
    sim::Network::Config config;
    config.default_latency = sim::kMillisecond;
    config.jitter_fraction = 0.0;
    return config;
  }
  void settle() { sim.run_until(sim.now() + 10 * sim::kSecond); }
};

Broker::Config scored_config() {
  Broker::Config config;
  config.scoring_enabled = true;
  return config;
}

TEST(ScoredDelivery, ThresholdAppliesBeforeTopKCut) {
  Harness h;
  Broker broker(h.sim, h.net, "b0", scored_config());
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(broker);
  sub.connect(broker);

  const ScoringSpec spec = bm25_spec({{"log", 1.0}}, {"text"}, 1, 0.5);
  std::vector<std::pair<std::string, double>> got;
  sub.subscribe_scored(Filter(), spec,
                       [&](const Event& e, SubscriptionId, double score) {
                         got.emplace_back(e.to_string(), score);
                       });
  h.settle();

  const std::vector<Event> batch = {
      Event().with("name", "silent"),            // bm25 score 0: threshold
      Event().with("text", "log"),               // eligible
      Event().with("text", "log log log"),       // eligible, higher: wins k=1
  };
  pub.publish_batch(batch);
  h.settle();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, batch[2].to_string());
  EXPECT_EQ(got[0].second, score_event(spec, batch[2]));
  EXPECT_EQ(broker.stats().scored_matches, 3u);
  EXPECT_EQ(broker.stats().suppressed_by_threshold, 1u);
  EXPECT_EQ(broker.stats().suppressed_by_k, 1u);
}

TEST(ScoredDelivery, TopKZeroDeliversAllWithScoresAttached) {
  Harness h;
  Broker broker(h.sim, h.net, "b0", scored_config());
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(broker);
  sub.connect(broker);

  // Non-neutral (min_score 0.5) but unable to suppress constant scores:
  // every match is delivered and the handler sees the real score.
  ScoringSpec spec;
  spec.min_score = 0.5;
  std::vector<double> scores;
  sub.subscribe_scored(Filter(), spec,
                       [&](const Event&, SubscriptionId, double score) {
                         scores.push_back(score);
                       });
  h.settle();
  pub.publish_batch({Event().with("seq", std::int64_t{0}),
                     Event().with("seq", std::int64_t{1})});
  h.settle();

  EXPECT_EQ(scores, (std::vector<double>{kConstantScore, kConstantScore}));
  EXPECT_EQ(broker.stats().scored_matches, 2u);
  EXPECT_EQ(broker.stats().suppressed_by_threshold, 0u);
  EXPECT_EQ(broker.stats().suppressed_by_k, 0u);
}

TEST(ScoredDelivery, NeutralSubscriberUnaffectedByScoredSibling) {
  Harness h;
  Broker broker(h.sim, h.net, "b0", scored_config());
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(broker);
  sub.connect(broker);

  // Same interface, same filter: one neutral, one top-1. The scored
  // sibling's suppression must not leak into the neutral delivery, and
  // the neutral handler reads kConstantScore even on mixed DeliverMsgs.
  std::vector<double> neutral_scores;
  int neutral_got = 0;
  sub.subscribe(Filter(), [&](const Event&, SubscriptionId) { ++neutral_got; });
  ScoringSpec spec;
  spec.top_k = 1;
  int scored_got = 0;
  sub.subscribe_scored(Filter(), spec,
                       [&](const Event&, SubscriptionId, double score) {
                         ++scored_got;
                         neutral_scores.push_back(score);
                       });
  h.settle();
  pub.publish_batch({Event().with("seq", std::int64_t{0}),
                     Event().with("seq", std::int64_t{1}),
                     Event().with("seq", std::int64_t{2})});
  h.settle();

  EXPECT_EQ(neutral_got, 3);
  EXPECT_EQ(scored_got, 1);
  EXPECT_EQ(neutral_scores, (std::vector<double>{kConstantScore}));
  EXPECT_EQ(broker.stats().scored_matches, 3u);
  EXPECT_EQ(broker.stats().suppressed_by_k, 2u);
}

TEST(ScoredDelivery, WindowIsThePublicationBatch) {
  Harness h;
  Broker broker(h.sim, h.net, "b0", scored_config());
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(broker);
  sub.connect(broker);

  ScoringSpec spec;
  spec.top_k = 1;
  int got = 0;
  sub.subscribe_scored(Filter(), spec,
                       [&](const Event&, SubscriptionId, double) { ++got; });
  h.settle();
  // Two separate publications: each is its own top-k window, so both
  // survive a k=1 cut (top-k is per batch, not per subscription lifetime).
  pub.publish(Event().with("seq", std::int64_t{0}));
  h.settle();
  pub.publish(Event().with("seq", std::int64_t{1}));
  h.settle();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(broker.stats().suppressed_by_k, 0u);
}

TEST(ScoredDelivery, ScoringPolicyNames) {
  EXPECT_STREQ(scoring_policy_name(ScoringPolicy::kConstant), "constant");
  EXPECT_STREQ(scoring_policy_name(ScoringPolicy::kBm25), "bm25");
}

}  // namespace
}  // namespace reef::pubsub
