// Copy-on-write semantics of pubsub::Event: copies share one immutable
// attribute store (a refcount bump), mutation detaches the mutated copy
// only, the per-object id never leaks between copies, and concurrent
// copy/destroy/match of one shared event is race-free (the TSan job runs
// this binary).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pubsub/event.h"
#include "pubsub/filter.h"

namespace reef::pubsub {
namespace {

Event sample() {
  return Event()
      .with("feed", "http://example.org/rss/world.xml")
      .with("price", 12.5)
      .with("count", static_cast<std::int64_t>(3));
}

TEST(EventCow, CopySharesStorage) {
  const Event a = sample();
  const std::uint64_t before = Event::copy_count();
  const Event b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(Event::copy_count(), before + 1);
  EXPECT_EQ(a.attrs().data(), b.attrs().data());
  EXPECT_EQ(a, b);

  Event c;
  c = a;
  EXPECT_EQ(Event::copy_count(), before + 2);
  EXPECT_EQ(c.attrs().data(), a.attrs().data());
}

TEST(EventCow, WithOnCopyDetachesAndLeavesOriginalUntouched) {
  const Event a = sample();
  const std::string text = a.to_string();
  const std::size_t bytes = a.wire_size();

  Event b = a;
  b.with("price", 99.0).with("extra", "x");
  EXPECT_NE(a.attrs().data(), b.attrs().data());
  EXPECT_EQ(a.to_string(), text);
  EXPECT_EQ(a.wire_size(), bytes);
  EXPECT_EQ(a.find("price")->to_string(), "12.5");
  EXPECT_EQ(a.find("extra"), nullptr);
  EXPECT_EQ(b.find("price")->to_string(), "99.0");
  EXPECT_NE(b.find("extra"), nullptr);
  EXPECT_FALSE(a == b);

  // Overwriting an attribute of a copy detaches too.
  Event c = a;
  c.with("count", static_cast<std::int64_t>(4));
  EXPECT_EQ(a.to_string(), text);
  EXPECT_EQ(c.size(), a.size());
}

TEST(EventCow, SoleOwnerMutatesInPlace) {
  Event a = sample();
  const auto* storage = a.attrs().data();
  a.with("price", 13.0);  // existing attribute, no reallocation needed
  EXPECT_EQ(a.attrs().data(), storage);
  EXPECT_EQ(a.find("price")->to_string(), "13.0");
}

TEST(EventCow, SetIdOnCopyLeavesOriginalAlone) {
  Event a = sample();
  a.set_id(7);
  Event b = a;
  EXPECT_EQ(b.id(), 7u);
  b.set_id(8);
  EXPECT_EQ(a.id(), 7u);
  EXPECT_EQ(b.id(), 8u);
  EXPECT_EQ(a.attrs().data(), b.attrs().data());  // ids are per object
  EXPECT_EQ(a, b);  // equality is over attributes, not ids
}

TEST(EventCow, MovedFromIsEmptyAndReusable) {
  Event a = sample();
  const std::string text = a.to_string();
  const std::uint64_t before = Event::copy_count();
  Event b = std::move(a);
  EXPECT_EQ(Event::copy_count(), before);  // moves are not copies
  EXPECT_EQ(b.to_string(), text);
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the test.
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_TRUE(a.attrs().empty());
  EXPECT_EQ(a.find("feed"), nullptr);
  EXPECT_EQ(a.to_string(), "{}");
  EXPECT_EQ(a, Event());
  a.with("feed", "reused");
  EXPECT_EQ(a.to_string(), "{feed=\"reused\"}");
  // NOLINTEND(bugprone-use-after-move)
  EXPECT_EQ(b.to_string(), text);

  Event c;
  c = std::move(b);
  EXPECT_EQ(c.to_string(), text);
}

TEST(EventCow, DefaultEventOwnsNoStorageAndReadsEmpty) {
  const Event empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.to_string(), "{}");
  EXPECT_EQ(empty.wire_size(), 16u);
  EXPECT_EQ(empty, Event());
  EXPECT_FALSE(empty == sample());
  EXPECT_EQ(sample(), sample());  // distinct storage, same content
}

TEST(EventCow, ConcurrentCopyDestroyAndMatchOfOneSharedEvent) {
  const Event shared = sample();
  const Filter hit = Filter().and_(eq("count", static_cast<std::int64_t>(3)));
  const Filter miss = Filter().and_(gt("price", 20.0));
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::atomic<int> matched{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      int local = 0;
      for (int i = 0; i < kIters; ++i) {
        std::vector<Event> copies(3, shared);
        Event moved = std::move(copies.back());
        copies.pop_back();
        if (hit.matches(moved) && hit.matches(copies.front())) ++local;
        if (miss.matches(copies.back())) wrong.fetch_add(1);
        if (copies.front().attrs().data() != shared.attrs().data()) {
          wrong.fetch_add(1);
        }
      }
      matched.fetch_add(local);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(matched.load(), kThreads * kIters);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(shared, sample());
}

}  // namespace
}  // namespace reef::pubsub
