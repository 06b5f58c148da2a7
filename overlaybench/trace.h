// Span tracing for the overlay benchmark, recorded from outside the program:
// every span wraps a call into one layer's public functions (a Matcher
// method, a Client call or handler, Simulator::run_until), so the program
// itself is unchanged.
//
// Spans are kept in memory and written out at exit with name, start, end and
// parent. Self time (a span's duration minus the part its children cover) is
// accumulated per span name for every span, also past kMaxRecords, when
// individual records stop being kept.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pubsub/matcher.h"
#include "pubsub/matcher_registry.h"

namespace overlaybench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// Spans kept individually for the span file; totals cover all spans.
  static constexpr std::size_t kMaxRecords = std::size_t{1} << 18;

  struct Totals {
    std::int64_t self_ns = 0;
    std::int64_t total_ns = 0;
    std::uint64_t count = 0;
  };

  /// Spans are recorded only while enabled; a disabled tracer costs one
  /// branch per boundary.
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Dense id for a span name (call once per name, outside hot loops).
  std::uint32_t name_id(std::string_view name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    totals_.emplace_back();
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  void begin(std::uint32_t name) {
    Open open{name, now_ns(), 0, -1};
    if (records_.size() < kMaxRecords) {
      open.record = static_cast<std::int64_t>(records_.size());
      records_.push_back(
          {name, stack_.empty() ? -1 : stack_.back().record, open.start, 0});
    }
    stack_.push_back(open);
  }

  void end() {
    const std::int64_t end = now_ns();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = end - open.start;
    Totals& totals = totals_[open.name];
    totals.self_ns += duration - open.child_ns;
    totals.total_ns += duration;
    ++totals.count;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    if (open.record >= 0) {
      records_[static_cast<std::size_t>(open.record)].end_ns = end;
    }
  }

  const Totals& totals(std::uint32_t name) const { return totals_.at(name); }

  /// Sum of self time over every span name: the wall time the root spans
  /// cover.
  std::int64_t self_ns_all() const {
    std::int64_t sum = 0;
    for (const Totals& t : totals_) sum += t.self_ns;
    return sum;
  }

  std::uint64_t spans_seen() const {
    std::uint64_t sum = 0;
    for (const Totals& t : totals_) sum += t.count;
    return sum;
  }

  /// Writes the kept spans as tab-separated `id parent name start_ns end_ns`
  /// (parent -1 for a root; times relative to the first span). Returns false
  /// if the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::int64_t origin = records_.empty() ? 0 : records_[0].start_ns;
    std::fprintf(out, "id\tparent\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(out, "%zu\t%lld\t%s\t%lld\t%lld\n", i,
                   static_cast<long long>(r.parent), names_[r.name].c_str(),
                   static_cast<long long>(r.start_ns - origin),
                   static_cast<long long>(r.end_ns - origin));
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Record {
    std::uint32_t name;
    std::int64_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Open {
    std::uint32_t name;
    std::int64_t start;
    std::int64_t child_ns;
    std::int64_t record;
  };

  bool enabled_ = false;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Record> records_;
  std::vector<Open> stack_;
};

/// The benchmark's one tracer (the simulator is single-threaded).
inline Tracer& tracer() {
  static Tracer instance;
  return instance;
}

/// Scoped span; a no-op while the tracer is disabled.
class Span {
 public:
  explicit Span(std::uint32_t name) : on_(tracer().enabled()) {
    if (on_) tracer().begin(name);
  }
  ~Span() {
    if (on_) tracer().end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// Work counts seen by TimedMatcher while the tracer is enabled.
struct MatcherCounts {
  std::uint64_t events = 0;
  std::uint64_t hits = 0;
  std::uint64_t add_remove_calls = 0;
};

inline MatcherCounts& matcher_counts() {
  static MatcherCounts counts;
  return counts;
}

/// Matcher decorator timing every call into the wrapped engine. Registered
/// through MatcherRegistry::add under "timed:<engine>", so brokers build it
/// like any other engine; maintenance and bucket introspection pass through
/// untouched, keeping the routing table's behaviour identical.
class TimedMatcher final : public reef::pubsub::Matcher {
 public:
  using Matcher::match;
  using Matcher::match_batch;

  explicit TimedMatcher(std::unique_ptr<Matcher> inner)
      : inner_(std::move(inner)) {}

  /// Registers "timed:<engine>" and returns that name.
  static std::string register_around(const std::string& engine) {
    const std::string name = "timed:" + engine;
    reef::pubsub::MatcherRegistry::instance().add(name, [engine] {
      return std::make_unique<TimedMatcher>(reef::pubsub::make_matcher(engine));
    });
    return name;
  }

  void add(reef::pubsub::SubscriptionId id,
           reef::pubsub::Filter filter) override {
    Span span(add_name());
    if (tracer().enabled()) ++matcher_counts().add_remove_calls;
    inner_->add(id, std::move(filter));
  }
  void remove(reef::pubsub::SubscriptionId id) override {
    Span span(remove_name());
    if (tracer().enabled()) ++matcher_counts().add_remove_calls;
    inner_->remove(id);
  }
  void match(const reef::pubsub::Event& event,
             std::vector<reef::pubsub::SubscriptionId>& out) const override {
    Span span(match_name());
    const std::size_t before = out.size();
    inner_->match(event, out);
    if (tracer().enabled()) {
      ++matcher_counts().events;
      matcher_counts().hits += out.size() - before;
    }
  }
  void match_batch(const reef::pubsub::EventBatchView& events,
                   std::vector<std::vector<reef::pubsub::SubscriptionId>>& out)
      const override {
    Span span(match_batch_name());
    inner_->match_batch(events, out);
    if (tracer().enabled()) {
      matcher_counts().events += events.size();
      for (const auto& hits : out) matcher_counts().hits += hits.size();
    }
  }
  std::size_t size() const noexcept override { return inner_->size(); }
  std::string name() const override { return inner_->name(); }
  std::size_t maintain(std::size_t max_bucket) override {
    return inner_->maintain(max_bucket);
  }
  reef::pubsub::EqBucketStats eq_bucket_stats() const noexcept override {
    return inner_->eq_bucket_stats();
  }

  static std::uint32_t add_name() {
    static const std::uint32_t id = tracer().name_id("matcher.add");
    return id;
  }
  static std::uint32_t remove_name() {
    static const std::uint32_t id = tracer().name_id("matcher.remove");
    return id;
  }
  static std::uint32_t match_name() {
    static const std::uint32_t id = tracer().name_id("matcher.match");
    return id;
  }
  static std::uint32_t match_batch_name() {
    static const std::uint32_t id = tracer().name_id("matcher.match_batch");
    return id;
  }

 private:
  std::unique_ptr<Matcher> inner_;
};

}  // namespace overlaybench
