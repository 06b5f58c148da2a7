// End-to-end overlay benchmark.
//
// Drives the public API of the pubsub and sim modules (Overlay, Client,
// Simulator::run_until) on three seeded workloads, checks every delivery of
// every bundle against an oracle computed from the live subscription set, and
// prints one JSON line: the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1). README.md in this directory lists the
// workloads, the metrics and which layer each metric belongs to.
//
// Everything runs on the simulator thread (worker_threads = 0). The load is
// closed-loop in wall time: one publisher, and the next bundle or control
// operation starts only after the previous one has drained. The sim-time
// schedule is fixed: every step gets a fixed slot of simulated time.
//
// A measured phase repeats one round of steps whose content is drawn once.
// Each step's time is its fastest repetition, and wall times are scaled to a
// reference host speed read from a calibration loop (HostSpeed), because
// the speed of a shared host drifts by tens of percent between runs.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pubsub/client.h"
#include "pubsub/overlay.h"
#include "pubsub/routing_table.h"
#include "pubsub/scoring.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "trace.h"
#include "util/rng.h"

namespace overlaybench {
namespace {

using reef::pubsub::AttrId;
using reef::pubsub::AttrTable;
using reef::pubsub::Broker;
using reef::pubsub::Client;
using reef::pubsub::Event;
using reef::pubsub::Filter;
using reef::pubsub::Overlay;
using reef::pubsub::RoutingTable;
using reef::pubsub::ScoringPolicy;
using reef::pubsub::ScoringSpec;
using reef::pubsub::SubscriptionId;
using reef::pubsub::eq;
namespace sim = reef::sim;
namespace util = reef::util;

// --- command line -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fixed number of measured rounds instead of a wall-clock deadline; with
  /// it every sim counter is a function of (workload, seed, rounds) alone.
  std::size_t rounds = 0;
  /// Where a traced run writes its spans ("" = nowhere).
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value) != 0;
    } else if (flag == "--rounds") {
      args.rounds = std::stoul(value);
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0) && args.rounds == 0) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

// --- workloads ----------------------------------------------------------------

enum class Shape { kFeeds, kDense };

struct Workload {
  Shape shape = Shape::kFeeds;
  std::string engine = "anchor-index";
  std::size_t brokers = 8;
  std::size_t clients = 0;
  std::size_t subs_per_client = 5;
  /// Feed vocabulary (Zipf popularity) of the feed shape.
  std::size_t feeds = 0;
  /// Clients that also hold the broad stream = "feed" subscription.
  std::size_t broad_clients = 0;
  std::size_t bundle_events = 100;
  /// Bundles and subscribe/unsubscribe pairs per round.
  std::size_t round_bundles = 0;
  std::size_t round_pairs = 0;
  bool scoring = false;
  std::uint32_t top_k = 0;
  /// sub_churn: reliable control plane, and once per measured phase a fault
  /// window of `fault_pairs` pairs over a lossy link, then as many around a
  /// broker crash and restart.
  bool faults = false;
  std::size_t fault_pairs = 0;
};

Workload workload_named(const std::string& name) {
  Workload w;
  if (name == "feed_fanout") {
    w.clients = 600;
    w.feeds = 300;
    w.broad_clients = 4;
    w.round_bundles = 100;
    w.round_pairs = 200;
  } else if (name == "sub_churn") {
    w.clients = 400;
    w.feeds = 300;
    w.broad_clients = 4;
    w.bundle_events = 10;
    w.round_bundles = 100;
    w.round_pairs = 400;
    w.faults = true;
    w.fault_pairs = 16;
  } else if (name == "dense_topk") {
    w.shape = Shape::kDense;
    w.engine = "bitset";
    w.clients = 400;
    w.round_bundles = 100;
    w.round_pairs = 150;
    w.scoring = true;
    w.top_k = 2;
  } else {
    throw std::invalid_argument("unknown workload " + name +
                                " (feed_fanout, sub_churn, dense_topk)");
  }
  return w;
}

constexpr const char* kWords[] = {"alpha", "beta", "gamma", "delta",
                                  "news",  "feed", "update", "log"};
constexpr std::size_t kWordCount = sizeof(kWords) / sizeof(kWords[0]);

std::string feed_url(std::size_t feed) {
  return "http://feed" + std::to_string(feed) + ".example/f.rss";
}

/// One subscription of the workload: who holds it and what it asks for.
struct SubSpec {
  std::size_t client = 0;
  Filter filter;
  ScoringSpec spec;
};

/// What a published event carries besides the benchmark's own stamps.
struct EventParams {
  std::size_t feed = 0;
  std::int64_t hot = 0, cat = 0, tier = 0;
  std::string title;
};
using BundleParams = std::vector<EventParams>;

enum class Step {
  kBundle,
  kSubscribe,
  kUnsubscribe,
  kLossOn,
  kCrash,
  kRestart,
  kLossOff
};

/// One step of a round or of the fault window, with its content drawn in
/// advance: the bundle it publishes, or the key and subscription of a
/// churn subscribe.
struct StepSpec {
  Step step = Step::kBundle;
  BundleParams bundle;
  std::uint32_t key = 0;
  SubSpec sub;
};

/// The standing population, the round every measured repetition replays,
/// and the fault window run once at the start of a measured phase (sub_churn
/// only). A round's content is drawn once from the seed and then repeated
/// unchanged, so every repetition of a step does the same work and the
/// fastest repetition is that step's cost without interference from other
/// tenants of the host.
struct Schedule {
  std::vector<SubSpec> population;
  std::vector<StepSpec> round;
  std::vector<StepSpec> fault_window;
};

/// Churn subscriptions open at once.
constexpr std::size_t kChurnWindow = 4;
/// Set-ups per run: at least kMinSetups, and more until kSetupSeconds of
/// set-up have passed (at most kMaxSetups); setup_s is their median.
constexpr std::size_t kMinSetups = 5, kMaxSetups = 25;
constexpr double kSetupSeconds = 4.0;
/// Calibration samples (HostSpeed) taken before each set-up.
constexpr int kSetupCalibrationSamples = 5;

// The lossy link and the crashed broker of the sub_churn fault window: both
// lie on the path from the chain's far end (brokers 6 and 7) to broker 3.
constexpr std::size_t kLossyA = 3, kLossyB = 4, kCrashed = 5;
constexpr double kLossProbability = 0.2;
/// Seeds the round and fault-window content apart from the population.
constexpr std::uint64_t kTrafficSeed = 0x7aff1c;

/// Zipf-popular feeds, dealt from a shuffled deck of `cards` cards. A deck
/// is drawn by systematic sampling: the points (i + u) / cards, i = 0 ..
/// cards - 1, with one random offset u, are mapped through the popularity
/// CDF. Every feed then gets the floor or the ceiling of its share of the
/// cards, and every stretch of the tail gets its share in total. A deck is
/// sized to the draws it serves (the population, a round's events, a
/// round's churn subscriptions). So a seed decides which client holds which
/// feed, which tail feeds appear and the order of events, but hardly how
/// many subscriptions and events the popular feeds get and how many go to
/// the tail, which set most of the delivery and covering work.
class FeedDeck {
 public:
  FeedDeck(std::size_t feeds, std::size_t cards) : cards_(cards) {
    const util::ZipfSampler zipf(std::max<std::size_t>(feeds, 1), 1.0);
    double sum = 0.0;
    for (std::size_t f = 0; f < zipf.size(); ++f) {
      sum += zipf.pmf(f);
      cdf_.push_back(sum);
    }
    next_ = cards_.size();
  }

  std::size_t deal(util::Rng& rng) {
    if (next_ == cards_.size()) {
      const double u = rng.uniform01();
      for (std::size_t i = 0; i < cards_.size(); ++i) {
        const double point =
            (static_cast<double>(i) + u) / static_cast<double>(cards_.size());
        const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), point * cdf_.back());
        cards_[i] = std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
      }
      rng.shuffle(cards_);
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> cards_;
  std::size_t next_ = 0;
};

class Generator {
 public:
  Generator(const Workload& w, std::uint64_t seed)
      : w_(w), rng_(seed),
        population_deck_(w.feeds, w.clients * w.subs_per_client),
        event_deck_(w.feeds, w.round_bundles * w.bundle_events),
        churn_deck_(w.feeds, w.round_pairs) {}

  /// A subscription drawn from the workload's population distribution, its
  /// feed (feed shape) dealt from `deck`.
  SubSpec draw_sub(std::size_t client, FeedDeck& deck) {
    SubSpec sub;
    sub.client = client;
    if (w_.shape == Shape::kFeeds) {
      sub.filter = Filter()
                       .and_(eq("stream", "feed"))
                       .and_(eq("feed", feed_url(deck.deal(rng_))));
      return sub;
    }
    // The make_dense_filters shape: 2-3 equality constraints over a tiny
    // vocabulary, so every event is a candidate for a large share of the
    // table.
    sub.filter = Filter()
                     .and_(eq("hot", static_cast<std::int64_t>(rng_.index(2))))
                     .and_(eq("cat", static_cast<std::int64_t>(rng_.index(8))));
    if (rng_.chance(0.5)) {
      sub.filter.and_(eq("tier", static_cast<std::int64_t>(rng_.index(3))));
    }
    sub.spec.policy = ScoringPolicy::kBm25;
    sub.spec.text_attrs = {"title"};
    sub.spec.top_k = w_.top_k;
    for (int t = 0; t < 2; ++t) {
      sub.spec.query.push_back(
          {kWords[rng_.index(kWordCount)], 0.5 + rng_.uniform01()});
    }
    return sub;
  }

  /// A churn subscription from a random client.
  SubSpec draw_churn() { return draw_sub(rng_.index(w_.clients), churn_deck_); }

  /// A fault-window subscription (feed shape): a feed no other subscription
  /// names, from a client on one of the last two brokers of the chain.
  /// Nothing covers it, so it travels the chain towards broker 0, through
  /// the crashed broker and over the lossy link, until the broad
  /// subscriptions held at brokers 0-3 cover it.
  SubSpec draw_fault_sub() {
    SubSpec sub;
    sub.client = rng_.index(w_.clients / w_.brokers) * w_.brokers +
                 w_.brokers - 1 - rng_.index(2);
    sub.filter = Filter()
                     .and_(eq("stream", "feed"))
                     .and_(eq("feed", feed_url(w_.feeds + fresh_feeds_++)));
    return sub;
  }

  BundleParams draw_bundle() {
    BundleParams bundle(w_.bundle_events);
    for (EventParams& e : bundle) {
      if (w_.shape == Shape::kFeeds) {
        e.feed = event_deck_.deal(rng_);
        continue;
      }
      e.hot = static_cast<std::int64_t>(rng_.index(2));
      e.cat = static_cast<std::int64_t>(rng_.index(8));
      e.tier = static_cast<std::int64_t>(rng_.index(3));
      for (int t = 0; t < 4; ++t) {
        if (t != 0) e.title += ' ';
        e.title += kWords[rng_.index(kWordCount)];
      }
    }
    return bundle;
  }

  std::vector<SubSpec> population() {
    std::vector<SubSpec> out;
    for (std::size_t c = 0; c < w_.clients; ++c) {
      for (std::size_t i = 0; i < w_.subs_per_client; ++i) {
        out.push_back(draw_sub(c, population_deck_));
      }
      if (c < w_.broad_clients) {
        SubSpec broad;
        broad.client = c;
        broad.filter = Filter().and_(eq("stream", "feed"));
        out.push_back(std::move(broad));
      }
    }
    return out;
  }

  /// Appends `bundles` bundle steps interleaved evenly with `pairs`
  /// subscribe/unsubscribe pairs, with their content: at most kChurnWindow
  /// churn subscriptions are open at once, the oldest is closed first, and
  /// all are closed by the segment's end. Subscribes take keys from
  /// `next_key` on, and are fault-window subscriptions with `fault`.
  void add_segment(std::vector<StepSpec>& steps, std::size_t bundles,
                   std::size_t pairs, bool fault, std::uint32_t& next_key) {
    const std::size_t ops = 2 * pairs;
    std::size_t opened = 0, ops_done = 0, bundles_done = 0;
    std::deque<std::size_t> open;  // indices into `steps`
    while (ops_done < ops || bundles_done < bundles) {
      // Bresenham-style interleave: keep ops_done/ops level with
      // bundles_done/bundles.
      const bool op_next =
          bundles_done == bundles ||
          (ops_done < ops && ops_done * bundles <= bundles_done * ops);
      StepSpec spec;
      if (!op_next) {
        spec.bundle = draw_bundle();
        ++bundles_done;
      } else if (opened < pairs && open.size() < kChurnWindow) {
        spec.step = Step::kSubscribe;
        spec.key = next_key++;
        spec.sub = fault ? draw_fault_sub() : draw_churn();
        open.push_back(steps.size());
        ++opened;
        ++ops_done;
      } else {
        spec.step = Step::kUnsubscribe;
        spec.key = steps[open.front()].key;
        spec.sub = steps[open.front()].sub;
        open.pop_front();
        ++ops_done;
      }
      steps.push_back(std::move(spec));
    }
  }

 private:
  const Workload& w_;
  util::Rng rng_;
  FeedDeck population_deck_, event_deck_, churn_deck_;
  std::size_t fresh_feeds_ = 0;
};

Schedule make_schedule(const Workload& w, std::uint64_t seed) {
  Schedule s;
  s.population = Generator(w, seed).population();
  Generator traffic(w, seed ^ kTrafficSeed);
  auto next_key = static_cast<std::uint32_t>(s.population.size());
  traffic.add_segment(s.round, w.round_bundles, w.round_pairs, false, next_key);
  if (w.faults) {
    // Churn over a lossy link, then a broker crash with churn through it,
    // restart and heal. No bundle is published inside the window (the data
    // plane is best-effort), so every checked bundle comes after the
    // overlay has healed.
    std::vector<StepSpec>& f = s.fault_window;
    f.push_back({Step::kLossOn, {}, 0, {}});
    traffic.add_segment(f, 0, w.fault_pairs, true, next_key);
    f.push_back({Step::kCrash, {}, 0, {}});
    traffic.add_segment(f, 0, w.fault_pairs, true, next_key);
    f.push_back({Step::kRestart, {}, 0, {}});
    f.push_back({Step::kLossOff, {}, 0, {}});
  }
  return s;
}

Event build_event(const Workload& w, const EventParams& p) {
  Event e;
  if (w.shape == Shape::kFeeds) {
    e.with("stream", "feed").with("feed", feed_url(p.feed));
  } else {
    e.with("hot", p.hot).with("cat", p.cat).with("tier", p.tier).with("title",
                                                                       p.title);
  }
  return e;
}

// --- oracle -------------------------------------------------------------------

/// Expected deliveries, computed from the live subscription set with
/// Filter::matches and score_event only. A delivery is encoded as
/// (event index << 32 | subscription key).
class Oracle {
 public:
  /// Groups the standing population by filter, so each distinct filter is
  /// evaluated once per event.
  explicit Oracle(const std::vector<SubSpec>& population) {
    std::map<std::string, std::size_t> group_of;
    for (std::size_t i = 0; i < population.size(); ++i) {
      const SubSpec& sub = population[i];
      const auto [it, fresh] = group_of.emplace(sub.filter.key(), groups_.size());
      if (fresh) groups_.push_back({sub.filter, {}});
      groups_[it->second].members.push_back(
          {static_cast<std::uint32_t>(i), &sub.spec});
    }
  }

  /// Sorted expected deliveries of `events` to the population plus the live
  /// churn subscriptions. Every match is delivered, except that a spec with
  /// min_score drops lower scores and a spec with top_k keeps only the k
  /// best per (subscription, bundle), ties going to the earlier event.
  std::vector<std::uint64_t> expect(
      const std::vector<Event>& events,
      const std::map<std::uint32_t, SubSpec>& churn) const {
    std::vector<std::uint64_t> out;
    std::vector<Candidate> scored;
    auto offer = [&](std::uint32_t key, const ScoringSpec& spec,
                     std::uint32_t n) {
      if (spec.neutral()) {
        out.push_back((std::uint64_t{n} << 32) | key);
        return;
      }
      const double score = reef::pubsub::score_event(spec, events[n]);
      if (score >= spec.min_score) scored.push_back({key, score, n, &spec});
    };
    for (std::uint32_t n = 0; n < events.size(); ++n) {
      for (const Group& g : groups_) {
        if (!g.filter.matches(events[n])) continue;
        for (const Member& m : g.members) offer(m.key, *m.spec, n);
      }
      for (const auto& [key, sub] : churn) {
        if (sub.filter.matches(events[n])) offer(key, sub.spec, n);
      }
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      if (a.key != b.key) return a.key < b.key;
      if (a.score != b.score) return a.score > b.score;
      return a.n < b.n;
    });
    std::size_t kept = 0;
    for (std::size_t i = 0; i < scored.size(); ++i) {
      kept = i > 0 && scored[i - 1].key == scored[i].key ? kept + 1 : 0;
      const std::uint32_t k = scored[i].spec->top_k;
      if (k == 0 || kept < k) {
        out.push_back((std::uint64_t{scored[i].n} << 32) | scored[i].key);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct Member {
    std::uint32_t key;
    const ScoringSpec* spec;
  };
  struct Group {
    Filter filter;
    std::vector<Member> members;
  };
  struct Candidate {
    std::uint32_t key;
    double score;
    std::uint32_t n;
    const ScoringSpec* spec;
  };
  std::vector<Group> groups_;
};

// --- CPU rotation -------------------------------------------------------------

/// Moves the benchmark's one thread to the next CPU the process may use,
/// before every set-up and every repetition of the round. Left alone, a
/// single busy thread stays on one vCPU for minutes, and on a shared host one
/// vCPU can run 30-50% slower than the others for as long (another tenant on
/// the same physical core). Rotating spreads the repetitions of every step
/// over all CPUs, so its fastest repetition, and the median set-up, come
/// from an uncontended one.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

CpuRotation& cpu_rotation() {
  static CpuRotation rotation;
  return rotation;
}

// --- host speed ---------------------------------------------------------------

/// The speed of the CPU the benchmark runs on, read from a fixed calibration
/// loop that runs none of the program's code. On a shared host the same work
/// runs up to 25-50% slower in one run than in another a few minutes later,
/// for the whole run (other tenants on the same cores and caches). The loop
/// slows down with it. Timed metrics are scaled by the ratio of the loop's
/// median time in the run to kReferenceLoopNs, its time on the reference
/// host, so they read as times on that host.
///
/// Each sample runs the loop twice and times the second pass. The first
/// pass brings its 256 KiB table back into the core's caches, so the sample
/// does not depend on what the program left there.
class HostSpeed {
 public:
  /// Median time of the loop on the reference host (4-vCPU Intel Xeon VM,
  /// 2 MiB L2 per core) when it runs at full speed.
  static constexpr double kReferenceLoopNs = 300'000.0;
  /// Wall time between samples taken during a measured phase.
  static constexpr std::int64_t kPeriodNs = 20'000'000;

  std::int64_t sample() {
    loop();
    return loop();
  }

  /// Appends a sample to `into` when kPeriodNs has passed since the last.
  void maybe_sample(std::vector<std::int64_t>& into) {
    if (now_ns() - last_ns_ < kPeriodNs) return;
    into.push_back(sample());
    last_ns_ = now_ns();
  }

  /// The run's slowdown against the reference host, from the samples taken
  /// alongside its wall times: above 1 when the CPU was slower. A wall time
  /// divided by it reads as a time on the reference host.
  static double slowdown(std::vector<std::int64_t> samples) {
    if (samples.empty()) return 1.0;
    std::sort(samples.begin(), samples.end());
    return static_cast<double>(samples[samples.size() / 2]) / kReferenceLoopNs;
  }

 private:
  std::int64_t loop() {
    const std::int64_t t0 = now_ns();
    std::uint32_t x = 1;
    for (int i = 0; i < 200'000; ++i) {
      x = x * 1664525u + 1013904223u;
      table_[x >> 16] += x;
    }
    return now_ns() - t0;
  }

  std::vector<std::uint32_t> table_ = std::vector<std::uint32_t>(1 << 16);
  std::int64_t last_ns_ = 0;
};

HostSpeed& host_speed() {
  static HostSpeed speed;
  return speed;
}

// --- the system under test ----------------------------------------------------

constexpr sim::Time kLinkLatency = sim::kMillisecond;
constexpr sim::Time kStepSlot = 100 * sim::kMillisecond;
constexpr sim::Time kRecoverySlot = 3 * sim::kSecond;
/// Simulated-latency histogram range (1 us bins).
constexpr std::size_t kLatencyBins = 1'000'000;

struct SpanNames {
  std::uint32_t bundle, sub_op, fault, prepare, check, run_until, publish,
      subscribe, unsubscribe, handler;
};

const SpanNames& span_names() {
  static const SpanNames names{
      tracer().name_id("bench.bundle"),     tracer().name_id("bench.sub_op"),
      tracer().name_id("bench.fault"),      tracer().name_id("bench.prepare"),
      tracer().name_id("bench.check"),      tracer().name_id("sim.run_until"),
      tracer().name_id("client.publish_batch"),
      tracer().name_id("client.subscribe"), tracer().name_id("client.unsubscribe"),
      tracer().name_id("client.handler")};
  return names;
}

/// Deliveries seen by the benchmark's handlers while a bundle drains.
struct Recorder {
  AttrId attr_b = AttrTable::instance().intern("b");
  AttrId attr_n = AttrTable::instance().intern("n");
  AttrId attr_t = AttrTable::instance().intern("t");
  std::int64_t open_bundle = -1;
  std::vector<std::uint64_t> got;
  std::uint64_t stray = 0;
  std::int64_t last_ns = 0;
  std::vector<std::uint32_t> latency_hist = std::vector<std::uint32_t>(kLatencyBins + 1);
  std::uint64_t latency_samples = 0;
};

class System {
 public:
  System(const Workload& w, const Schedule& schedule, std::uint64_t seed,
         const std::string& engine)
      : w_(w), schedule_(schedule), net_(sim_, net_config(seed)),
        overlay_(sim_, net_, broker_config(w, engine)) {
    for (std::size_t i = 0; i < w.brokers; ++i) overlay_.add_broker();
    for (std::size_t i = 1; i < w.brokers; ++i) {
      overlay_.link(i - 1, i, kLinkLatency);
    }
    for (std::size_t c = 0; c < w.clients; ++c) {
      clients_.push_back(
          std::make_unique<Client>(sim_, net_, "sub" + std::to_string(c)));
      if (w.faults) clients_.back()->enable_reliable_control(channel_config());
      clients_.back()->connect(overlay_.broker(c % w.brokers));
    }
    publisher_ = std::make_unique<Client>(sim_, net_, "pub");
    publisher_->connect(overlay_.broker(0));
  }
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Places the whole population and runs the simulator until nothing is
  /// left to do.
  void place_population() {
    const auto& population = schedule_.population;
    for (std::size_t i = 0; i < population.size(); ++i) {
      subscribe(population[i], static_cast<std::uint32_t>(i));
    }
    for (int guard = 0; sim_.pending() > 0; ++guard) {
      if (guard > 100'000) throw std::runtime_error("set-up never settled");
      sim_.run_until(sim_.now() + kStepSlot);
    }
  }

  struct Phase {
    std::int64_t wall_ns = 0;
    std::int64_t fault_wall_ns = 0;
    std::uint64_t expected = 0, missing = 0, unexpected = 0;
    /// Repetitions of the round.
    std::size_t rounds = 0;
    /// Per step of the round, its fastest repetition: the whole step (the
    /// call plus its slot of simulated time), and for a bundle the time
    /// from publish_batch to the bundle's last delivery.
    std::vector<std::int64_t> best_step_ns, best_drain_ns;
    /// Calibration-loop times taken between the steps (HostSpeed).
    std::vector<std::int64_t> calibration_ns;
  };

  /// Runs the fault window (with `faults`), then repeats the round until
  /// `rounds` repetitions are done, or (rounds == 0) until `seconds` of wall
  /// time have passed, with at least one repetition.
  Phase measure(std::size_t rounds, double seconds, bool faults) {
    Phase phase;
    const std::size_t steps = schedule_.round.size();
    phase.best_step_ns.assign(steps, std::numeric_limits<std::int64_t>::max());
    phase.best_drain_ns.assign(steps, std::numeric_limits<std::int64_t>::max());
    const std::int64_t start = now_ns();
    if (faults) {
      for (const StepSpec& step : schedule_.fault_window) run_step(step, phase);
    }
    phase.fault_wall_ns = now_ns() - start;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (rounds != 0 ? phase.rounds < rounds
                       : phase.rounds == 0 || now_ns() < deadline) {
      cpu_rotation().next();
      for (std::size_t i = 0; i < steps; ++i) {
        host_speed().maybe_sample(phase.calibration_ns);
        const StepTime t = run_step(schedule_.round[i], phase);
        phase.best_step_ns[i] = std::min(phase.best_step_ns[i], t.step_ns);
        phase.best_drain_ns[i] = std::min(phase.best_drain_ns[i], t.drain_ns);
      }
      ++phase.rounds;
    }
    phase.wall_ns = now_ns() - start;
    return phase;
  }

  /// Keeps every control operation and bundle from now on, for the replay.
  void start_log() { logging_ = true; }
  const std::vector<const StepSpec*>& op_log() const { return op_log_; }
  const std::vector<const BundleParams*>& bundle_log() const {
    return bundle_log_;
  }

  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  Overlay& overlay() { return overlay_; }
  const std::vector<std::unique_ptr<Client>>& clients() const { return clients_; }
  Recorder& recorder() { return rec_; }

 private:
  struct StepTime {
    std::int64_t step_ns = 0;
    std::int64_t drain_ns = 0;
  };

  static sim::Network::Config net_config(std::uint64_t seed) {
    sim::Network::Config config;
    config.default_latency = kLinkLatency;
    config.jitter_fraction = 0.25;
    config.seed = seed;
    return config;
  }
  static Broker::Config broker_config(const Workload& w,
                                      const std::string& engine) {
    Broker::Config config;
    config.matcher_engine = engine;
    config.worker_threads = 0;
    config.scoring_enabled = w.scoring;
    config.reliable_control = w.faults;
    return config;
  }
  static reef::pubsub::ReliableChannel::Config channel_config() {
    reef::pubsub::ReliableChannel::Config config;
    config.enabled = true;
    return config;
  }

  SubscriptionId subscribe(const SubSpec& sub, std::uint32_t key) {
    Client& client = *clients_[sub.client];
    if (sub.spec.neutral()) {
      return client.subscribe(sub.filter, [this, key](const Event& e,
                                                      SubscriptionId) {
        on_delivery(key, e);
      });
    }
    return client.subscribe_scored(
        sub.filter, sub.spec,
        [this, key](const Event& e, SubscriptionId, double) {
          on_delivery(key, e);
        });
  }

  void on_delivery(std::uint32_t key, const Event& e) {
    Span span(span_names().handler);
    rec_.last_ns = now_ns();
    const std::int64_t b = e.find(rec_.attr_b)->as_int();
    if (b != rec_.open_bundle) {
      ++rec_.stray;
      return;
    }
    const std::int64_t n = e.find(rec_.attr_n)->as_int();
    rec_.got.push_back((static_cast<std::uint64_t>(n) << 32) | key);
    const sim::Time latency = sim_.now() - e.find(rec_.attr_t)->as_int();
    ++rec_.latency_hist[std::min<std::size_t>(
        static_cast<std::size_t>(latency), kLatencyBins)];
    ++rec_.latency_samples;
  }

  void run_until_slot(sim::Time slot) {
    Span span(span_names().run_until);
    sim_.run_until(sim_.now() + slot);
  }

  StepTime run_step(const StepSpec& step, Phase& phase) {
    switch (step.step) {
      case Step::kBundle:
        return run_bundle(step, phase);
      case Step::kSubscribe:
      case Step::kUnsubscribe:
        return run_op(step);
      default:
        return run_fault(step.step);
    }
  }

  StepTime run_bundle(const StepSpec& step, Phase& phase) {
    std::vector<Event> events;
    const std::vector<std::uint64_t>* expected = nullptr;
    {
      Span span(span_names().prepare);
      const sim::Time stamp = sim_.now();
      for (std::size_t n = 0; n < step.bundle.size(); ++n) {
        events.push_back(build_event(w_, step.bundle[n])
                             .with("b", next_bundle_)
                             .with("n", static_cast<std::int64_t>(n))
                             .with("t", stamp));
      }
      // Every segment closes the churn subscriptions it opens, so the live
      // set at a step, and with it the step's expected deliveries, is the
      // same in every repetition.
      auto it = expected_.find(&step);
      if (it == expected_.end()) {
        it = expected_.emplace(&step, oracle_.expect(events, live_churn_)).first;
      }
      expected = &it->second;
      if (logging_) bundle_log_.push_back(&step.bundle);
      rec_.open_bundle = next_bundle_++;
      rec_.got.clear();
    }
    const std::int64_t t0 = now_ns();
    rec_.last_ns = t0;
    {
      Span span(span_names().bundle);
      {
        Span publish(span_names().publish);
        publisher_->publish_batch(std::move(events));
      }
      run_until_slot(kStepSlot);
    }
    const StepTime time{now_ns() - t0, rec_.last_ns - t0};

    Span span(span_names().check);
    rec_.open_bundle = -1;
    std::sort(rec_.got.begin(), rec_.got.end());
    std::vector<std::uint64_t> diff;
    std::set_difference(expected->begin(), expected->end(), rec_.got.begin(),
                        rec_.got.end(), std::back_inserter(diff));
    phase.missing += diff.size();
    diff.clear();
    std::set_difference(rec_.got.begin(), rec_.got.end(), expected->begin(),
                        expected->end(), std::back_inserter(diff));
    phase.unexpected += diff.size() + rec_.stray;
    rec_.stray = 0;
    phase.expected += expected->size();
    return time;
  }

  StepTime run_op(const StepSpec& step) {
    const bool opens = step.step != Step::kUnsubscribe;
    const std::int64_t t0 = now_ns();
    {
      Span span(span_names().sub_op);
      if (opens) {
        Span call(span_names().subscribe);
        churn_ids_[step.key] = subscribe(step.sub, step.key);
      } else {
        Span call(span_names().unsubscribe);
        clients_[step.sub.client]->unsubscribe(churn_ids_.at(step.key));
      }
      run_until_slot(kStepSlot);
    }
    const std::int64_t t1 = now_ns();

    Span span(span_names().prepare);
    if (opens) {
      live_churn_.emplace(step.key, step.sub);
    } else {
      live_churn_.erase(step.key);
      churn_ids_.erase(step.key);
    }
    if (logging_) op_log_.push_back(&step);
    return {t1 - t0, t1 - t0};
  }

  StepTime run_fault(Step step) {
    const std::int64_t t0 = now_ns();
    Span span(span_names().fault);
    sim::Time slot = kStepSlot;
    switch (step) {
      case Step::kLossOn:
        overlay_.set_link_loss(kLossyA, kLossyB, kLossProbability);
        break;
      case Step::kCrash:
        overlay_.crash(kCrashed);
        break;
      case Step::kRestart:
        overlay_.restart(kCrashed);
        slot = kRecoverySlot;
        break;
      case Step::kLossOff:
        overlay_.set_link_loss(kLossyA, kLossyB, 0.0);
        slot = kRecoverySlot;
        break;
      default:
        throw std::logic_error("not a fault step");
    }
    run_until_slot(slot);
    const std::int64_t dt = now_ns() - t0;
    return {dt, dt};
  }

  const Workload& w_;
  const Schedule& schedule_;
  Oracle oracle_{schedule_.population};
  sim::Simulator sim_;
  sim::Network net_;
  Overlay overlay_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unique_ptr<Client> publisher_;
  /// Live churn subscriptions by key.
  std::map<std::uint32_t, SubSpec> live_churn_;
  std::map<std::uint32_t, SubscriptionId> churn_ids_;
  /// Expected deliveries of each bundle step, computed on its first run.
  std::map<const StepSpec*, std::vector<std::uint64_t>> expected_;
  std::int64_t next_bundle_ = 0;
  bool logging_ = false;
  std::vector<const StepSpec*> op_log_;
  std::vector<const BundleParams*> bundle_log_;
  Recorder rec_;
};

/// What the fastest repetition of each step of the round adds up to, with
/// every time divided by `slowdown` (HostSpeed::slowdown; 1 = as measured).
struct Costs {
  double events_per_s = 0.0;
  double ops_per_s = 0.0;
  std::vector<double> bundle_ms;  ///< publish_batch to last delivery
  std::vector<double> op_ms;      ///< call plus its slot of simulated time
};

Costs costs(const Schedule& schedule, const System::Phase& phase,
            double slowdown) {
  Costs c;
  std::uint64_t events = 0;
  double bundle_ns = 0.0, op_ns = 0.0;
  for (std::size_t i = 0; i < schedule.round.size(); ++i) {
    const double step_ns = static_cast<double>(phase.best_step_ns[i]) / slowdown;
    if (schedule.round[i].step == Step::kBundle) {
      events += schedule.round[i].bundle.size();
      bundle_ns += step_ns;
      c.bundle_ms.push_back(static_cast<double>(phase.best_drain_ns[i]) /
                            slowdown / 1e6);
    } else {
      op_ns += step_ns;
      c.op_ms.push_back(step_ns / 1e6);
    }
  }
  if (bundle_ns > 0.0) c.events_per_s = 1e9 * static_cast<double>(events) / bundle_ns;
  if (op_ns > 0.0) c.ops_per_s = 1e9 * static_cast<double>(c.op_ms.size()) / op_ns;
  return c;
}

// --- counters -----------------------------------------------------------------

struct Counters {
  std::uint64_t subs_received = 0, subs_forwarded = 0, pubs_forwarded = 0,
                pub_msgs = 0, broker_deliveries = 0, deliver_msgs = 0,
                scored_matches = 0, suppressed_by_k = 0, flushed_units = 0,
                resync_bytes = 0;
  sim::Time residence_ticks = 0;
  std::uint64_t ctrl_sent = 0, retransmits = 0, acks_sent = 0;
  std::uint64_t net_messages = 0, net_bytes = 0, net_dropped = 0;
  std::uint64_t client_deliveries = 0, sim_executed = 0, event_copies = 0;

  Counters operator-(const Counters& o) const {
    Counters d;
    d.subs_received = subs_received - o.subs_received;
    d.subs_forwarded = subs_forwarded - o.subs_forwarded;
    d.pubs_forwarded = pubs_forwarded - o.pubs_forwarded;
    d.pub_msgs = pub_msgs - o.pub_msgs;
    d.broker_deliveries = broker_deliveries - o.broker_deliveries;
    d.deliver_msgs = deliver_msgs - o.deliver_msgs;
    d.scored_matches = scored_matches - o.scored_matches;
    d.suppressed_by_k = suppressed_by_k - o.suppressed_by_k;
    d.flushed_units = flushed_units - o.flushed_units;
    d.resync_bytes = resync_bytes - o.resync_bytes;
    d.residence_ticks = residence_ticks - o.residence_ticks;
    d.ctrl_sent = ctrl_sent - o.ctrl_sent;
    d.retransmits = retransmits - o.retransmits;
    d.acks_sent = acks_sent - o.acks_sent;
    d.net_messages = net_messages - o.net_messages;
    d.net_bytes = net_bytes - o.net_bytes;
    d.net_dropped = net_dropped - o.net_dropped;
    d.client_deliveries = client_deliveries - o.client_deliveries;
    d.sim_executed = sim_executed - o.sim_executed;
    d.event_copies = event_copies - o.event_copies;
    return d;
  }
};

Counters snapshot(System& sys) {
  Counters c;
  for (std::size_t i = 0; i < sys.overlay().size(); ++i) {
    const Broker& broker = sys.overlay().broker(i);
    const Broker::Stats s = broker.stats();
    c.subs_received += s.subs_received;
    c.subs_forwarded += s.subs_forwarded;
    c.pubs_forwarded += s.pubs_forwarded;
    c.pub_msgs += s.pub_msgs_sent;
    c.broker_deliveries += s.deliveries;
    c.deliver_msgs += s.deliver_msgs_sent;
    c.scored_matches += s.scored_matches;
    c.suppressed_by_k += s.suppressed_by_k;
    c.flushed_units += s.flushed_units;
    c.residence_ticks += s.residence_ticks_total;
    c.resync_bytes += s.resync_bytes;
    const auto& ch = broker.control_channel().stats();
    c.ctrl_sent += ch.ctrl_sent;
    c.retransmits += ch.retransmits;
    c.acks_sent += ch.acks_sent;
  }
  for (const auto& client : sys.clients()) {
    const auto& ch = client->control_channel().stats();
    c.ctrl_sent += ch.ctrl_sent;
    c.retransmits += ch.retransmits;
    c.acks_sent += ch.acks_sent;
    c.client_deliveries += client->deliveries();
  }
  c.net_messages = sys.net().total_messages();
  c.net_bytes = sys.net().total_bytes();
  c.net_dropped = sys.net().dropped_messages();
  c.sim_executed = sys.sim().executed();
  c.event_copies = Event::copy_count();
  return c;
}

// --- replay through benchmark-owned routing tables ------------------------------

/// One RoutingTable per broker of the chain, driven synchronously the way
/// Broker drives its table: a client operation is applied at its broker,
/// then every filter a refresh hands to a neighbor is applied there and
/// refreshes that neighbor's other interfaces. Each refresh call is timed.
class MirrorChain {
 public:
  MirrorChain(std::size_t brokers, const std::string& engine) {
    for (std::size_t b = 0; b < brokers; ++b) {
      RoutingTable::Config config;
      config.engine = engine;
      tables_.push_back(std::make_unique<RoutingTable>(config));
      if (b > 0) tables_[b]->add_broker_iface(iface(b - 1));
      if (b + 1 < brokers) tables_[b]->add_broker_iface(iface(b + 1));
    }
  }

  /// Applies one client subscribe (filter != nullptr) or unsubscribe and
  /// returns the refresh time it caused, in ns.
  std::int64_t client_op(std::size_t broker, std::uint32_t client,
                         SubscriptionId sub, const SubSpec* spec) {
    RoutingTable& table = *tables_[broker];
    if (spec != nullptr) {
      table.client_subscribe(kClientBase + client, sub, spec->filter, spec->spec);
    } else if (!table.client_unsubscribe(kClientBase + client, sub)) {
      return 0;
    }
    std::int64_t spent = 0;
    std::deque<std::pair<std::size_t, std::size_t>> work{{broker, kNone}};
    while (!work.empty()) {
      const auto [b, from] = work.front();
      work.pop_front();
      for (const std::size_t n : {b - 1, b + 1}) {
        if (n >= tables_.size() || n == from) continue;  // b - 1 wraps at 0
        const std::int64_t t0 = now_ns();
        RoutingTable::Diff diff = tables_[b]->refresh(iface(n));
        const std::int64_t dt = now_ns() - t0;
        spent += dt;
        refresh_ns_.push_back(dt);
        for (Filter& f : diff.subscribe) {
          if (tables_[n]->broker_subscribe(iface(b), std::move(f))) {
            work.emplace_back(n, b);
          }
        }
        for (const Filter& f : diff.unsubscribe) {
          if (tables_[n]->broker_unsubscribe(iface(b), f)) work.emplace_back(n, b);
        }
      }
    }
    return spent;
  }

  const std::vector<std::int64_t>& refresh_ns() const { return refresh_ns_; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::uint32_t kClientBase = 1u << 20;
  static RoutingTable::IfaceId iface(std::size_t b) {
    return static_cast<RoutingTable::IfaceId>(b);
  }

  std::vector<std::unique_ptr<RoutingTable>> tables_;
  std::vector<std::int64_t> refresh_ns_;
};

struct Replay {
  double refresh_s = 0.0;         ///< every refresh, population included
  double refresh_ops_s = 0.0;     ///< refreshes caused by the measured ops
  std::uint64_t refresh_calls = 0;
  double refresh_ms_p99 = 0.0;
  double refresh_growth = 0.0;
  double match_s = 0.0;
  double match_scored_s = 0.0;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

Replay replay(const Workload& w, const Schedule& schedule,
              const std::vector<const StepSpec*>& ops,
              const std::vector<const BundleParams*>& bundles) {
  Replay r;
  MirrorChain chain(w.brokers, w.engine);
  std::vector<double> per_op_ns;
  SubscriptionId next_sub = 1;
  for (const SubSpec& sub : schedule.population) {
    per_op_ns.push_back(static_cast<double>(chain.client_op(
        sub.client % w.brokers, static_cast<std::uint32_t>(sub.client),
        next_sub++, &sub)));
  }
  // Per-operation refresh cost at the full population over the cost at half
  // of it: ~1 when refresh is flat in table size, ~2 when it is linear.
  const std::size_t n = per_op_ns.size();
  auto window_mean = [&](std::size_t lo, std::size_t hi) {
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += per_op_ns[i];
    return sum / static_cast<double>(std::max<std::size_t>(1, hi - lo));
  };
  const double half = window_mean(n * 4 / 10, n * 5 / 10);
  r.refresh_growth = half > 0.0 ? window_mean(n * 9 / 10, n) / half : 0.0;

  // The logged phase's control operations (the faults are not replayed).
  std::map<std::uint32_t, SubscriptionId> churn_ids;
  std::int64_t ops_ns = 0;
  for (const StepSpec* op : ops) {
    const bool opens = op->step != Step::kUnsubscribe;
    if (opens) churn_ids[op->key] = next_sub++;
    ops_ns += chain.client_op(op->sub.client % w.brokers,
                              static_cast<std::uint32_t>(op->sub.client),
                              churn_ids[op->key], opens ? &op->sub : nullptr);
  }
  std::vector<double> calls_ms;
  std::int64_t all_ns = 0;
  for (const std::int64_t ns : chain.refresh_ns()) {
    all_ns += ns;
    calls_ms.push_back(static_cast<double>(ns) / 1e6);
  }
  r.refresh_s = static_cast<double>(all_ns) / 1e9;
  r.refresh_ops_s = static_cast<double>(ops_ns) / 1e9;
  r.refresh_calls = calls_ms.size();
  r.refresh_ms_p99 = percentile(calls_ms, 0.99);

  // Matching and scoring over one table that holds the whole population, as
  // if every subscriber sat on one broker: the scored path minus the boolean
  // path is what scoring and the top-k bookkeeping cost.
  RoutingTable::Config config;
  config.engine = w.engine;
  RoutingTable flat(config);
  for (std::size_t i = 0; i < schedule.population.size(); ++i) {
    const SubSpec& sub = schedule.population[i];
    flat.client_subscribe(static_cast<RoutingTable::IfaceId>(sub.client), i + 1,
                          sub.filter, sub.spec);
  }
  std::vector<std::vector<RoutingTable::Destination>> plain;
  std::vector<std::vector<RoutingTable::ScoredDestination>> scored;
  std::int64_t match_ns = 0, scored_ns = 0;
  for (const BundleParams* params : bundles) {
    std::vector<Event> events;
    for (const EventParams& p : *params) events.push_back(build_event(w, p));
    const std::int64_t t0 = now_ns();
    flat.match_batch(events, plain);
    const std::int64_t t1 = now_ns();
    flat.match_batch_scored(events, scored);
    const std::int64_t t2 = now_ns();
    match_ns += t1 - t0;
    scored_ns += t2 - t1;
  }
  r.match_s = static_cast<double>(match_ns) / 1e9;
  r.match_scored_s = static_cast<double>(scored_ns) / 1e9;
  return r;
}

// --- reporting ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double latency_ms_percentile(const Recorder& rec, double q) {
  if (rec.latency_samples == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(rec.latency_samples)));
  std::uint64_t seen = 0;
  for (std::size_t us = 0; us < rec.latency_hist.size(); ++us) {
    seen += rec.latency_hist[us];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      return static_cast<double>(us) / 1000.0;
    }
  }
  return static_cast<double>(kLatencyBins) / 1000.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_result(const Args& args, const System::Phase& checked,
                  const std::vector<Metric>& metrics,
                  const std::vector<Metric>& report) {
  const std::uint64_t failed = checked.missing + checked.unexpected;
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ",
              json_escape(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf("\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              failed == 0 && checked.expected > 0 ? "true" : "false",
              static_cast<unsigned long long>(checked.expected),
              static_cast<unsigned long long>(failed));
  auto print_map = [](const char* key, const std::vector<Metric>& list) {
    std::printf("\"%s\": {", key);
    for (std::size_t i = 0; i < list.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", list[i].name.c_str(), list[i].value,
                  list[i].unit.c_str());
    }
    std::printf("}");
  };
  print_map("metrics", metrics);
  std::printf(", ");
  print_map("report", report);
  std::printf("}\n");
}

System::Phase merged(const System::Phase& a, const System::Phase& b) {
  System::Phase m = a;
  m.expected += b.expected;
  m.missing += b.missing;
  m.unexpected += b.unexpected;
  return m;
}

std::vector<Metric> checked_report(const System::Phase& p) {
  return {{"delivery_error_ratio",
           ratio(static_cast<double>(p.missing + p.unexpected),
                 static_cast<double>(p.expected)),
           "ratio"},
          {"deliveries_expected", static_cast<double>(p.expected), "count"},
          {"deliveries_missing", static_cast<double>(p.missing), "count"},
          {"deliveries_unexpected", static_cast<double>(p.unexpected), "count"}};
}

int run_end_to_end(const Args& args, const Workload& w,
                   const Schedule& schedule) {
  std::vector<double> setup_s;
  std::vector<std::int64_t> setup_calibration_ns;
  std::unique_ptr<System> sys;
  const std::int64_t setups_start = now_ns();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups &&
          now_ns() - setups_start < static_cast<std::int64_t>(kSetupSeconds * 1e9))) {
    sys.reset();
    cpu_rotation().next();
    for (int k = 0; k < kSetupCalibrationSamples; ++k) {
      setup_calibration_ns.push_back(host_speed().sample());
    }
    const std::int64_t t0 = now_ns();
    sys = std::make_unique<System>(w, schedule, args.seed, w.engine);
    sys->place_population();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  // One warm-up round (checked, not timed) fills caches and lazy state.
  const System::Phase warm = sys->measure(1, 0.0, false);
  Recorder& rec = sys->recorder();
  std::fill(rec.latency_hist.begin(), rec.latency_hist.end(), 0);
  rec.latency_samples = 0;
  const System::Phase p = sys->measure(args.rounds, args.seconds, true);
  const double setup_slowdown = HostSpeed::slowdown(setup_calibration_ns);
  const double slowdown = HostSpeed::slowdown(p.calibration_ns);
  const Costs c = costs(schedule, p, slowdown);
  const Costs raw = costs(schedule, p, 1.0);

  const std::vector<Metric> metrics = {
      {"setup_s", percentile(setup_s, 0.5) / setup_slowdown, "s"},
      {"events_per_s", c.events_per_s, "1/s"},
      {"bundle_ms_p50", percentile(c.bundle_ms, 0.5), "ms"},
      {"bundle_ms_p90", percentile(c.bundle_ms, 0.9), "ms"},
      {"sub_ops_per_s", c.ops_per_s, "1/s"},
      {"sub_op_ms_p90", percentile(c.op_ms, 0.9), "ms"},
      {"deliver_latency_sim_ms_p50", latency_ms_percentile(rec, 0.5), "ms"},
      {"deliver_latency_sim_ms_p99", latency_ms_percentile(rec, 0.99), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const System::Phase checked = merged(p, warm);
  std::vector<Metric> report = checked_report(checked);
  // The timed metrics as measured, before scaling to the reference host.
  report.push_back({"host_slowdown", slowdown, "ratio"});
  report.push_back({"host_slowdown_setup", setup_slowdown, "ratio"});
  report.push_back({"calibration_samples", static_cast<double>(p.calibration_ns.size()), "count"});
  report.push_back({"setup_s_raw", percentile(setup_s, 0.5), "s"});
  report.push_back({"events_per_s_raw", raw.events_per_s, "1/s"});
  report.push_back({"bundle_ms_p50_raw", percentile(raw.bundle_ms, 0.5), "ms"});
  report.push_back({"bundle_ms_p90_raw", percentile(raw.bundle_ms, 0.9), "ms"});
  report.push_back({"sub_ops_per_s_raw", raw.ops_per_s, "1/s"});
  report.push_back({"sub_op_ms_p90_raw", percentile(raw.op_ms, 0.9), "ms"});
  // Operation costs have two modes (a subscription a neighbour's filter
  // covers stops early; one it does not travels the chain) of about equal
  // weight, so their median jumps between the modes from seed to seed; it is
  // reported here, and the metrics carry the mean (sub_ops_per_s) and p90.
  report.push_back({"sub_op_ms_p50", percentile(c.op_ms, 0.5), "ms"});
  report.push_back({"bundle_ms_max", percentile(c.bundle_ms, 1.0), "ms"});
  report.push_back({"sub_op_ms_max", percentile(c.op_ms, 1.0), "ms"});
  report.push_back({"rounds", static_cast<double>(p.rounds), "count"});
  report.push_back({"round_bundles", static_cast<double>(c.bundle_ms.size()), "count"});
  report.push_back({"round_sub_ops", static_cast<double>(c.op_ms.size()), "count"});
  report.push_back({"latency_samples", static_cast<double>(rec.latency_samples), "count"});
  report.push_back({"setups", static_cast<double>(setup_s.size()), "count"});
  report.push_back({"setup_s_raw_min", *std::min_element(setup_s.begin(), setup_s.end()), "s"});
  report.push_back({"setup_s_raw_max", *std::max_element(setup_s.begin(), setup_s.end()), "s"});
  report.push_back({"population", static_cast<double>(schedule.population.size()), "count"});
  report.push_back({"phase_s", static_cast<double>(p.wall_ns) / 1e9, "s"});
  report.push_back({"fault_s", static_cast<double>(p.fault_wall_ns) / 1e9, "s"});
  print_result(args, checked, metrics, report);
  return checked.missing + checked.unexpected == 0 && checked.expected > 0 ? 0 : 1;
}

int run_traced(const Args& args, const Workload& w, const Schedule& schedule) {
  const std::string engine = TimedMatcher::register_around(w.engine);
  const SpanNames& names = span_names();
  System sys(w, schedule, args.seed, engine);
  sys.place_population();
  const System::Phase warm = sys.measure(1, 0.0, false);
  // Untraced then traced halves on the same overlay: the ratio of their
  // events_per_s is the tracing overhead.
  const System::Phase plain = sys.measure(args.rounds, args.seconds / 2, true);
  const Counters before = snapshot(sys);
  tracer().set_enabled(true);
  sys.start_log();
  const System::Phase traced = sys.measure(args.rounds, args.seconds / 2, true);
  tracer().set_enabled(false);
  const Counters d = snapshot(sys) - before;
  const Counters total = snapshot(sys);
  const Replay r = replay(w, schedule, sys.op_log(), sys.bundle_log());

  const Tracer& t = tracer();
  auto self_s = [&](std::uint32_t name) {
    return static_cast<double>(t.totals(name).self_ns) / 1e9;
  };
  const double wall = static_cast<double>(traced.wall_ns) / 1e9;
  const double matcher_s = self_s(TimedMatcher::match_batch_name()) +
                           self_s(TimedMatcher::match_name());
  const double add_remove_s =
      self_s(TimedMatcher::add_name()) + self_s(TimedMatcher::remove_name());
  const double handler_s = self_s(names.handler);
  const double client_api_s =
      self_s(names.publish) + self_s(names.subscribe) + self_s(names.unsubscribe);
  const double broker_s = self_s(names.run_until);
  const double bench_s = self_s(names.bundle) + self_s(names.sub_op) +
                         self_s(names.fault) + self_s(names.prepare) +
                         self_s(names.check);
  const double eps_plain =
      costs(schedule, plain, HostSpeed::slowdown(plain.calibration_ns)).events_per_s;
  const double eps_traced =
      costs(schedule, traced, HostSpeed::slowdown(traced.calibration_ns)).events_per_s;
  const MatcherCounts& mc = matcher_counts();
  const double deliveries = static_cast<double>(d.client_deliveries);

  const std::vector<Metric> metrics = {
      {"matcher.match_batch_s", matcher_s, "s"},
      {"matcher.events", static_cast<double>(mc.events), "count"},
      {"matcher.hits_per_event", ratio(static_cast<double>(mc.hits),
                                       static_cast<double>(mc.events)), "ratio"},
      {"matcher.add_remove_s", add_remove_s, "s"},
      {"matcher.add_remove_calls", static_cast<double>(mc.add_remove_calls), "count"},
      {"matcher.share", ratio(matcher_s + add_remove_s, wall), "ratio"},
      {"routing_table.refresh_s", r.refresh_s, "s"},
      {"routing_table.refresh_calls", static_cast<double>(r.refresh_calls), "count"},
      {"routing_table.refresh_ms_p99", r.refresh_ms_p99, "ms"},
      {"routing_table.refresh_growth", r.refresh_growth, "ratio"},
      {"routing_table.refresh_share", ratio(r.refresh_ops_s, wall), "ratio"},
      {"routing_table.forwarded_ratio",
       ratio(static_cast<double>(total.subs_forwarded),
             static_cast<double>(total.subs_received)), "ratio"},
      {"overlay.table_size", static_cast<double>(sys.overlay().total_table_size()),
       "count"},
      {"scoring.scored_matches", static_cast<double>(d.scored_matches), "count"},
      {"scoring.suppressed_by_k", static_cast<double>(d.suppressed_by_k), "count"},
      {"scoring.kept_ratio",
       ratio(static_cast<double>(d.scored_matches - d.suppressed_by_k),
             static_cast<double>(d.scored_matches)), "ratio"},
      {"scoring.score_s", r.match_scored_s - r.match_s, "s"},
      {"scoring.share", ratio(r.match_scored_s - r.match_s, wall), "ratio"},
      {"broker.self_s", broker_s, "s"},
      {"broker.share", ratio(broker_s, wall), "ratio"},
      {"broker.events_per_wire_msg",
       ratio(static_cast<double>(d.pubs_forwarded + d.broker_deliveries),
             static_cast<double>(d.pub_msgs + d.deliver_msgs)), "ratio"},
      {"broker.residence_ticks_mean",
       ratio(static_cast<double>(d.residence_ticks),
             static_cast<double>(d.flushed_units)), "ticks"},
      {"broker.resync_bytes", static_cast<double>(d.resync_bytes), "bytes"},
      {"event.copies_per_delivery",
       ratio(static_cast<double>(d.event_copies), deliveries), "ratio"},
      {"network.messages", static_cast<double>(d.net_messages), "count"},
      {"network.bytes_per_delivery",
       ratio(static_cast<double>(d.net_bytes), deliveries), "bytes"},
      {"network.dropped", static_cast<double>(d.net_dropped), "count"},
      {"simulator.events_executed", static_cast<double>(d.sim_executed), "count"},
      {"reliable_channel.ctrl_sent", static_cast<double>(d.ctrl_sent), "count"},
      {"reliable_channel.retransmits", static_cast<double>(d.retransmits), "count"},
      {"reliable_channel.acks_sent", static_cast<double>(d.acks_sent), "count"},
      {"client.handler_s", handler_s, "s"},
      {"client.deliveries", deliveries, "count"},
      {"client.share", ratio(handler_s + client_api_s, wall), "ratio"},
      {"bench.share", ratio(bench_s, wall), "ratio"},
      {"trace.self_coverage",
       ratio(static_cast<double>(t.self_ns_all()) / 1e9, wall), "ratio"},
      {"trace.events_per_s_untraced", eps_plain, "1/s"},
      {"trace.events_per_s_traced", eps_traced, "1/s"},
      {"trace.overhead_ratio", ratio(eps_plain, eps_traced), "ratio"},
  };
  const System::Phase checked = merged(merged(traced, plain), warm);
  std::vector<Metric> report = checked_report(checked);
  report.push_back({"rounds_untraced", static_cast<double>(plain.rounds), "count"});
  report.push_back({"rounds_traced", static_cast<double>(traced.rounds), "count"});
  report.push_back({"traced_phase_s", wall, "s"});
  report.push_back({"spans_seen", static_cast<double>(t.spans_seen()), "count"});
  if (!args.spans.empty() && !t.write(args.spans)) {
    std::fprintf(stderr, "overlay_bench: cannot write spans to %s\n",
                 args.spans.c_str());
    return 2;
  }
  print_result(args, checked, metrics, report);
  return checked.missing + checked.unexpected == 0 && checked.expected > 0 ? 0 : 1;
}

}  // namespace
}  // namespace overlaybench

int main(int argc, char** argv) {
  using namespace overlaybench;
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = workload_named(args.workload);
    const Schedule schedule = make_schedule(w, args.seed);
    return args.trace ? run_traced(args, w, schedule)
                      : run_end_to_end(args, w, schedule);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "overlay_bench: %s\n", e.what());
    return 2;
  }
}
