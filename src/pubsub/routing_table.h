// Covering-based subscription routing table (the Siena-style routing core,
// extracted from the Broker so it can be unit-tested and reused without a
// simulated network).
//
// A RoutingTable tracks, per interface (neighbor broker or attached
// client), the filters reachable through that interface, answers "which
// interfaces does this event cross" via a pluggable matching engine, and
// computes the covering-pruned subscribe/unsubscribe delta that each
// neighbor should receive: a filter is not forwarded to a neighbor if
// another filter visible to that neighbor covers it. The table never
// touches the network — the Broker is a thin message adapter that feeds it
// protocol events and ships the diffs it returns.
//
// The covering control plane is incremental: every distinct canonical key
// is one record in a persistent covering index, each neighbor's
// desired/forwarded status per record is kept up to date as filters come
// and go, and refresh() only diffs the records whose status changed since
// the previous call. minimal_cover_naive() over the whole table is the
// oracle it is held to (full_recompute()).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pubsub/filter.h"
#include "pubsub/matcher.h"
#include "pubsub/matcher_registry.h"

namespace reef::pubsub {

class RoutingTable {
 public:
  /// Interface identifier. Deliberately a bare integer (not sim::NodeId)
  /// so the routing core stays independent of the simulation layer; the
  /// Broker passes its node ids through unchanged.
  using IfaceId = std::uint32_t;
  static constexpr IfaceId kNoIface = 0xffffffff;

  struct Config {
    /// Covering-based pruning of forwarded subscriptions (ablation knob;
    /// off = every visible filter is forwarded and no covering index is
    /// kept).
    bool covering_enabled = true;
    /// Matching engine, by MatcherRegistry name. "sharded:<inner>" selects
    /// the sharded layer explicitly; see shard_count / worker_threads.
    std::string engine = std::string(kDefaultEngine);
    /// Filter-state shards for the matching engine. 0 = auto: plain
    /// engine names stay unsharded (the ablation baseline) while a
    /// "sharded:" engine gets kDefaultShardCount, matching registry
    /// creation by name. An explicit value wraps `engine` in a
    /// ShardedMatcher with exactly that many shards (1 = the single-shard
    /// ablation of the sharded structure).
    std::size_t shard_count = 0;
    /// Worker threads fanning match_batch over the shards; 0 = inline.
    std::size_t worker_threads = 0;
    /// Shard-aware event pre-filtering inside a sharded engine (ablation
    /// knob; byte-identical output either way). Ignored when the engine
    /// ends up unsharded.
    bool prefilter_enabled = true;
  };

  /// Where a matched event must go: an interface plus, for client
  /// interfaces, the client's own subscription id.
  struct Destination {
    IfaceId iface = kNoIface;
    bool is_broker = false;
    SubscriptionId client_sub = 0;  ///< valid when !is_broker
  };

  /// A destination decorated with its relevance score and, for client
  /// subscriptions with a non-neutral ScoringSpec, the delivery policy to
  /// apply (top_k / min_score). `scoring` is nullptr for neighbor-broker
  /// destinations and for unscored subscriptions — forwarding between
  /// brokers is boolean-only; suppression is an edge-delivery policy. The
  /// pointer is owned by the table and stable until that subscription is
  /// removed or replaced.
  struct ScoredDestination {
    Destination dest;
    double score = kConstantScore;
    const ScoringSpec* scoring = nullptr;
  };

  /// Subscribe/unsubscribe delta for one neighbor, produced by refresh().
  struct Diff {
    std::vector<Filter> subscribe;
    std::vector<Filter> unsubscribe;
    bool empty() const noexcept {
      return subscribe.empty() && unsubscribe.empty();
    }
  };

  RoutingTable();
  explicit RoutingTable(Config config);

  // --- interfaces -----------------------------------------------------------
  /// Declares a neighbor-broker interface (idempotent).
  void add_broker_iface(IfaceId iface);
  /// Declares an attached-client interface (idempotent).
  void add_client_iface(IfaceId iface);
  bool has_broker_iface(IfaceId iface) const {
    return broker_ifaces_.contains(iface);
  }

  // --- subscription state ---------------------------------------------------
  /// Registers a client subscription; a duplicate (client, sub_id) pair
  /// replaces the previous filter. Implicitly declares the client iface.
  /// `scoring` is the subscription's delivery policy; the default
  /// (neutral) spec is a plain unscored subscription.
  void client_subscribe(IfaceId client, SubscriptionId sub_id, Filter filter,
                        ScoringSpec scoring = {});

  /// Retracts a client subscription. Returns false (and changes nothing)
  /// when the (client, sub_id) pair is unknown.
  bool client_unsubscribe(IfaceId client, SubscriptionId sub_id);

  /// Registers a filter received from a neighbor broker, aggregated by
  /// canonical key. Returns false on an idempotent re-subscribe.
  bool broker_subscribe(IfaceId broker, Filter filter);

  /// Retracts a neighbor broker's filter. Returns false when that broker
  /// never registered it.
  bool broker_unsubscribe(IfaceId broker, const Filter& filter);

  // --- fault tolerance ------------------------------------------------------
  /// Drops everything tied to a restarted neighbor: every filter received
  /// *from* `iface` and the forwarded bookkeeping *toward* it (the
  /// neighbor lost its table, so what we handed out is void). The iface
  /// itself stays declared. Returns true if anything was removed.
  bool drop_broker_iface_state(IfaceId iface);

  /// Replace-all apply of a neighbor's full want-set (anti-entropy
  /// resync). Idempotent: filters already registered for `broker` are
  /// kept (dedup by canonical key), missing ones are added, and ones
  /// absent from `want` are removed. Returns true if anything changed.
  bool broker_resync(IfaceId broker, const std::vector<Filter>& want);

  /// Replace-all apply of a client's full subscription set. Idempotent on
  /// (sub_id, filter-key, scoring) triples. Returns true if anything
  /// changed.
  bool client_resync(IfaceId client,
                     const std::vector<ClientSubscription>& subs);

  /// Order-independent digest of the filters received from a neighbor
  /// broker (XOR of per-filter key hashes; 0 when empty). The restarted
  /// requester sends this in its ResyncRequest; a responder whose
  /// forwarded_digest matches can skip the replay.
  std::uint64_t broker_iface_digest(IfaceId iface) const;
  /// Digest of the (sub_id, filter) pairs received from a client.
  std::uint64_t client_iface_digest(IfaceId iface) const;
  /// Digest of the filters currently forwarded *to* a neighbor.
  std::uint64_t forwarded_digest(IfaceId iface) const;

  /// Filters currently forwarded to `iface`, sorted by canonical key —
  /// the responder side of a broker resync replay (refresh() first so
  /// forwarded equals desired, then replay this).
  std::vector<Filter> forwarded_filters(IfaceId iface) const;

  /// Live subscriptions registered by `client` (filter + scoring spec),
  /// sorted by id — the broker side of the client resync replay.
  std::vector<ClientSubscription> client_subscriptions(IfaceId client) const;

  /// Canonical, engine-independent dump of the whole table: one sorted
  /// line per stored entry and per forwarded filter. Two tables with the
  /// same fingerprint route identically; the fault fuzz harness compares
  /// healed runs against the never-faulted oracle with this.
  std::string state_fingerprint() const;

  // --- forwarding -----------------------------------------------------------
  /// Brings the filters forwarded to `neighbor` up to the desired set
  /// (everything visible on other interfaces, reduced to its
  /// covering-minimal form when covering is enabled) and returns the delta
  /// to ship. The desired status is maintained as filters are added and
  /// removed, so a call only compares the records whose status changed
  /// since the previous call (all of them after add_broker_iface or
  /// drop_broker_iface_state). The result equals diffing full_recompute()
  /// against the forwarded set: `subscribe` and `unsubscribe` each come out
  /// in canonical-key order.
  Diff refresh(IfaceId neighbor);

  /// The oracle for refresh(): the desired forwarded set of `neighbor`
  /// recomputed from the whole table with minimal_cover_naive(), keyed by
  /// canonical key. O(n^2) in the table size; for tests and benches only —
  /// no message path calls it.
  std::map<std::string, Filter> full_recompute(IfaceId neighbor) const;

  // --- matching -------------------------------------------------------------
  /// Appends one Destination per matching registration. An interface can
  /// appear multiple times (once per matching client subscription /
  /// neighbor filter); the caller deduplicates broker interfaces.
  void match(const Event& event, std::vector<Destination>& out) const;

  /// Batch matching through Matcher::match_batch: `out` is replaced with
  /// one destination vector per event, parallel to `events`.
  void match_batch(std::span<const Event> events,
                   std::vector<std::vector<Destination>>& out) const;

  /// Scored batch matching, the same steps as Matcher::match_batch_scored:
  /// same destinations as match_batch, each decorated with its relevance
  /// score and (for client subscriptions with a non-neutral spec) the
  /// delivery policy, both from one compiled-spec lookup per hit (see
  /// ScoringIndex). Scores are computed after the boolean match on the
  /// calling thread, so they are identical for every engine/shard/worker
  /// config that agrees on the match sets — which the Matcher contract
  /// guarantees.
  void match_batch_scored(std::span<const Event> events,
                          std::vector<std::vector<ScoredDestination>>& out)
      const;

  // --- introspection --------------------------------------------------------
  /// Total filters stored across all interfaces.
  std::size_t size() const noexcept { return entries_.size(); }
  /// Filters currently forwarded to (i.e. requested from) `neighbor`.
  std::size_t forwarded_size(IfaceId neighbor) const;
  const Matcher& matcher() const noexcept { return *matcher_; }
  const Config& config() const noexcept { return config_; }
  // --- covering reduction (public for tests and benches) --------------------
  /// Reduces a key->filter set to its maximal elements under covering: a
  /// filter is dropped when another filter of the set covers it, and of
  /// two filters that cover each other the one with the smaller key stays.
  /// The plain O(n^2) pairwise loop — the oracle behind full_recompute().
  static std::map<std::string, Filter> minimal_cover_naive(
      std::map<std::string, Filter> filters);

 private:
  struct ClientIface {
    std::unordered_map<SubscriptionId, std::uint64_t> engine_ids;
  };
  /// Dense id of a Record (a slot in records_; freed slots are reused).
  using RecordId = std::uint32_t;

  /// Per-record cover state toward one neighbor (BrokerIface::flags).
  enum CoverFlag : std::uint8_t {
    kDesired = 1,    ///< visible to the neighbor and not dominated
    kForwarded = 2,  ///< handed out to the neighbor by a refresh
    kTouched = 4,    ///< listed in BrokerIface::touched
  };

  struct BrokerIface {
    /// Aggregated filters received from this neighbor, by canonical key.
    std::unordered_map<std::string, std::uint64_t> engine_ids;
    /// CoverFlag bits toward this neighbor, indexed by RecordId.
    std::vector<std::uint8_t> flags;
    /// Records whose kDesired bit changed since the last refresh.
    std::vector<RecordId> touched;
    std::size_t forwarded_count = 0;
    /// XOR of Record::key_hash over the forwarded records.
    std::uint64_t forwarded_digest = 0;
    /// kDesired is stale: the next refresh recomputes it for every record
    /// from the covering index (set for a new neighbor and after
    /// drop_broker_iface_state); until then nothing maintains it.
    bool rebuild = true;
  };

  /// One distinct canonical key: the filter once, the interfaces holding
  /// instances of it, and how many neighbors it is forwarded to.
  struct Record {
    Filter filter;
    std::uint64_t key_hash = 0;  ///< fnv1a64(filter.key())
    /// (iface, instance count > 0), sorted by iface. Non-empty exactly
    /// while the record is in the covering index.
    std::vector<std::pair<IfaceId, std::uint32_t>> holders;
    std::uint32_t forwarded_refs = 0;
    /// Visible to `neighbor`: some instance comes from another interface.
    bool visible_to(IfaceId neighbor) const noexcept {
      return holders.size() > 1 ||
             (holders.size() == 1 && holders.front().first != neighbor);
    }
    bool live() const noexcept {
      return !holders.empty() || forwarded_refs != 0;
    }
  };

  /// Persistent candidate index over the records with holders. Both sides
  /// bucket by attribute, and by Value::hash (equal for values that
  /// compare equal, e.g. 3 and 3.0) where a value pins the constraint.
  /// Probes only prune: a hash collision merely adds candidates, and every
  /// candidate is still checked with Filter::covers.
  struct AttrBuckets {
    std::unordered_map<std::uint64_t, std::vector<RecordId>> by_value;
    std::vector<RecordId> other;
    std::size_t size = 0;  ///< ids across by_value and other
  };
  using BucketIndex = std::unordered_map<AttrId, AttrBuckets, AttrIdHash>;

  struct EngineEntry {
    Filter filter;
    IfaceId iface = kNoIface;
    bool from_broker = false;
    SubscriptionId client_sub = 0;  // valid when !from_broker
  };

  std::uint64_t add_entry(Filter filter, IfaceId iface, bool from_broker,
                          SubscriptionId client_sub, ScoringSpec scoring = {});
  void remove_entry(std::uint64_t engine_id);
  Destination destination_of(std::uint64_t engine_id) const;
  /// The stored spec of an entry (neutral when it has none).
  ScoringSpec entry_scoring(std::uint64_t engine_id) const;

  // Covering control plane (routing_table.cpp, "incremental covering").
  BrokerIface& declare_broker_iface(IfaceId iface);
  RecordId intern_record(const Filter& filter);
  void release_if_dead(RecordId id);
  void add_instance(const Filter& filter, IfaceId iface);
  void remove_instance(const Filter& filter, IfaceId iface);
  void index_insert(RecordId id);
  void index_erase(RecordId id);
  template <class Fn>
  bool visit_coverers(const Filter& filter, Fn&& fn) const;
  template <class Fn>
  void visit_covered(const Filter& filter, Fn&& fn) const;
  bool dominated_for(RecordId id, IfaceId neighbor) const;
  void set_desired(BrokerIface& neighbor, RecordId id, bool desired);
  void on_gained(RecordId id);
  void on_lost(RecordId id);
  void rebuild_cover(IfaceId neighbor, BrokerIface& state);

  Config config_;
  std::unordered_map<IfaceId, BrokerIface> broker_ifaces_;
  std::unordered_map<IfaceId, ClientIface> client_ifaces_;

  std::unique_ptr<Matcher> matcher_;
  std::unordered_map<std::uint64_t, EngineEntry> entries_;
  /// Non-neutral specs by engine id, compiled, mirroring entries_ (the
  /// scored match path's lookup surface; see ScoringIndex).
  ScoringIndex scoring_index_;
  std::uint64_t next_engine_id_ = 1;

  // Covering state. Nothing on the match path reads it.
  /// A deque, so a record's key (viewed by record_of_key_) never moves.
  std::deque<Record> records_;
  std::vector<RecordId> free_records_;
  std::unordered_map<std::string_view, RecordId> record_of_key_;
  /// "Who could cover f": each record under one signature constraint.
  BucketIndex coverers_;
  std::vector<RecordId> empty_coverers_;  ///< empty filters cover all
  /// "Whom could g cover": each record under every constraint.
  BucketIndex covered_;
  /// Neighbors whose view of the record being updated flipped (scratch of
  /// add_instance/remove_instance for on_gained/on_lost).
  std::vector<std::pair<IfaceId, BrokerIface*>> flipped_;
};

}  // namespace reef::pubsub
