#include "pubsub/routing_table.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "pubsub/matcher_registry.h"
#include "pubsub/range_index.h"
#include "pubsub/sharded_matcher.h"
#include "util/hash.h"

namespace reef::pubsub {

namespace {

/// Builds the configured engine: a plain registry engine for the unsharded
/// baseline, a ShardedMatcher honoring the config knobs whenever the
/// engine name carries the "sharded:" prefix or either knob is set. With
/// shard_count 0 (auto) a "sharded:" name gets kDefaultShardCount, so the
/// same engine string means the same thing here as in registry creation.
std::unique_ptr<Matcher> make_table_matcher(const RoutingTable::Config& cfg) {
  const auto inner = sharded_inner_engine(cfg.engine);
  if (!inner && cfg.shard_count <= 1 && cfg.worker_threads == 0) {
    return make_matcher(cfg.engine);
  }
  ShardedMatcher::Config sharded;
  sharded.shard_count = cfg.shard_count != 0 ? cfg.shard_count
                        : inner              ? kDefaultShardCount
                                             : 1;
  sharded.worker_threads = cfg.worker_threads;
  sharded.inner_engine = inner ? *inner : cfg.engine;
  sharded.prefilter_enabled = cfg.prefilter_enabled;
  if (!MatcherRegistry::instance().contains(sharded.inner_engine)) {
    // Not wrappable with the config knobs. Defer to the registry, which
    // either resolves the name its own way (a factory registered under a
    // literal "sharded:..." name) or throws the canonical unknown-engine
    // error listing the registered names.
    return make_matcher(cfg.engine);
  }
  return std::make_unique<ShardedMatcher>(std::move(sharded));
}

}  // namespace

RoutingTable::RoutingTable() : RoutingTable(Config{}) {}

RoutingTable::RoutingTable(Config config)
    : config_(std::move(config)), matcher_(make_table_matcher(config_)) {}

void RoutingTable::add_broker_iface(IfaceId iface) {
  declare_broker_iface(iface);
}

RoutingTable::BrokerIface& RoutingTable::declare_broker_iface(IfaceId iface) {
  const auto [it, inserted] = broker_ifaces_.try_emplace(iface);
  if (inserted) it->second.flags.assign(records_.size(), 0);
  return it->second;
}

void RoutingTable::add_client_iface(IfaceId iface) {
  client_ifaces_.try_emplace(iface);
}

std::uint64_t RoutingTable::add_entry(Filter filter, IfaceId iface,
                                      bool from_broker,
                                      SubscriptionId client_sub,
                                      ScoringSpec scoring) {
  const std::uint64_t engine_id = next_engine_id_++;
  matcher_->add(engine_id, filter);
  const auto it = entries_.emplace(
      engine_id, EngineEntry{std::move(filter), iface, from_broker,
                             client_sub}).first;
  scoring_index_.set(engine_id, std::move(scoring));  // no-op when neutral
  add_instance(it->second.filter, iface);
  return engine_id;
}

void RoutingTable::remove_entry(std::uint64_t engine_id) {
  matcher_->remove(engine_id);
  const auto it = entries_.find(engine_id);
  remove_instance(it->second.filter, it->second.iface);
  entries_.erase(it);
  scoring_index_.erase(engine_id);
}

void RoutingTable::client_subscribe(IfaceId client, SubscriptionId sub_id,
                                    Filter filter, ScoringSpec scoring) {
  add_client_iface(client);
  ClientIface& iface = client_ifaces_[client];
  if (const auto it = iface.engine_ids.find(sub_id);
      it != iface.engine_ids.end()) {
    remove_entry(it->second);  // replace semantics on duplicate sub_id
  }
  iface.engine_ids[sub_id] =
      add_entry(std::move(filter), client, /*from_broker=*/false, sub_id,
                std::move(scoring));
}

bool RoutingTable::client_unsubscribe(IfaceId client, SubscriptionId sub_id) {
  const auto iface_it = client_ifaces_.find(client);
  if (iface_it == client_ifaces_.end()) return false;
  const auto sub_it = iface_it->second.engine_ids.find(sub_id);
  if (sub_it == iface_it->second.engine_ids.end()) return false;
  remove_entry(sub_it->second);
  iface_it->second.engine_ids.erase(sub_it);
  return true;
}

bool RoutingTable::broker_subscribe(IfaceId broker, Filter filter) {
  BrokerIface& iface = declare_broker_iface(broker);
  // Copy the key before add_entry moves the filter out.
  std::string key = filter.key();
  if (iface.engine_ids.contains(key)) return false;  // idempotent
  const std::uint64_t engine_id =
      add_entry(std::move(filter), broker, /*from_broker=*/true, 0);
  iface.engine_ids.emplace(std::move(key), engine_id);
  return true;
}

bool RoutingTable::broker_unsubscribe(IfaceId broker, const Filter& filter) {
  const auto iface_it = broker_ifaces_.find(broker);
  if (iface_it == broker_ifaces_.end()) return false;
  const auto key_it = iface_it->second.engine_ids.find(filter.key());
  if (key_it == iface_it->second.engine_ids.end()) return false;
  remove_entry(key_it->second);
  iface_it->second.engine_ids.erase(key_it);
  return true;
}

// --- fault tolerance ---------------------------------------------------------

bool RoutingTable::drop_broker_iface_state(IfaceId iface) {
  const auto it = broker_ifaces_.find(iface);
  if (it == broker_ifaces_.end()) return false;
  BrokerIface& broker = it->second;
  const bool changed =
      !broker.engine_ids.empty() || broker.forwarded_count != 0;
  // Its desired set is recomputed at the next refresh, which then re-sends
  // all of it; until then no status toward it is maintained.
  broker.rebuild = true;
  for (const auto& [key, engine_id] : broker.engine_ids) {
    remove_entry(engine_id);
  }
  broker.engine_ids.clear();
  for (RecordId id = 0; id < broker.flags.size(); ++id) {
    if ((broker.flags[id] & kForwarded) == 0) continue;
    broker.flags[id] &= ~kForwarded;
    --records_[id].forwarded_refs;
    release_if_dead(id);
  }
  broker.forwarded_count = 0;
  broker.forwarded_digest = 0;
  return changed;
}

bool RoutingTable::broker_resync(IfaceId broker,
                                 const std::vector<Filter>& want) {
  BrokerIface& iface = declare_broker_iface(broker);
  std::map<std::string, const Filter*> desired;
  for (const Filter& filter : want) desired.emplace(filter.key(), &filter);
  bool changed = false;
  // Remove what the neighbor no longer wants.
  for (auto it = iface.engine_ids.begin(); it != iface.engine_ids.end();) {
    if (desired.contains(it->first)) {
      ++it;
      continue;
    }
    remove_entry(it->second);
    it = iface.engine_ids.erase(it);
    changed = true;
  }
  // Add what it wants and we don't have (dedup: present keys are kept
  // as-is, so a replayed state is a no-op).
  for (const auto& [key, filter] : desired) {
    if (iface.engine_ids.contains(key)) continue;
    const std::uint64_t engine_id =
        add_entry(*filter, broker, /*from_broker=*/true, 0);
    iface.engine_ids.emplace(key, engine_id);
    changed = true;
  }
  return changed;
}

bool RoutingTable::client_resync(IfaceId client,
                                 const std::vector<ClientSubscription>& subs) {
  add_client_iface(client);
  ClientIface& iface = client_ifaces_.at(client);
  std::unordered_map<SubscriptionId, const ClientSubscription*> desired;
  for (const ClientSubscription& sub : subs) desired.emplace(sub.sub_id, &sub);
  bool changed = false;
  for (auto it = iface.engine_ids.begin(); it != iface.engine_ids.end();) {
    const auto want = desired.find(it->first);
    if (want != desired.end() &&
        entries_.at(it->second).filter.key() == want->second->filter.key() &&
        entry_scoring(it->second) == want->second->scoring) {
      ++it;  // identical (sub_id, filter, scoring): keep, idempotent
      continue;
    }
    remove_entry(it->second);
    it = iface.engine_ids.erase(it);
    changed = true;
  }
  for (const auto& [sub_id, sub] : desired) {
    if (iface.engine_ids.contains(sub_id)) continue;
    iface.engine_ids[sub_id] = add_entry(sub->filter, client,
                                         /*from_broker=*/false, sub_id,
                                         sub->scoring);
    changed = true;
  }
  return changed;
}

std::uint64_t RoutingTable::broker_iface_digest(IfaceId iface) const {
  const auto it = broker_ifaces_.find(iface);
  if (it == broker_ifaces_.end()) return 0;
  std::uint64_t digest = 0;
  for (const auto& [key, engine_id] : it->second.engine_ids) {
    digest ^= util::fnv1a64(key);
  }
  return digest;
}

std::uint64_t RoutingTable::client_iface_digest(IfaceId iface) const {
  const auto it = client_ifaces_.find(iface);
  if (it == client_ifaces_.end()) return 0;
  std::uint64_t digest = 0;
  for (const auto& [sub_id, engine_id] : it->second.engine_ids) {
    digest ^= util::hash_combine(util::fnv1a64(entries_.at(engine_id).filter.key()),
                                 sub_id);
    // Fold non-neutral scoring specs so a spec change (same filter) is
    // not mistaken for matching state; ScoringSpec::hash() is 0 for
    // neutral specs, and folding nothing then keeps the PR 9 digest.
    if (const ScoringSpec* spec = scoring_index_.find(engine_id)) {
      digest ^= util::hash_combine(spec->hash(), sub_id);
    }
  }
  return digest;
}

std::uint64_t RoutingTable::forwarded_digest(IfaceId iface) const {
  const auto it = broker_ifaces_.find(iface);
  return it == broker_ifaces_.end() ? 0 : it->second.forwarded_digest;
}

std::vector<Filter> RoutingTable::forwarded_filters(IfaceId iface) const {
  std::vector<Filter> filters;
  const auto it = broker_ifaces_.find(iface);
  if (it == broker_ifaces_.end()) return filters;
  std::vector<RecordId> ids;
  ids.reserve(it->second.forwarded_count);
  for (RecordId id = 0; id < it->second.flags.size(); ++id) {
    if ((it->second.flags[id] & kForwarded) != 0) ids.push_back(id);
  }
  // Key order, for a deterministic replay.
  std::sort(ids.begin(), ids.end(), [this](RecordId a, RecordId b) {
    return records_[a].filter.key() < records_[b].filter.key();
  });
  filters.reserve(ids.size());
  for (const RecordId id : ids) filters.push_back(records_[id].filter);
  return filters;
}

std::vector<ClientSubscription> RoutingTable::client_subscriptions(
    IfaceId client) const {
  std::vector<ClientSubscription> subs;
  const auto it = client_ifaces_.find(client);
  if (it == client_ifaces_.end()) return subs;
  subs.reserve(it->second.engine_ids.size());
  for (const auto& [sub_id, engine_id] : it->second.engine_ids) {
    subs.push_back(ClientSubscription{sub_id, entries_.at(engine_id).filter,
                                      entry_scoring(engine_id)});
  }
  std::sort(subs.begin(), subs.end(),
            [](const ClientSubscription& a, const ClientSubscription& b) {
              return a.sub_id < b.sub_id;
            });
  return subs;
}

std::string RoutingTable::state_fingerprint() const {
  std::vector<std::string> lines;
  lines.reserve(entries_.size());
  for (const auto& [engine_id, entry] : entries_) {
    if (entry.from_broker) {
      lines.push_back("B " + std::to_string(entry.iface) + " " +
                      entry.filter.key());
    } else {
      std::string line = "C " + std::to_string(entry.iface) + " " +
                         std::to_string(entry.client_sub) + " " +
                         entry.filter.key();
      // Non-neutral scoring is routing state too (a healed broker that
      // lost a spec would over-deliver); neutral entries keep the PR 9
      // fingerprint lines.
      if (const ScoringSpec* spec = scoring_index_.find(engine_id)) {
        line += " " + spec->summary();
      }
      lines.push_back(std::move(line));
    }
  }
  for (const auto& [iface, broker] : broker_ifaces_) {
    for (RecordId id = 0; id < broker.flags.size(); ++id) {
      if ((broker.flags[id] & kForwarded) == 0) continue;
      lines.push_back("F " + std::to_string(iface) + " " +
                      records_[id].filter.key());
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// --- incremental covering ----------------------------------------------------
//
// Each distinct canonical key is one Record. A record is desired for
// neighbor n iff it is visible to n (some instance comes from another
// interface) and no record visible to n dominates it. Dominance is always
// tested against every visible record, never only the forwarded ones, so
// correctness does not rest on Filter::covers being transitive. The status
// changes only when some record's visibility to n flips:
//   - g becomes visible: probe g's own status; every desired f that g
//     dominates turns undesired.
//   - g stops being visible: g turns undesired; every visible f that g
//     dominated is re-probed against all visible records.
// Both probes go through the persistent indexes, so a change costs its
// candidate buckets, not the table. refresh() then diffs only the touched
// records against the forwarded set.

namespace {

/// True when `filter` must be dropped from the minimal cover because
/// `other` covers it (and is not merely an equivalent filter for which
/// `filter` is the canonical, lexicographically-first representative).
bool dominates(const std::string& other_key, const Filter& other,
               const std::string& key, const Filter& filter) {
  if (other_key == key) return false;
  if (!other.covers(filter)) return false;
  return !filter.covers(other) || other_key < key;
}

bool dominates(const Filter& other, const Filter& filter) {
  return dominates(other.key(), other, filter.key(), filter);
}

/// A record is inserted in one pass, so a bucket it already joined in that
/// pass has it at the back.
bool bucket_add(std::vector<std::uint32_t>& bucket, std::uint32_t id) {
  if (!bucket.empty() && bucket.back() == id) return false;
  bucket.push_back(id);
  return true;
}

bool bucket_erase(std::vector<std::uint32_t>& bucket, std::uint32_t id) {
  const auto it = std::find(bucket.begin(), bucket.end(), id);
  if (it == bucket.end()) return false;
  *it = bucket.back();
  bucket.pop_back();
  return true;
}

bool pins_value(const Constraint& c) {
  return c.op() == Op::kEq && eq_bucketable(c.value());
}

/// The slots a filter occupies in the coverers index ("who could cover
/// f"): one signature constraint — a value-pinning equality first, else
/// every bucketable member of a set, else the first constraint's
/// attribute. Soundness rests on Filter::covers: if g covers f, every
/// constraint of g, its signature included, covers some constraint of f on
/// the same attribute. An equality eq(a, v) covers only an equal eq(a, w)
/// (same Value::hash bucket) or an empty set; a set covers only an
/// eq or a non-empty set whose members all match it (so share a bucketable
/// member — null and NaN match nothing) or an empty set. visit_coverers()
/// probes exactly those buckets plus every attribute bucket of f. `fn`
/// gets (attribute, pinned value or nullptr for the attribute bucket).
template <class Fn>
void for_each_coverer_slot(const Filter& filter, Fn&& fn) {
  const Constraint* set_sig = nullptr;
  for (const Constraint& c : filter.constraints()) {
    if (pins_value(c)) {
      fn(c.attr_id(), &c.value());
      return;
    }
    if (set_sig == nullptr && c.op() == Op::kIn &&
        std::any_of(c.members().begin(), c.members().end(), eq_bucketable)) {
      set_sig = &c;
    }
  }
  if (set_sig != nullptr) {
    for (const Value& m : set_sig->members()) {
      if (eq_bucketable(m)) fn(set_sig->attr_id(), &m);
    }
    return;
  }
  fn(filter.constraints().front().attr_id(), nullptr);
}

/// The slots a filter occupies in the covered index ("whom could g
/// cover"): every constraint, value-pinning equalities under their value,
/// all others under their attribute.
template <class Fn>
void for_each_covered_slot(const Filter& filter, Fn&& fn) {
  for (const Constraint& c : filter.constraints()) {
    fn(c.attr_id(), pins_value(c) ? &c.value() : nullptr);
  }
}

}  // namespace

RoutingTable::RecordId RoutingTable::intern_record(const Filter& filter) {
  const std::string& key = filter.key();
  if (const auto it = record_of_key_.find(key); it != record_of_key_.end()) {
    return it->second;
  }
  RecordId id = 0;
  if (!free_records_.empty()) {
    id = free_records_.back();
    free_records_.pop_back();
  } else {
    id = static_cast<RecordId>(records_.size());
    records_.emplace_back();
    for (auto& [neighbor, state] : broker_ifaces_) state.flags.push_back(0);
  }
  Record& rec = records_[id];
  rec.filter = filter;
  rec.key_hash = util::fnv1a64(key);
  record_of_key_.emplace(rec.filter.key(), id);
  return id;
}

void RoutingTable::release_if_dead(RecordId id) {
  Record& rec = records_[id];
  if (rec.live()) return;
  record_of_key_.erase(rec.filter.key());
  rec = Record{};
  free_records_.push_back(id);
}

void RoutingTable::index_insert(RecordId id) {
  const Filter& filter = records_[id].filter;
  if (filter.empty()) {
    // Covers everything; covered only by another empty filter, which the
    // empty-filter probe of visit_covered finds by scanning all records.
    empty_coverers_.push_back(id);
    return;
  }
  const auto add = [id](BucketIndex* index) {
    return [id, index](AttrId attr, const Value* value) {
      AttrBuckets& buckets = (*index)[attr];
      auto& bucket = value != nullptr
                         ? buckets.by_value[value->hash()]
                         : buckets.other;
      if (bucket_add(bucket, id)) ++buckets.size;
    };
  };
  for_each_coverer_slot(filter, add(&coverers_));
  for_each_covered_slot(filter, add(&covered_));
}

void RoutingTable::index_erase(RecordId id) {
  const Filter& filter = records_[id].filter;
  if (filter.empty()) {
    bucket_erase(empty_coverers_, id);
    return;
  }
  const auto erase = [id](BucketIndex* index) {
    return [id, index](AttrId attr, const Value* value) {
      const auto attr_it = index->find(attr);
      if (attr_it == index->end()) return;
      AttrBuckets& buckets = attr_it->second;
      if (value == nullptr) {
        if (bucket_erase(buckets.other, id)) --buckets.size;
      } else if (const auto it = buckets.by_value.find(value->hash());
                 it != buckets.by_value.end()) {
        if (bucket_erase(it->second, id)) --buckets.size;
        if (it->second.empty()) buckets.by_value.erase(it);
      }
      if (buckets.size == 0) index->erase(attr_it);
    };
  };
  for_each_coverer_slot(filter, erase(&coverers_));
  for_each_covered_slot(filter, erase(&covered_));
}

template <class Fn>
bool RoutingTable::visit_coverers(const Filter& filter, Fn&& fn) const {
  const auto visit = [&fn](const std::vector<RecordId>& bucket) {
    for (const RecordId id : bucket) {
      if (fn(id)) return true;
    }
    return false;
  };
  if (visit(empty_coverers_)) return true;
  AttrId prev_attr = kNoAttrId;
  for (const Constraint& c : filter.constraints()) {
    const auto attr_it = coverers_.find(c.attr_id());
    if (attr_it == coverers_.end()) continue;
    const AttrBuckets& buckets = attr_it->second;
    // Constraints are sorted by attribute: one attribute-bucket visit per
    // distinct attribute.
    if (c.attr_id() != prev_attr) {
      prev_attr = c.attr_id();
      if (visit(buckets.other)) return true;
    }
    const auto visit_value = [&](const Value& v) {
      const auto it = buckets.by_value.find(v.hash());
      return it != buckets.by_value.end() && visit(it->second);
    };
    if (pins_value(c)) {
      if (visit_value(c.value())) return true;
    } else if (c.op() == Op::kIn) {
      if (c.members().empty()) {
        // in {} matches nothing: every value-filed signature on this
        // attribute covers it vacuously.
        for (const auto& [value, bucket] : buckets.by_value) {
          if (visit(bucket)) return true;
        }
        continue;
      }
      for (const Value& m : c.members()) {
        if (eq_bucketable(m) && visit_value(m)) return true;
      }
    }
  }
  return false;
}

template <class Fn>
void RoutingTable::visit_covered(const Filter& filter, Fn&& fn) const {
  if (filter.empty()) {
    for (RecordId id = 0; id < records_.size(); ++id) {
      if (!records_[id].holders.empty()) fn(id);
    }
    return;
  }
  // If g covers f, each constraint of g covers some constraint of f on its
  // attribute, so probing with any one constraint of g is sound; take the
  // cheapest. A value-pinning eq(a, v) covers only an eq on a with an
  // equal value (bucket (a, v)) or an empty set on a (the attribute bucket
  // of a); any other constraint reads every bucket of its attribute.
  const AttrBuckets* best = nullptr;
  bool best_pinned = false;
  const std::vector<RecordId>* best_value = nullptr;
  std::size_t best_cost = static_cast<std::size_t>(-1);
  for (const Constraint& c : filter.constraints()) {
    const auto attr_it = covered_.find(c.attr_id());
    if (attr_it == covered_.end()) return;  // no record constrains attr
    const AttrBuckets& buckets = attr_it->second;
    const bool pinned = pins_value(c);
    const std::vector<RecordId>* value_bucket = nullptr;
    std::size_t cost = buckets.size;
    if (pinned) {
      const auto it = buckets.by_value.find(c.value().hash());
      if (it != buckets.by_value.end()) value_bucket = &it->second;
      cost = buckets.other.size() +
             (value_bucket != nullptr ? value_bucket->size() : 0);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = &buckets;
      best_pinned = pinned;
      best_value = value_bucket;
    }
  }
  for (const RecordId id : best->other) fn(id);
  if (best_pinned) {
    if (best_value != nullptr) {
      for (const RecordId id : *best_value) fn(id);
    }
    return;
  }
  for (const auto& [value, bucket] : best->by_value) {
    for (const RecordId id : bucket) fn(id);
  }
}

bool RoutingTable::dominated_for(RecordId id, IfaceId neighbor) const {
  const Filter& filter = records_[id].filter;
  return visit_coverers(filter, [&](RecordId other) {
    if (other == id) return false;
    const Record& rec = records_[other];
    return rec.visible_to(neighbor) && dominates(rec.filter, filter);
  });
}

void RoutingTable::set_desired(BrokerIface& neighbor, RecordId id,
                               bool desired) {
  std::uint8_t& flags = neighbor.flags[id];
  if (((flags & kDesired) != 0) == desired) return;
  flags ^= kDesired;
  if ((flags & kTouched) == 0) {
    flags |= kTouched;
    neighbor.touched.push_back(id);
  }
}

void RoutingTable::add_instance(const Filter& filter, IfaceId iface) {
  const RecordId id = intern_record(filter);
  auto& holders = records_[id].holders;
  const auto it = std::lower_bound(
      holders.begin(), holders.end(), iface,
      [](const auto& holder, IfaceId i) { return holder.first < i; });
  if (it != holders.end() && it->first == iface) {
    ++it->second;  // one more instance on a known interface: nothing flips
    return;
  }
  const bool was_held = !holders.empty();
  const IfaceId sole = holders.size() == 1 ? holders.front().first : kNoIface;
  holders.insert(it, {iface, 1});
  if (was_held && sole == kNoIface) return;  // already visible everywhere
  if (!was_held && config_.covering_enabled) index_insert(id);
  // Newly visible to every neighbor but `iface` when nothing held it, else
  // to the previous sole holder.
  flipped_.clear();
  for (auto& [neighbor, state] : broker_ifaces_) {
    if (state.rebuild) continue;
    if (was_held ? neighbor == sole : neighbor != iface) {
      flipped_.emplace_back(neighbor, &state);
    }
  }
  if (!flipped_.empty()) on_gained(id);
}

void RoutingTable::remove_instance(const Filter& filter, IfaceId iface) {
  const RecordId id = record_of_key_.at(filter.key());
  auto& holders = records_[id].holders;
  const auto it = std::lower_bound(
      holders.begin(), holders.end(), iface,
      [](const auto& holder, IfaceId i) { return holder.first < i; });
  if (--it->second > 0) return;
  holders.erase(it);
  if (holders.size() > 1) return;  // still visible everywhere
  const bool held = !holders.empty();
  const IfaceId sole = held ? holders.front().first : kNoIface;
  // No longer visible to any neighbor but `iface` when nothing holds it,
  // else to the remaining sole holder.
  flipped_.clear();
  for (auto& [neighbor, state] : broker_ifaces_) {
    if (state.rebuild) continue;
    if (held ? neighbor == sole : neighbor != iface) {
      flipped_.emplace_back(neighbor, &state);
    }
  }
  if (!held && config_.covering_enabled) index_erase(id);
  if (!flipped_.empty()) on_lost(id);
  if (!held) release_if_dead(id);
}

void RoutingTable::on_gained(RecordId id) {
  const Filter& filter = records_[id].filter;
  for (auto& [neighbor, state] : flipped_) {
    set_desired(*state, id,
                !config_.covering_enabled || !dominated_for(id, neighbor));
  }
  if (!config_.covering_enabled) return;
  visit_covered(filter, [&](RecordId other) {
    if (other == id) return;
    bool checked = false;
    for (auto& [neighbor, state] : flipped_) {
      if ((state->flags[other] & kDesired) == 0) continue;
      if (!checked) {
        if (!dominates(filter, records_[other].filter)) return;
        checked = true;
      }
      set_desired(*state, other, false);
    }
  });
}

void RoutingTable::on_lost(RecordId id) {
  const Filter& filter = records_[id].filter;
  for (auto& [neighbor, state] : flipped_) set_desired(*state, id, false);
  if (!config_.covering_enabled) return;
  visit_covered(filter, [&](RecordId other) {
    if (other == id) return;
    const Record& rec = records_[other];
    bool checked = false;
    for (auto& [neighbor, state] : flipped_) {
      if ((state->flags[other] & kDesired) != 0 || !rec.visible_to(neighbor)) {
        continue;
      }
      if (!checked) {
        if (!dominates(filter, rec.filter)) return;
        checked = true;
      }
      if (!dominated_for(other, neighbor)) set_desired(*state, other, true);
    }
  });
}

void RoutingTable::rebuild_cover(IfaceId neighbor, BrokerIface& state) {
  state.touched.clear();
  for (RecordId id = 0; id < records_.size(); ++id) {
    std::uint8_t& flags = state.flags[id];
    flags &= kForwarded;
    const Record& rec = records_[id];
    if (!rec.live()) continue;
    if (rec.visible_to(neighbor) &&
        (!config_.covering_enabled || !dominated_for(id, neighbor))) {
      flags |= kDesired;
    }
    flags |= kTouched;
    state.touched.push_back(id);
  }
  state.rebuild = false;
}

RoutingTable::Diff RoutingTable::refresh(IfaceId neighbor) {
  BrokerIface& state = broker_ifaces_.at(neighbor);
  if (state.rebuild) rebuild_cover(neighbor, state);
  std::vector<RecordId> added;
  std::vector<RecordId> dropped;
  for (const RecordId id : state.touched) {
    std::uint8_t& flags = state.flags[id];
    flags &= ~kTouched;
    const bool want = (flags & kDesired) != 0;
    if (want == ((flags & kForwarded) != 0)) continue;  // e.g. added+removed
    flags ^= kForwarded;
    Record& rec = records_[id];
    state.forwarded_digest ^= rec.key_hash;
    if (want) {
      ++rec.forwarded_refs;
      ++state.forwarded_count;
      added.push_back(id);
    } else {
      --rec.forwarded_refs;
      --state.forwarded_count;
      dropped.push_back(id);
    }
  }
  state.touched.clear();
  // Strings are compared only here, to order the diff.
  const auto by_key = [this](RecordId a, RecordId b) {
    return records_[a].filter.key() < records_[b].filter.key();
  };
  std::sort(added.begin(), added.end(), by_key);
  std::sort(dropped.begin(), dropped.end(), by_key);
  Diff diff;
  diff.subscribe.reserve(added.size());
  for (const RecordId id : added) diff.subscribe.push_back(records_[id].filter);
  diff.unsubscribe.reserve(dropped.size());
  for (const RecordId id : dropped) {
    diff.unsubscribe.push_back(records_[id].filter);
    release_if_dead(id);
  }
  return diff;
}

std::map<std::string, Filter> RoutingTable::full_recompute(
    IfaceId neighbor) const {
  std::map<std::string, Filter> visible;
  for (const auto& [engine_id, entry] : entries_) {
    if (entry.iface == neighbor) continue;
    visible.try_emplace(entry.filter.key(), entry.filter);
  }
  if (!config_.covering_enabled) return visible;
  return minimal_cover_naive(std::move(visible));
}

std::map<std::string, Filter> RoutingTable::minimal_cover_naive(
    std::map<std::string, Filter> filters) {
  std::map<std::string, Filter> out;
  for (const auto& [key, filter] : filters) {
    bool dominated = false;
    for (const auto& [other_key, other] : filters) {
      if (dominates(other_key, other, key, filter)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.emplace(key, filter);
  }
  return out;
}
RoutingTable::Destination RoutingTable::destination_of(
    std::uint64_t engine_id) const {
  const EngineEntry& entry = entries_.at(engine_id);
  return Destination{entry.iface, entry.from_broker, entry.client_sub};
}

ScoringSpec RoutingTable::entry_scoring(std::uint64_t engine_id) const {
  const ScoringSpec* spec = scoring_index_.find(engine_id);
  return spec != nullptr ? *spec : ScoringSpec{};
}

void RoutingTable::match(const Event& event,
                         std::vector<Destination>& out) const {
  std::vector<SubscriptionId> engine_hits;
  matcher_->match(event, engine_hits);
  out.reserve(out.size() + engine_hits.size());
  for (const std::uint64_t engine_id : engine_hits) {
    out.push_back(destination_of(engine_id));
  }
}

void RoutingTable::match_batch(
    std::span<const Event> events,
    std::vector<std::vector<Destination>>& out) const {
  std::vector<std::vector<SubscriptionId>> engine_hits;
  matcher_->match_batch(events, engine_hits);
  out.assign(events.size(), {});
  for (std::size_t i = 0; i < events.size(); ++i) {
    out[i].reserve(engine_hits[i].size());
    for (const std::uint64_t engine_id : engine_hits[i]) {
      out[i].push_back(destination_of(engine_id));
    }
  }
}

void RoutingTable::match_batch_scored(
    std::span<const Event> events,
    std::vector<std::vector<ScoredDestination>>& out) const {
  // The boolean batch, then Matcher::match_batch_scored's scoring loop
  // inlined so each hit's spec is looked up once for both its score and
  // its delivery policy.
  std::vector<std::vector<SubscriptionId>> engine_hits;
  matcher_->match_batch(events, engine_hits);
  out.assign(events.size(), {});
  ScoringIndex::Scorer scorer(scoring_index_);
  for (std::size_t i = 0; i < events.size(); ++i) {
    scorer.start(events[i]);
    out[i].reserve(engine_hits[i].size());
    for (const std::uint64_t engine_id : engine_hits[i]) {
      const ScoringIndex::Scorer::Result scored = scorer.score(engine_id);
      out[i].push_back(ScoredDestination{destination_of(engine_id),
                                         scored.score, scored.spec});
    }
  }
}

std::size_t RoutingTable::forwarded_size(IfaceId neighbor) const {
  const auto it = broker_ifaces_.find(neighbor);
  return it == broker_ifaces_.end() ? 0 : it->second.forwarded_count;
}

}  // namespace reef::pubsub
