#include "pubsub/broker.h"

#include <algorithm>
#include <any>
#include <cassert>
#include <utility>

#include "util/log.h"

namespace reef::pubsub {

namespace {

/// Forwards the broker's routing/matching knobs into the routing core.
/// Field-by-field (not positional) so the two Config structs can evolve
/// independently; the flush budgets stay broker-local — the table never
/// touches the network.
RoutingTable::Config make_table_config(const Broker::Config& config) {
  RoutingTable::Config table;
  table.covering_enabled = config.covering_enabled;
  table.engine = config.matcher_engine;
  table.shard_count = config.shard_count;
  table.worker_threads = config.worker_threads;
  table.prefilter_enabled = config.prefilter_enabled;
  return table;
}

ReliableChannel::Config make_channel_config(const Broker::Config& config) {
  ReliableChannel::Config channel;
  channel.enabled = config.reliable_control;
  channel.retransmit_timeout = config.retransmit_timeout;
  channel.retransmit_timeout_max = config.retransmit_timeout_max;
  return channel;
}

}  // namespace

Broker::Broker(sim::Simulator& sim, sim::Network& net, std::string name)
    : Broker(sim, net, std::move(name), Config{}) {}

Broker::Broker(sim::Simulator& sim, sim::Network& net, std::string name,
               Config config)
    : sim_(sim),
      net_(net),
      name_(std::move(name)),
      config_(config),
      table_(make_table_config(config_)),
      channel_(sim, net, make_channel_config(config_)) {
  id_ = net_.attach(*this, name_);
  channel_.bind(id_);
  channel_.set_deliver(
      [this](sim::NodeId from, const CtrlOp& op) { on_ctrl_op(from, op); });
  channel_.set_on_peer_restart(
      [this](sim::NodeId peer) { on_peer_restart(peer); });
  if (config_.heartbeat_period > 0) {
    sim_.every(config_.heartbeat_period, config_.heartbeat_period,
               [this] { heartbeat_tick(); });
  }
}

void Broker::add_neighbor(Broker& other) {
  assert(other.id() != id_);
  if (table_.has_broker_iface(other.id())) return;
  neighbors_.push_back(other.id());
  table_.add_broker_iface(other.id());
  last_heard_[other.id()] = sim_.now();
  // Bring the new neighbor up to date with everything reachable through us.
  refresh_neighbor(other.id());
}

void Broker::attach_client(sim::NodeId client) {
  if (std::find(clients_.begin(), clients_.end(), client) == clients_.end()) {
    clients_.push_back(client);
  }
  table_.add_client_iface(client);
}

void Broker::handle_message(const sim::Message& msg) {
  if (!alive_) return;  // the network drops these anyway; belt and braces
  if (table_.has_broker_iface(msg.from)) {
    // Any traffic from a neighbor is a liveness signal.
    last_heard_[msg.from] = sim_.now();
    quarantined_.erase(msg.from);
  }
  if (channel_.on_message(msg)) return;
  if (msg.type == kTypeHeartbeat) return;  // liveness recorded above
  if (msg.type == kTypeClientSubscribe) {
    on_client_subscribe(msg.from,
                        std::any_cast<const ClientSubscribeMsg&>(msg.payload));
  } else if (msg.type == kTypeClientUnsubscribe) {
    on_client_unsubscribe(
        msg.from, std::any_cast<const ClientUnsubscribeMsg&>(msg.payload));
  } else if (msg.type == kTypeSubscribe) {
    on_broker_subscribe(msg.from,
                        std::any_cast<const SubscribeMsg&>(msg.payload));
  } else if (msg.type == kTypeUnsubscribe) {
    on_broker_unsubscribe(msg.from,
                          std::any_cast<const UnsubscribeMsg&>(msg.payload));
  } else if (msg.type == kTypePublish) {
    on_publish(msg.from, std::any_cast<const PublishMsg&>(msg.payload).event);
  } else if (msg.type == kTypePublishBatch) {
    on_publish_batch(msg.from,
                     std::any_cast<const PublishBatchMsg&>(msg.payload));
  } else {
    util::log_warn("broker") << name_ << ": unknown message type " << msg.type;
  }
}

void Broker::on_client_subscribe(sim::NodeId from,
                                 const ClientSubscribeMsg& msg) {
  ++stats_.subs_received;
  table_.client_subscribe(from, msg.sub_id, msg.filter, msg.scoring);
  refresh_all_neighbors_except(sim::kNoNode);
}

void Broker::on_client_unsubscribe(sim::NodeId from,
                                   const ClientUnsubscribeMsg& msg) {
  ++stats_.subs_received;
  if (!table_.client_unsubscribe(from, msg.sub_id)) return;
  refresh_all_neighbors_except(sim::kNoNode);
}

void Broker::on_broker_subscribe(sim::NodeId from, const SubscribeMsg& msg) {
  ++stats_.subs_received;
  if (!table_.broker_subscribe(from, msg.filter)) return;  // re-subscribe
  // Propagate onward, but never back where it came from.
  refresh_all_neighbors_except(from);
}

void Broker::on_broker_unsubscribe(sim::NodeId from,
                                   const UnsubscribeMsg& msg) {
  ++stats_.subs_received;
  if (!table_.broker_unsubscribe(from, msg.filter)) return;
  refresh_all_neighbors_except(from);
}

// --- fault tolerance ---------------------------------------------------------

void Broker::on_ctrl_op(sim::NodeId from, const CtrlOp& op) {
  switch (op.kind) {
    case CtrlOp::Kind::kSubscribe:
      on_broker_subscribe(from, SubscribeMsg{op.filter});
      break;
    case CtrlOp::Kind::kUnsubscribe:
      on_broker_unsubscribe(from, UnsubscribeMsg{op.filter});
      break;
    case CtrlOp::Kind::kClientSubscribe:
      on_client_subscribe(
          from, ClientSubscribeMsg{op.sub_id, op.filter, op.scoring});
      break;
    case CtrlOp::Kind::kClientUnsubscribe:
      on_client_unsubscribe(from, ClientUnsubscribeMsg{op.sub_id});
      break;
    case CtrlOp::Kind::kResyncRequest:
      on_resync_request(from, op.digest);
      break;
    case CtrlOp::Kind::kResyncState:
      on_resync_state(from, op.filters);
      break;
    case CtrlOp::Kind::kClientResyncState:
      on_client_resync_state(from, op.subs);
      break;
  }
}

void Broker::on_peer_restart(sim::NodeId peer) {
  // The peer's epoch bumped: it lost all state. Restart our stream toward
  // it (any unacked backlog is superseded by the resync that follows) and
  // void everything we had learned from it — its wants died with it; the
  // resync request it is about to deliver re-establishes what it needs.
  channel_.reset_peer_send(peer);
  if (!table_.has_broker_iface(peer)) return;
  if (table_.drop_broker_iface_state(peer)) {
    refresh_all_neighbors_except(peer);
  }
}

void Broker::send_resync_request(sim::NodeId peer) {
  CtrlOp op;
  op.kind = CtrlOp::Kind::kResyncRequest;
  op.digest = table_.has_broker_iface(peer) ? table_.broker_iface_digest(peer)
                                            : table_.client_iface_digest(peer);
  ++stats_.resync_msgs;
  stats_.resync_bytes += ctrl_op_wire_size(op);
  channel_.send(peer, std::move(op));
}

void Broker::on_resync_request(sim::NodeId from, std::uint64_t digest) {
  // Only a restarted neighbor broker sends these (clients answer them).
  if (!table_.has_broker_iface(from)) return;
  // Sync the forwarded bookkeeping to the desired set, discarding the
  // incremental diff — the full-state replay below supersedes it.
  (void)table_.refresh(from);
  if (table_.forwarded_digest(from) == digest) return;  // already in sync
  CtrlOp op;
  op.kind = CtrlOp::Kind::kResyncState;
  op.filters = table_.forwarded_filters(from);
  ++stats_.resync_msgs;
  stats_.resync_bytes += ctrl_op_wire_size(op);
  channel_.send(from, std::move(op));
}

void Broker::on_resync_state(sim::NodeId from, const std::vector<Filter>& want) {
  if (table_.broker_resync(from, want)) {
    refresh_all_neighbors_except(from);
  }
}

void Broker::on_client_resync_state(
    sim::NodeId from, const std::vector<ClientSubscription>& subs) {
  if (table_.client_resync(from, subs)) {
    refresh_all_neighbors_except(sim::kNoNode);
  }
}

void Broker::heartbeat_tick() {
  if (!alive_) return;
  for (const sim::NodeId neighbor : neighbors_) {
    ++stats_.heartbeats_sent;
    net_.send(id_, neighbor, std::string(kTypeHeartbeat), HeartbeatMsg{},
              kHeartbeatWireBytes);
  }
  const sim::Time timeout = config_.suspicion_timeout > 0
                                ? config_.suspicion_timeout
                                : 4 * config_.heartbeat_period;
  for (const sim::NodeId neighbor : neighbors_) {
    if (quarantined_.contains(neighbor)) continue;
    if (sim_.now() - last_heard_[neighbor] > timeout) {
      quarantined_.insert(neighbor);
      ++stats_.suspicions;
    }
  }
}

void Broker::crash() {
  alive_ = false;
  channel_.set_alive(false);
  // The incarnation's volatile state dies here: routing table, pending
  // output, channel streams. Neighbor/client lists survive — they are the
  // static configuration restart() re-declares.
  table_ = RoutingTable(make_table_config(config_));
  pending_pubs_.clear();
  pending_delivers_.clear();
  quarantined_.clear();
  channel_.reset_all();
}

void Broker::restart() {
  assert(!alive_ && "restart of a live broker");
  alive_ = true;
  channel_.set_alive(true);
  for (const sim::NodeId neighbor : neighbors_) {
    table_.add_broker_iface(neighbor);
    last_heard_[neighbor] = sim_.now();  // fresh suspicion clock
  }
  for (const sim::NodeId client : clients_) table_.add_client_iface(client);
  if (!config_.reliable_control) return;  // best-effort: empty until churn
  // Anti-entropy: ask every peer for the state this incarnation lost. The
  // requests ride the (fresh-epoch) reliable streams, so they survive any
  // fault that outlives the restart.
  for (const sim::NodeId neighbor : neighbors_) send_resync_request(neighbor);
  for (const sim::NodeId client : clients_) send_resync_request(client);
}

void Broker::on_publish(sim::NodeId from, const Event& event) {
  ++stats_.pubs_received;
  ++stats_.matches_run;
  if (config_.scoring_enabled) {
    const std::span<const Event> events{&event, 1};
    std::vector<std::vector<RoutingTable::ScoredDestination>> hits;
    table_.match_batch_scored(events, hits);
    route_scored(from, events, hits);
    return;
  }
  std::vector<RoutingTable::Destination> hits;
  table_.match(event, hits);
  route_event(from, event, hits);
}

void Broker::on_publish_batch(sim::NodeId from, const PublishBatchMsg& msg) {
  stats_.pubs_received += msg.events.size();
  ++stats_.matches_run;
  if (config_.scoring_enabled) {
    std::vector<std::vector<RoutingTable::ScoredDestination>> hits;
    table_.match_batch_scored(msg.events, hits);
    route_scored(from, msg.events, hits);
    return;
  }
  std::vector<std::vector<RoutingTable::Destination>> hits;
  table_.match_batch(msg.events, hits);
  for (std::size_t i = 0; i < msg.events.size(); ++i) {
    route_event(from, msg.events[i], hits[i]);
  }
}

void Broker::route_event(sim::NodeId from, const Event& event,
                         const std::vector<RoutingTable::Destination>& hits) {
  route_hits_.clear();
  for (const RoutingTable::Destination& dest : hits) {
    if (dest.iface == from) continue;  // never echo back
    // Graceful degradation: no data-plane traffic into a suspected-dead
    // neighbor's black hole. Its routes stay in the table and the
    // quarantine lifts on its first sign of life.
    if (dest.is_broker && quarantined_.contains(dest.iface)) continue;
    route_hits_.push_back(
        RouteHit{dest.iface, dest.is_broker, false, dest.client_sub});
  }
  emit_route_hits(event);
}

void Broker::emit_route_hits(const Event& event) {
  // Group by interface; an event crosses each interface once. Neighbor
  // brokers come first, then clients, each in interface-id order, and a
  // client's matched-sub list is sorted — so the broker's output is a
  // pure function of the match *sets*: engines (sharded or not, any
  // worker count) that agree on the sets produce byte-identical wire
  // traffic regardless of hit order. One sort plus one linear pass; the
  // scratch vector keeps its capacity across events.
  std::sort(route_hits_.begin(), route_hits_.end(),
            [](const RouteHit& a, const RouteHit& b) {
              if (a.is_broker != b.is_broker) return a.is_broker;
              if (a.iface != b.iface) return a.iface < b.iface;
              return a.sub < b.sub;
            });
  for (auto group = route_hits_.begin(); group != route_hits_.end();) {
    const auto end = std::find_if(group, route_hits_.end(),
                                  [iface = group->iface](const RouteHit& hit) {
                                    return hit.iface != iface;
                                  });
    if (group->is_broker) {
      enqueue_publish(group->iface, event);
    } else {
      // Scores ride along only when some matched subscription is scored;
      // they are parallel to the subs and never affect their order.
      const bool any_scored = std::any_of(
          group, end, [](const RouteHit& hit) { return hit.scored; });
      std::vector<SubscriptionId> subs;
      std::vector<double> scores;
      subs.reserve(static_cast<std::size_t>(end - group));
      if (any_scored) scores.reserve(subs.capacity());
      for (auto hit = group; hit != end; ++hit) {
        subs.push_back(hit->sub);
        if (any_scored) scores.push_back(hit->score);
      }
      enqueue_delivery(group->iface, event, std::move(subs),
                       std::move(scores));
    }
    group = end;
  }
}

// --- scored delivery (Config::scoring_enabled) -------------------------------

void Broker::route_scored(
    sim::NodeId from, std::span<const Event> events,
    const std::vector<std::vector<RoutingTable::ScoredDestination>>& hits) {
  // Pass 1: collect the scored candidates of this publication batch for
  // every (client, subscription) with a non-neutral policy — one top-k
  // window each. The window is the wire-message batch, so its composition
  // depends only on what the publisher framed together, never on engine,
  // shard, worker, or flush-budget choices (see docs/ARCHITECTURE.md
  // "Scored delivery"). A scored client hit's spec pointer names its
  // (client, subscription): the table keeps one registration, and so one
  // stored spec, per pair. The scratch below lives for this batch only;
  // kept across batches it would pin every broker's largest batch.
  struct Candidate {
    std::uint32_t window;
    std::uint32_t index;  // event index in the batch
    std::uint32_t pos;    // flat hit position in `keep`
    double score;
  };
  struct Window {
    const ScoringSpec* spec;
    std::uint32_t begin;  // first candidate in `runs`
    std::uint32_t end;    // one past its last (a fill cursor while built)
  };
  std::vector<std::uint8_t> keep;  // parallel to the flattened hits
  std::vector<Candidate> cands;    // hit order
  std::vector<Window> windows;     // numbered in order of first hit
  std::unordered_map<const ScoringSpec*, std::uint32_t> window_of;
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (const RoutingTable::ScoredDestination& sd : hits[i]) {
      const auto pos = static_cast<std::uint32_t>(keep.size());
      keep.push_back(1);
      if (sd.dest.is_broker || sd.scoring == nullptr) continue;
      if (sd.dest.iface == from) continue;  // never echo back
      ++stats_.scored_matches;
      const auto [it, fresh] = window_of.try_emplace(
          sd.scoring, static_cast<std::uint32_t>(windows.size()));
      if (fresh) windows.push_back(Window{sd.scoring, 0, 0});
      ++windows[it->second].end;  // a count until the prefix sum below
      cands.push_back(Candidate{it->second, static_cast<std::uint32_t>(i),
                                pos, sd.score});
    }
  }
  // A stable counting sort by window turns each window into a run of its
  // candidates in ascending event order — no comparison sort.
  std::uint32_t next = 0;
  for (Window& window : windows) {
    window.begin = next;
    next += window.end;
    window.end = window.begin;
  }
  std::vector<Candidate> runs(cands.size());
  for (const Candidate& c : cands) runs[windows[c.window].end++] = c;
  // Pass 2: per window, the min_score filter then the bounded top-k cut,
  // clearing the keep flag of every suppressed candidate. Ties at the cut
  // break by ascending event order (TopKSelector), so the surviving set is
  // a pure function of the window's (event, score) pairs.
  TopKSelector topk;
  std::vector<std::uint32_t> survivors;
  for (const Window& window : windows) {
    const ScoringSpec& spec = *window.spec;
    const auto begin = runs.begin() + window.begin;
    const auto end = runs.begin() + window.end;
    std::uint32_t eligible = 0;
    for (auto c = begin; c != end; ++c) {
      if (c->score < spec.min_score) {
        ++stats_.suppressed_by_threshold;
        keep[c->pos] = 0;
      } else {
        ++eligible;
      }
    }
    if (spec.top_k == 0 || eligible <= spec.top_k) continue;  // no cut
    topk.reset(spec.top_k);
    for (auto c = begin; c != end; ++c) {
      if (keep[c->pos] != 0) topk.offer(c->score, c->index);
    }
    topk.take(survivors);
    stats_.suppressed_by_k += eligible - survivors.size();
    // The run is in ascending event order and survivors is sorted, so one
    // linear merge marks the evicted candidates.
    std::size_t kept = 0;
    for (auto c = begin; c != end; ++c) {
      if (keep[c->pos] == 0) continue;  // below the threshold
      if (kept < survivors.size() && survivors[kept] == c->index) {
        ++kept;
      } else {
        keep[c->pos] = 0;
      }
    }
  }
  // Pass 3: the boolean routing pass, per event in batch order, skipping
  // suppressed deliveries and attaching scores.
  std::size_t offset = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    route_event_scored(
        from, events[i], hits[i],
        std::span<const std::uint8_t>(keep).subspan(offset, hits[i].size()));
    offset += hits[i].size();
  }
}

void Broker::route_event_scored(
    sim::NodeId from, const Event& event,
    const std::vector<RoutingTable::ScoredDestination>& hits,
    std::span<const std::uint8_t> keep) {
  // Mirrors route_event through the same grouping pass. Scores never
  // influence grouping or order — a scored delivery leaves in exactly the
  // position its boolean twin would have.
  route_hits_.clear();
  for (std::size_t j = 0; j < hits.size(); ++j) {
    const RoutingTable::ScoredDestination& sd = hits[j];
    if (sd.dest.iface == from) continue;  // never echo back
    if (sd.dest.is_broker && quarantined_.contains(sd.dest.iface)) continue;
    if (keep[j] == 0) continue;  // suppressed by its delivery policy
    route_hits_.push_back(RouteHit{sd.dest.iface, sd.dest.is_broker,
                                   sd.scoring != nullptr, sd.dest.client_sub,
                                   sd.score});
  }
  emit_route_hits(event);
}

// --- adaptive output coalescing ----------------------------------------------

std::optional<Broker::FlushCause> Broker::tripped_budget(
    std::size_t events, std::size_t bytes) const {
  if (config_.flush_max_events != 0 && events >= config_.flush_max_events) {
    return FlushCause::kEvents;
  }
  if (config_.flush_max_bytes != 0 && bytes >= config_.flush_max_bytes) {
    return FlushCause::kBytes;
  }
  return std::nullopt;
}

void Broker::note_flush(FlushCause cause, std::size_t units,
                        sim::Time enqueue_time_sum) {
  switch (cause) {
    case FlushCause::kEvents: ++stats_.flushes_by_events; break;
    case FlushCause::kBytes: ++stats_.flushes_by_bytes; break;
    case FlushCause::kDelay: ++stats_.flushes_by_delay; break;
  }
  stats_.flushed_units += units;
  stats_.residence_ticks_total +=
      static_cast<sim::Time>(units) * sim_.now() - enqueue_time_sum;
}

void Broker::enqueue_publish(sim::NodeId neighbor, const Event& event) {
  ++stats_.pubs_forwarded;
  if (!config_.batching_enabled) {
    send_publishes(neighbor, {event});
    return;
  }
  PendingPubs& pending = pending_pubs_[neighbor];
  // Metering an entry costs an O(#attributes) wire_size() scan, so the
  // running batch size is maintained only while the byte budget is armed
  // — with it off (the default) the hot path stays at PR 4 cost and
  // `bytes` holds just the header, which tripped_budget never reads.
  if (config_.flush_max_bytes != 0) {
    pending.bytes += publish_entry_wire_size(event);
  }
  pending.enqueue_time_sum += sim_.now();
  pending.events.push_back(event);
  if (const auto cause =
          tripped_budget(pending.events.size(), pending.bytes)) {
    // Budget trip: this interface's batch leaves mid-tick, synchronously.
    // Extract before sending so a re-entrant enqueue (there is none today —
    // sends deliver asynchronously — but the invariant is cheap) starts a
    // fresh batch.
    auto node = pending_pubs_.extract(neighbor);
    PendingPubs& full = node.mapped();
    note_flush(*cause, full.events.size(), full.enqueue_time_sum);
    send_publishes(neighbor, std::move(full.events));
    return;
  }
  schedule_flush();
}

void Broker::enqueue_delivery(sim::NodeId client, const Event& event,
                              std::vector<SubscriptionId> subs,
                              std::vector<double> scores) {
  ++stats_.deliveries;
  if (!config_.batching_enabled) {
    std::vector<DeliverMsg> one;
    one.push_back(DeliverMsg{event, std::move(subs), std::move(scores)});
    send_deliveries(client, std::move(one));
    return;
  }
  PendingDelivers& pending = pending_delivers_[client];
  DeliverMsg item{event, std::move(subs), std::move(scores)};
  if (config_.flush_max_bytes != 0) {
    pending.bytes += deliver_entry_wire_size(item);
  }
  pending.enqueue_time_sum += sim_.now();
  pending.items.push_back(std::move(item));
  if (const auto cause =
          tripped_budget(pending.items.size(), pending.bytes)) {
    auto node = pending_delivers_.extract(client);
    PendingDelivers& full = node.mapped();
    note_flush(*cause, full.items.size(), full.enqueue_time_sum);
    send_deliveries(client, std::move(full.items));
    return;
  }
  schedule_flush();
}

void Broker::schedule_flush() {
  if (flush_scheduled_) return;
  // With flush_max_delay_ticks = 0 this runs at the *current* instant,
  // after every already-queued event for this instant — i.e. after all
  // publications arriving this tick have been matched — so one wire
  // message carries the whole tick's output (the per-tick baseline). With
  // a delay budget the timer is armed by the oldest pending event and
  // later arrivals ride along, so no event waits longer than the budget.
  flush_scheduled_ = true;
  sim_.after(config_.flush_max_delay_ticks, [this] { flush_pending(); });
}

void Broker::flush_pending() {
  flush_scheduled_ = false;
  if (!alive_) return;  // crashed with a timer in flight: output is gone
  // Drain by moving the maps out so the flush (and the maps' memory) stay
  // proportional to this window's destinations, not every interface ever
  // sent to. Nothing re-enters the pending maps during the loop — sends
  // deliver asynchronously. The maps can be empty: a budget trip may have
  // drained everything since the timer was armed.
  auto pubs = std::exchange(pending_pubs_, {});
  for (auto& [neighbor, pending] : pubs) {
    note_flush(FlushCause::kDelay, pending.events.size(),
               pending.enqueue_time_sum);
    send_publishes(neighbor, std::move(pending.events));
  }
  auto delivers = std::exchange(pending_delivers_, {});
  for (auto& [client, pending] : delivers) {
    note_flush(FlushCause::kDelay, pending.items.size(),
               pending.enqueue_time_sum);
    send_deliveries(client, std::move(pending.items));
  }
}

void Broker::send_publishes(sim::NodeId neighbor, std::vector<Event> events) {
  ++stats_.pub_msgs_sent;
  if (events.size() == 1) {
    Event event = std::move(events.front());
    const std::size_t bytes = publish_msg_wire_size(event);
    net_.send(id_, neighbor, std::string(kTypePublish),
              PublishMsg{std::move(event)}, bytes);
    return;
  }
  const std::size_t bytes = publish_batch_wire_size(events);
  const std::size_t units = events.size();
  net_.send(id_, neighbor, std::string(kTypePublishBatch),
            PublishBatchMsg{std::move(events)}, bytes, units);
}

void Broker::send_deliveries(sim::NodeId client,
                             std::vector<DeliverMsg> items) {
  ++stats_.deliver_msgs_sent;
  if (items.size() == 1) {
    DeliverMsg item = std::move(items.front());
    const std::size_t bytes = deliver_msg_wire_size(item);
    net_.send(id_, client, std::string(kTypeDeliver), std::move(item), bytes);
    return;
  }
  const std::size_t bytes = deliver_batch_wire_size(items);
  const std::size_t units = items.size();
  net_.send(id_, client, std::string(kTypeDeliverBatch),
            DeliverBatchMsg{std::move(items)}, bytes, units);
}

// --- subscription forwarding -------------------------------------------------

void Broker::refresh_neighbor(sim::NodeId neighbor) {
  RoutingTable::Diff diff = table_.refresh(neighbor);
  for (Filter& filter : diff.subscribe) {
    ++stats_.subs_forwarded;
    if (config_.reliable_control) {
      CtrlOp op;
      op.kind = CtrlOp::Kind::kSubscribe;
      op.filter = std::move(filter);
      channel_.send(neighbor, std::move(op));
      continue;
    }
    const std::size_t bytes = filter.wire_size() + 8;
    net_.send(id_, neighbor, std::string(kTypeSubscribe),
              SubscribeMsg{std::move(filter)}, bytes);
  }
  for (Filter& filter : diff.unsubscribe) {
    ++stats_.unsubs_forwarded;
    if (config_.reliable_control) {
      CtrlOp op;
      op.kind = CtrlOp::Kind::kUnsubscribe;
      op.filter = std::move(filter);
      channel_.send(neighbor, std::move(op));
      continue;
    }
    const std::size_t bytes = filter.wire_size() + 8;
    net_.send(id_, neighbor, std::string(kTypeUnsubscribe),
              UnsubscribeMsg{std::move(filter)}, bytes);
  }
}

void Broker::refresh_all_neighbors_except(sim::NodeId except) {
  for (const sim::NodeId neighbor : neighbors_) {
    if (neighbor != except) refresh_neighbor(neighbor);
  }
}

}  // namespace reef::pubsub
