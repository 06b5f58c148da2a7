#include "pubsub/client.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <utility>

#include "util/hash.h"
#include "util/log.h"

namespace reef::pubsub {

Client::Client(sim::Simulator& sim, sim::Network& net, std::string name)
    : sim_(sim), net_(net), name_(std::move(name)),
      channel_(sim, net, ReliableChannel::Config{}) {
  id_ = net_.attach(*this, name_);
  channel_.bind(id_);
  channel_.set_deliver(
      [this](sim::NodeId from, const CtrlOp& op) { on_ctrl_op(from, op); });
  // A higher epoch from the broker means it restarted: our stream state
  // there is gone, so start over at seq 1. The broker's resync request
  // (the op that carried the new epoch) then triggers the full replay.
  channel_.set_on_peer_restart(
      [this](sim::NodeId peer) { channel_.reset_peer_send(peer); });
}

void Client::enable_reliable_control(ReliableChannel::Config config) {
  channel_.configure(config);
}

void Client::connect(Broker& broker) {
  broker_ = broker.id();
  broker.attach_client(id_);
}

SubscriptionId Client::subscribe(Filter filter, Handler handler) {
  // An empty Handler must stay empty after wrapping so deliveries keep
  // routing to the inbox.
  ScoredHandler scored;
  if (handler) {
    scored = [inner = std::move(handler)](const Event& event,
                                          SubscriptionId sub,
                                          double /*score*/) {
      inner(event, sub);
    };
  }
  return subscribe_scored(std::move(filter), ScoringSpec{}, std::move(scored));
}

SubscriptionId Client::subscribe_scored(Filter filter, ScoringSpec scoring,
                                        ScoredHandler handler) {
  assert(connected() && "subscribe before connect");
  const SubscriptionId sub_id =
      (static_cast<std::uint64_t>(id_) << 32) | next_sub_++;
  handlers_.emplace(sub_id, std::move(handler));
  if (channel_.enabled()) {
    subs_.emplace(sub_id, ClientSubscription{sub_id, filter, scoring});
    CtrlOp op;
    op.kind = CtrlOp::Kind::kClientSubscribe;
    op.sub_id = sub_id;
    op.filter = std::move(filter);
    op.scoring = std::move(scoring);
    channel_.send(broker_, std::move(op));
    return sub_id;
  }
  const std::size_t bytes = filter.wire_size() + 16 + scoring.wire_size();
  net_.send(id_, broker_, std::string(kTypeClientSubscribe),
            ClientSubscribeMsg{sub_id, std::move(filter), std::move(scoring)},
            bytes);
  return sub_id;
}

std::vector<SubscriptionId> Client::subscribe_any(
    std::vector<Filter> filters, Handler handler) {
  // Share the last dispatched event id across the branch subscriptions:
  // an event matching several branches arrives in one DeliverMsg listing
  // each branch, and on_deliver dispatches that list back to back, so
  // every repeat of an event directly follows its first dispatch. One id
  // is enough state, and it stays bounded however long the group lives.
  auto last = std::make_shared<std::optional<EventId>>();
  auto shared_handler = std::make_shared<Handler>(std::move(handler));
  std::vector<SubscriptionId> ids;
  ids.reserve(filters.size());
  for (auto& filter : filters) {
    ids.push_back(subscribe(
        std::move(filter),
        [last, shared_handler](const Event& event, SubscriptionId sub) {
          if (std::exchange(*last, event.id()) == event.id()) return;
          if (*shared_handler) (*shared_handler)(event, sub);
        }));
  }
  return ids;
}

void Client::unsubscribe(SubscriptionId id) {
  if (handlers_.erase(id) == 0) return;
  subs_.erase(id);
  if (channel_.enabled()) {
    CtrlOp op;
    op.kind = CtrlOp::Kind::kClientUnsubscribe;
    op.sub_id = id;
    channel_.send(broker_, std::move(op));
    return;
  }
  net_.send(id_, broker_, std::string(kTypeClientUnsubscribe),
            ClientUnsubscribeMsg{id}, 16);
}

void Client::publish(Event event) {
  assert(connected() && "publish before connect");
  event.set_id((static_cast<std::uint64_t>(id_) << 32) | next_event_id_++);
  ++published_;
  const std::size_t bytes = publish_msg_wire_size(event);
  net_.send(id_, broker_, std::string(kTypePublish),
            PublishMsg{std::move(event)}, bytes);
}

void Client::publish_batch(std::vector<Event> events) {
  assert(connected() && "publish before connect");
  if (events.empty()) return;
  if (events.size() == 1) {  // no batch framing for a single event
    publish(std::move(events.front()));
    return;
  }
  for (Event& event : events) {
    event.set_id((static_cast<std::uint64_t>(id_) << 32) | next_event_id_++);
    ++published_;
  }
  const std::size_t bytes = publish_batch_wire_size(events);
  const std::size_t units = events.size();
  net_.send(id_, broker_, std::string(kTypePublishBatch),
            PublishBatchMsg{std::move(events)}, bytes, units);
}

void Client::on_ctrl_op(sim::NodeId from, const CtrlOp& op) {
  if (op.kind != CtrlOp::Kind::kResyncRequest) {
    util::log_warn("client") << name_ << ": unexpected control op";
    return;
  }
  // The broker restarted and asks what we subscribe to, sending its digest
  // of our registrations (same formula as RoutingTable::client_iface_digest,
  // so matching state is recognized without a replay).
  std::uint64_t digest = 0;
  for (const auto& [sub_id, sub] : subs_) {
    digest ^= util::hash_combine(util::fnv1a64(sub.filter.key()), sub_id);
    // Scoring folds in only when non-neutral, so unscored state keeps the
    // PR 9 digest value (see RoutingTable::client_iface_digest).
    if (!sub.scoring.neutral()) {
      digest ^= util::hash_combine(sub.scoring.hash(), sub_id);
    }
  }
  if (digest == op.digest) return;
  CtrlOp reply;
  reply.kind = CtrlOp::Kind::kClientResyncState;
  reply.subs.reserve(subs_.size());
  for (const auto& [sub_id, sub] : subs_) reply.subs.push_back(sub);
  std::sort(reply.subs.begin(), reply.subs.end(),
            [](const auto& a, const auto& b) { return a.sub_id < b.sub_id; });
  channel_.send(from, std::move(reply));
}

void Client::handle_message(const sim::Message& msg) {
  if (channel_.on_message(msg)) return;
  if (msg.type == kTypeDeliver) {
    on_deliver(std::any_cast<const DeliverMsg&>(msg.payload));
  } else if (msg.type == kTypeDeliverBatch) {
    ++batches_received_;
    const auto& batch = std::any_cast<const DeliverBatchMsg&>(msg.payload);
    for (const DeliverMsg& item : batch.items) on_deliver(item);
  } else {
    util::log_warn("client") << name_ << ": unexpected message " << msg.type;
  }
}

void Client::on_deliver(const DeliverMsg& deliver) {
  for (std::size_t i = 0; i < deliver.matched.size(); ++i) {
    const SubscriptionId sub_id = deliver.matched[i];
    const auto it = handlers_.find(sub_id);
    if (it == handlers_.end()) continue;  // already unsubscribed: drop
    ++deliveries_;
    const double score =
        i < deliver.scores.size() ? deliver.scores[i] : kConstantScore;
    if (it->second) {
      it->second(deliver.event, sub_id, score);
    } else {
      inbox_.emplace_back(deliver.event, sub_id);
    }
  }
}

}  // namespace reef::pubsub
