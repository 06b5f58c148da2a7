// Events (notifications) for the content-based pub/sub substrate: a set of
// typed name-value attributes plus a monotone sequence id for tracing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pubsub/attr_table.h"
#include "pubsub/value.h"

namespace reef::pubsub {

/// Monotone identifier for an event instance (assigned by publishers).
using EventId = std::uint64_t;

/// An immutable-after-construction notification. Attribute names are
/// interned through the process-wide AttrTable at construction, and the
/// attributes live in a flat vector sorted by AttrId — matching engines
/// iterate and probe by integer id, never touching the strings. The
/// canonical textual form (to_string), wire size, and equality semantics
/// are byte-for-byte identical to the original name-keyed representation
/// (tests/pubsub_attr_table_test.cpp pins the golden strings).
///
/// The attribute vector is shared, immutable storage: copying an Event
/// (into a broker's pending queue, a DeliverMsg, a client inbox) is a
/// refcount bump plus the 8-byte id, never a vector or string copy. The
/// id is per object, so set_id on a copy leaves the original alone.
/// with() copies on write: it mutates in place while this Event is the
/// storage's only owner (the fluent-construction case) and detaches onto
/// a private copy otherwise, so no other holder ever sees a change. A
/// moved-from or default Event owns no storage and reads as empty.
class Event {
 public:
  using Attrs = std::vector<std::pair<AttrId, Value>>;

  Event() = default;

  // Copies are counted (relaxed, process-global) so the zero-copy batch
  // contract is testable: the sharded pre-filter's index-span sub-batches
  // must not copy a single Event (tests/pubsub_sharding_test.cpp and the
  // bench smoke assert copy_count() stays flat across match_batch).
  Event(const Event& other) : attrs_(other.attrs_), id_(other.id_) {
    copy_count_.fetch_add(1, std::memory_order_relaxed);
  }
  Event& operator=(const Event& other) {
    attrs_ = other.attrs_;
    id_ = other.id_;
    copy_count_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  Event(Event&&) noexcept = default;
  Event& operator=(Event&&) noexcept = default;

  /// Process-wide count of Event copy-constructions/assignments since
  /// start. Monotone; test code diffs it around a call under test. Each
  /// counted copy shares its source's storage (one refcount bump), so
  /// this counts handles taken, not attribute vectors duplicated.
  static std::uint64_t copy_count() noexcept {
    return copy_count_.load(std::memory_order_relaxed);
  }

  /// Fluent construction: Event().with("symbol", "ACME").with("price", 12.5)
  /// `name` is interned process-wide and never freed — attribute names
  /// must stay a bounded, schema-like vocabulary (dynamic data belongs in
  /// the Value); see the AttrTable cardinality note.
  Event&& with(std::string_view name, Value value) && {
    set(AttrTable::instance().intern(name), std::move(value));
    return std::move(*this);
  }
  Event& with(std::string_view name, Value value) & {
    set(AttrTable::instance().intern(name), std::move(value));
    return *this;
  }

  /// Attribute lookup by name; returns nullptr when absent. Names never
  /// interned by any event or filter cannot be present.
  const Value* find(std::string_view name) const noexcept {
    const AttrId id = AttrTable::instance().lookup(name);
    return id == kNoAttrId ? nullptr : find(id);
  }

  /// Hot-path attribute lookup by interned id (early-exit linear scan
  /// over the id-sorted flat storage — events carry a handful of
  /// attributes, where the scan beats binary search).
  const Value* find(AttrId id) const noexcept;

  bool has(std::string_view name) const noexcept { return find(name); }
  std::size_t size() const noexcept { return attrs().size(); }
  bool empty() const noexcept { return size() == 0; }

  /// Flat attribute storage, sorted by AttrId. The matching engines'
  /// iteration surface; names are recovered via AttrTable::name when a
  /// human-readable form is needed.
  const Attrs& attrs() const noexcept {
    return attrs_ ? *attrs_ : kNoAttrs;
  }

  EventId id() const noexcept { return id_; }
  void set_id(EventId id) noexcept { id_ = id; }

  /// Approximate wire size in bytes for traffic accounting.
  std::size_t wire_size() const noexcept;

  /// Canonical text, e.g. {price=12.5, symbol="ACME"} — attributes in
  /// name order, exactly as the original map-backed representation.
  std::string to_string() const;

  /// Same attribute set with the same values. AttrIds biject with names,
  /// so comparing the id-sorted flat vectors is equivalent to comparing
  /// the original name-sorted maps.
  friend bool operator==(const Event& a, const Event& b) noexcept {
    return a.attrs_ == b.attrs_ || a.attrs() == b.attrs();
  }

 private:
  void set(AttrId id, Value value);

  static std::atomic<std::uint64_t> copy_count_;
  static const Attrs kNoAttrs;

  std::shared_ptr<const Attrs> attrs_;  // sorted by AttrId; null = empty
  EventId id_ = 0;
};

}  // namespace reef::pubsub
