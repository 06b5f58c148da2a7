#include "pubsub/event.h"

#include <algorithm>

namespace reef::pubsub {

std::atomic<std::uint64_t> Event::copy_count_{0};
const Event::Attrs Event::kNoAttrs{};

void Event::set(AttrId id, Value value) {
  // Copy on write: mutate in place only as the storage's sole owner (the
  // fluent-construction case); a shared store is never touched — this
  // Event detaches onto a private copy first.
  if (!attrs_) {
    attrs_ = std::make_shared<Attrs>();
  } else if (attrs_.use_count() > 1) {
    attrs_ = std::make_shared<Attrs>(*attrs_);
  }
  // Sole owner now, of storage this class allocated non-const.
  Attrs& attrs = const_cast<Attrs&>(*attrs_);
  const auto it = std::lower_bound(
      attrs.begin(), attrs.end(), id,
      [](const auto& entry, AttrId key) { return entry.first < key; });
  if (it != attrs.end() && it->first == id) {
    it->second = std::move(value);  // insert_or_assign semantics
  } else {
    attrs.emplace(it, id, std::move(value));
  }
}

const Value* Event::find(AttrId id) const noexcept {
  // Events carry a handful of attributes; a linear scan with the sorted-id
  // early exit beats binary search at these sizes.
  for (const auto& [attr, value] : attrs()) {
    if (attr >= id) return attr == id ? &value : nullptr;
  }
  return nullptr;
}

std::size_t Event::wire_size() const noexcept {
  std::size_t bytes = 16;  // envelope: id + count + framing
  const AttrTable& table = AttrTable::instance();
  for (const auto& [id, value] : attrs()) {
    bytes += 2 + table.name(id).size() + value.wire_size();
  }
  return bytes;
}

std::string Event::to_string() const {
  // Canonical text is in attribute-*name* order (the original map-backed
  // representation); ids are assigned in interning order, so re-sort a
  // scratch view by name here, off the hot path.
  const AttrTable& table = AttrTable::instance();
  std::vector<const std::pair<AttrId, Value>*> by_name;
  by_name.reserve(size());
  for (const auto& entry : attrs()) by_name.push_back(&entry);
  std::sort(by_name.begin(), by_name.end(),
            [&table](const auto* a, const auto* b) {
              return table.name(a->first) < table.name(b->first);
            });
  std::string out = "{";
  bool first = true;
  for (const auto* entry : by_name) {
    if (!first) out += ", ";
    first = false;
    out += table.name(entry->first);
    out += '=';
    out += entry->second.to_string();
  }
  out += '}';
  return out;
}

}  // namespace reef::pubsub
