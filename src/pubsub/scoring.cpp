#include "pubsub/scoring.h"

#include <algorithm>

#include "ir/bm25.h"
#include "ir/tokenizer.h"
#include "util/hash.h"

namespace reef::pubsub {

const char* scoring_policy_name(ScoringPolicy policy) noexcept {
  switch (policy) {
    case ScoringPolicy::kConstant: return "constant";
    case ScoringPolicy::kBm25: return "bm25";
  }
  return "unknown";
}

std::size_t ScoringSpec::wire_size() const noexcept {
  if (neutral()) return 0;
  // policy tag + top_k + min_score framing, then the query terms (term
  // bytes + 8-byte weight + 2 bytes framing) and attribute names (2 bytes
  // framing each) — mirrors the filter/constraint accounting style in
  // messages.h.
  std::size_t bytes = 1 + 4 + 8;
  for (const ir::ScoredTerm& term : query) bytes += term.term.size() + 10;
  for (const std::string& attr : text_attrs) bytes += attr.size() + 2;
  return bytes;
}

std::uint64_t ScoringSpec::hash() const noexcept {
  if (neutral()) return 0;
  std::uint64_t h = util::fnv1a64(summary());
  return h == 0 ? 1 : h;  // keep "non-neutral" distinguishable from absent
}

std::string ScoringSpec::summary() const {
  std::string out = "score(";
  out += scoring_policy_name(policy);
  out += " k=" + std::to_string(top_k);
  out += " min=" + Value(min_score).to_string();
  out += " q=[";
  for (std::size_t i = 0; i < query.size(); ++i) {
    if (i > 0) out += ',';
    out += query[i].term + ":" + Value(query[i].score).to_string();
  }
  out += "] attrs=[";
  for (std::size_t i = 0; i < text_attrs.size(); ++i) {
    if (i > 0) out += ',';
    out += text_attrs[i];
  }
  out += "])";
  return out;
}

double score_event(const ScoringSpec& spec, const Event& event) {
  if (spec.policy == ScoringPolicy::kConstant) return kConstantScore;
  // One bag of words over the designated text attributes, in spec order.
  std::unordered_map<std::string, std::uint32_t> tf;
  std::size_t len = 0;
  for (const std::string& attr : spec.text_attrs) {
    const Value* value = event.find(attr);
    if (value == nullptr || !value->is_string()) continue;
    for (std::string& token : ir::tokenize(value->as_string())) {
      ++tf[std::move(token)];
      ++len;
    }
  }
  if (len == 0) return 0.0;
  const ir::Bm25Params params;
  const double norm =
      params.k1 *
      (1.0 - params.b +
       params.b * static_cast<double>(len) / kScoringAvgDocLen);
  double score = 0.0;
  // Summation order is the query order — fixed by the spec, so the
  // floating-point result is bit-identical everywhere.
  for (const ir::ScoredTerm& term : spec.query) {
    const auto it = tf.find(term.term);
    if (it == tf.end()) continue;
    const double weight = std::max(term.score, 0.0);
    const double freq = static_cast<double>(it->second);
    score += weight * freq * (params.k1 + 1.0) / (freq + norm);
  }
  return score;
}

void TopKSelector::offer(double score, std::uint32_t order) {
  const Entry entry{score, order};
  if (k_ == 0) {  // unlimited: everything survives, no heap discipline
    heap_.push_back(entry);
    return;
  }
  // Strict weak order "a is a better keep than b"; the heap's maximum
  // under it is the *worst* kept candidate, sitting at the root.
  const auto better = [](const Entry& a, const Entry& b) {
    return worse(b, a);
  };
  if (heap_.size() < k_) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), better);
    return;
  }
  if (worse(entry, heap_.front())) return;  // not better than the worst kept
  std::pop_heap(heap_.begin(), heap_.end(), better);
  heap_.back() = entry;
  std::push_heap(heap_.begin(), heap_.end(), better);
}

void TopKSelector::take(std::vector<std::uint32_t>& orders) {
  orders.clear();
  for (const Entry& entry : heap_) orders.push_back(entry.order);
  heap_.clear();
  std::sort(orders.begin(), orders.end());
}

// --- ScoringIndex ------------------------------------------------------------

void ScoringIndex::set(SubscriptionId id, ScoringSpec spec) {
  if (spec.neutral()) {
    erase(id);
    return;
  }
  const auto [it, fresh] = specs_.try_emplace(id);
  if (!fresh) {  // replace: drop the old compiled form first
    release(it->second);
    it->second = Entry{};
  }
  it->second.spec = std::move(spec);
  compile(it->second);
}

void ScoringIndex::erase(SubscriptionId id) {
  const auto it = specs_.find(id);
  if (it == specs_.end()) return;
  release(it->second);
  specs_.erase(it);
}

const ScoringSpec* ScoringIndex::find(SubscriptionId id) const {
  const auto it = specs_.find(id);
  return it == specs_.end() ? nullptr : &it->second.spec;
}

void ScoringIndex::compile(Entry& entry) {
  entry.bm25 = entry.spec.policy == ScoringPolicy::kBm25;
  if (!entry.bm25) return;
  entry.query.reserve(entry.spec.query.size());
  for (const ir::ScoredTerm& term : entry.spec.query) {
    auto it = terms_.find(term.term);
    if (it == terms_.end()) {
      TermId tid = static_cast<TermId>(term_refs_.size());
      if (free_terms_.empty()) {
        term_refs_.push_back(0);
      } else {
        tid = free_terms_.back();
        free_terms_.pop_back();
      }
      it = terms_.emplace(term.term, tid).first;
    }
    ++term_refs_[it->second];
    // The same clamp score_event applies per term.
    entry.query.push_back({it->second, std::max(term.score, 0.0)});
  }
  // Interning (not just looking up) the names keeps a compiled id valid
  // for attributes no event has carried yet.
  std::vector<AttrId>& attrs = attr_scratch_;
  attrs.clear();
  for (const std::string& name : entry.spec.text_attrs) {
    attrs.push_back(AttrTable::instance().intern(name));
  }
  auto list = attr_list_ids_.find(attrs);
  if (list == attr_list_ids_.end()) {
    std::uint32_t slot = static_cast<std::uint32_t>(attr_lists_.size());
    if (free_attr_lists_.empty()) {
      attr_lists_.emplace_back();
    } else {
      slot = free_attr_lists_.back();
      free_attr_lists_.pop_back();
    }
    attr_lists_[slot].attrs = attrs;
    list = attr_list_ids_.emplace(attrs, slot).first;
  }
  ++attr_lists_[list->second].refs;
  entry.attr_list = list->second;
}

void ScoringIndex::release(const Entry& entry) {
  if (!entry.bm25) return;
  for (std::size_t i = 0; i < entry.query.size(); ++i) {
    const TermId tid = entry.query[i].term;
    if (--term_refs_[tid] != 0) continue;
    terms_.erase(entry.spec.query[i].term);
    free_terms_.push_back(tid);
  }
  AttrList& list = attr_lists_[entry.attr_list];
  if (--list.refs != 0) return;
  attr_list_ids_.erase(list.attrs);
  list.attrs.clear();
  free_attr_lists_.push_back(entry.attr_list);
}

// --- ScoringIndex::Scorer ----------------------------------------------------

ScoringIndex::Scorer::Result ScoringIndex::Scorer::score(SubscriptionId id) {
  const auto it = index_.specs_.find(id);
  if (it == index_.specs_.end()) return {};
  const Entry& entry = it->second;
  if (!entry.bm25) return {kConstantScore, &entry.spec};
  const Document& doc = document(entry.attr_list);
  if (doc.len == 0) return {0.0, &entry.spec};
  const ir::Bm25Params params;
  double score = 0.0;
  // Query order, exactly as score_event sums it.
  for (const QueryTerm& term : entry.query) {
    const std::uint32_t tf = doc.tf[term.term];
    if (tf == 0) continue;
    const double freq = static_cast<double>(tf);
    score += term.weight * freq * (params.k1 + 1.0) / (freq + doc.norm);
  }
  return {score, &entry.spec};
}

const ScoringIndex::Scorer::Document& ScoringIndex::Scorer::document(
    std::uint32_t attr_list) {
  if (docs_.size() <= attr_list) docs_.resize(attr_list + 1);
  Document& doc = docs_[attr_list];
  if (doc.stamp == stamp_) return doc;
  doc.stamp = stamp_;
  doc.len = 0;
  for (const TermId term : doc.terms) doc.tf[term] = 0;
  doc.terms.clear();
  doc.tf.resize(index_.term_refs_.size());
  for (const AttrId attr : index_.attr_lists_[attr_list].attrs) {
    const Value* value = event_->find(attr);
    if (value == nullptr || !value->is_string()) continue;
    ir::for_each_token(value->as_string(), [&](std::string_view token) {
      ++doc.len;
      const auto term = index_.terms_.find(token);
      if (term == index_.terms_.end()) return;
      if (doc.tf[term->second]++ == 0) doc.terms.push_back(term->second);
    });
  }
  const ir::Bm25Params params;
  doc.norm = params.k1 *
             (1.0 - params.b +
              params.b * static_cast<double>(doc.len) / kScoringAvgDocLen);
  return doc;
}

}  // namespace reef::pubsub
