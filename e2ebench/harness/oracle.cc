#include "harness/oracle.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

bool PeriodOracle::MakeKey(const Tags& tags, Key* key) {
  key->size = 0;
  for (uint32_t tag : tags) {
    if (key->size == kOracleMaxTags) return false;
    key->tags[key->size++] = tag;
  }
  std::sort(key->tags.begin(), key->tags.begin() + key->size);
  key->size = static_cast<uint8_t>(
      std::unique(key->tags.begin(), key->tags.begin() + key->size) -
      key->tags.begin());
  std::fill(key->tags.begin() + key->size, key->tags.end(), 0u);
  return true;
}

size_t PeriodOracle::Hash(const Key& key) {
  // FNV-1a over the used slots, with a final mix for the power-of-two mask.
  uint64_t h = 1469598103934665603ull ^ key.size;
  for (size_t i = 0; i < key.size; ++i) {
    h ^= key.tags[i];
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h ^ (h >> 29));
}

uint64_t PeriodOracle::Count(const Key& key) const {
  if (slots_.empty()) return 0;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.count == 0) return 0;
    if (slot.key == key) return slot.count;
  }
}

void PeriodOracle::Increment(const Key& key) {
  if ((used_ + 1) * 2 > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.count == 0) {
      slot.key = key;
      slot.count = 1;
      ++used_;
      return;
    }
    if (slot.key == key) {
      ++slot.count;
      return;
    }
  }
}

void PeriodOracle::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<size_t>(1024, old.size() * 2), Slot());
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.count == 0) continue;
    size_t i = Hash(slot.key) & mask;
    while (slots_[i].count != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

bool PeriodOracle::AddDocument(const Tags& tags) {
  Key doc;
  if (!MakeKey(tags, &doc)) return false;
  ++documents_;
  const uint32_t n = doc.size;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    Key subset;
    for (uint32_t i = 0; i < n; ++i) {
      if ((mask & (1u << i)) != 0) subset.tags[subset.size++] = doc.tags[i];
    }
    Increment(subset);
  }
  return true;
}

uint64_t PeriodOracle::Intersection(const Tags& tags) const {
  Key key;
  if (tags.empty() || !MakeKey(tags, &key)) return 0;
  return Count(key);
}

uint64_t PeriodOracle::Union(const Tags& tags) const {
  Key set;
  if (tags.empty() || !MakeKey(tags, &set)) return 0;
  // |∪ T_t| = Σ_{∅≠A⊆S} (-1)^{|A|+1} |∩_{t∈A} T_t|.
  const uint32_t n = set.size;
  int64_t total = 0;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    Key subset;
    for (uint32_t i = 0; i < n; ++i) {
      if ((mask & (1u << i)) != 0) subset.tags[subset.size++] = set.tags[i];
    }
    const int64_t count = static_cast<int64_t>(Count(subset));
    total += (subset.size % 2 == 1) ? count : -count;
  }
  return total > 0 ? static_cast<uint64_t>(total) : 0;
}

double PeriodOracle::Jaccard(const Tags& tags) const {
  const uint64_t union_count = Union(tags);
  if (union_count == 0) return 0.0;
  return static_cast<double>(Intersection(tags)) /
         static_cast<double>(union_count);
}

std::string CheckEstimateBound(const PeriodOracle& oracle, const Tags& tags,
                               uint64_t intersection, uint64_t union_count) {
  const uint64_t exact_intersection = oracle.Intersection(tags);
  const uint64_t exact_union = oracle.Union(tags);
  if (intersection > exact_intersection) {
    return "intersection " + std::to_string(intersection) +
           " exceeds the exact count " + std::to_string(exact_intersection);
  }
  if (union_count > exact_union) {
    return "union " + std::to_string(union_count) +
           " exceeds the exact union " + std::to_string(exact_union);
  }
  return "";
}

std::string CheckTopAnswer(corrtrack::TagId tag, size_t k,
                           const std::vector<corrtrack::serve::ScoredSet>& answer) {
  if (answer.size() > k) {
    return "answer holds " + std::to_string(answer.size()) + " sets, k = " +
           std::to_string(k);
  }
  for (size_t i = 0; i < answer.size(); ++i) {
    if (!answer[i].tags.Contains(tag)) {
      return "set " + std::to_string(i) + " lacks the queried tag";
    }
    if (i > 0 && answer[i].coefficient > answer[i - 1].coefficient) {
      return "set " + std::to_string(i) + " ranks above a lower coefficient";
    }
  }
  return "";
}

void ErrorMean::Add(double tracked, double exact) {
  sum += std::abs(tracked - exact);
  ++count;
}

}  // namespace e2ebench
