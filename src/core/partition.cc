#include "core/partition.h"

#include <algorithm>

#include "core/check.h"
#include "core/inlined_vector.h"
#include "core/stats.h"

namespace corrtrack {

int PartitionIds::operator[](size_t i) const {
  CORRTRACK_CHECK_LT(i, size());
  uint64_t rest = mask_;
  for (; i > 0; --i) rest &= rest - 1;
  return std::countr_zero(rest);
}

PartitionSet::PartitionSet(int k)
    : tags_(static_cast<size_t>(k)), loads_(static_cast<size_t>(k), 0) {
  CORRTRACK_CHECK_GT(k, 0);
  CORRTRACK_CHECK_LE(k, kMaxPartitions);
}

void PartitionSet::CheckPartition(int p) const {
  CORRTRACK_CHECK_GE(p, 0);
  CORRTRACK_CHECK_LT(static_cast<size_t>(p), tags_.size());
}

size_t PartitionSet::PartitionSize(int p) const {
  CheckPartition(p);
  return tags_[static_cast<size_t>(p)].size();
}

std::vector<TagId> PartitionSet::SortedTags(int p) const {
  CheckPartition(p);
  std::vector<TagId> tags = tags_[static_cast<size_t>(p)];
  std::sort(tags.begin(), tags.end());
  return tags;
}

void PartitionSet::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot());
  slot_shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.mask == 0) continue;
    size_t i = SlotIndex(slot.tag);
    while (slots_[i].mask != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void PartitionSet::Reserve(size_t num_tags) {
  const size_t capacity = std::bit_ceil(std::max<size_t>(16, 2 * num_tags));
  if (capacity > slots_.size()) Rehash(capacity);
}

PartitionSet::Slot& PartitionSet::FindOrClaim(TagId tag) {
  // Keep the load factor <= 1/2 counting the slot about to be claimed.
  if (2 * (num_tags_ + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = SlotIndex(tag);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.mask == 0) {
      slot.tag = tag;
      ++num_tags_;
      return slot;
    }
    if (slot.tag == tag) return slot;
  }
}

void PartitionSet::AddTag(int p, TagId tag) {
  CheckPartition(p);
  Slot& slot = FindOrClaim(tag);
  const uint64_t bit = uint64_t{1} << p;
  if ((slot.mask & bit) != 0) return;
  slot.mask |= bit;
  tags_[static_cast<size_t>(p)].push_back(tag);
}

void PartitionSet::AddTags(int p, const TagSet& tags) {
  for (TagId t : tags) AddTag(p, t);
}

bool PartitionSet::PartitionContains(int p, TagId tag) const {
  CheckPartition(p);
  return ((MaskOf(tag) >> p) & 1) != 0;
}

PartitionSet::OverlapArray PartitionSet::OverlapCounts(
    const TagSet& tags) const {
  OverlapArray counts{};
  for (TagId t : tags) {
    for (int p : PartitionIds(MaskOf(t))) ++counts[static_cast<size_t>(p)];
  }
  return counts;
}

std::optional<int> PartitionSet::CoveringPartition(const TagSet& tags) const {
  if (tags.empty()) return std::nullopt;
  uint64_t common = ~uint64_t{0};
  for (TagId t : tags) {
    common &= MaskOf(t);
    if (common == 0) return std::nullopt;
  }
  return std::countr_zero(common);
}

int PartitionSet::Route(const TagSet& tags,
                        std::vector<RoutedSubset>* out) const {
  InlinedVector<uint64_t, 16> masks;
  uint64_t touched = 0;
  for (TagId t : tags) {
    const uint64_t m = MaskOf(t);
    masks.push_back(m);
    touched |= m;
  }
  if (out != nullptr) {
    out->clear();
    out->reserve(static_cast<size_t>(std::popcount(touched)));
    InlinedVector<TagId, 16> subset;
    for (int p : PartitionIds(touched)) {
      subset.clear();
      for (size_t i = 0; i < tags.size(); ++i) {
        if (((masks[i] >> p) & 1) != 0) subset.push_back(tags[i]);
      }
      RoutedSubset routed;
      routed.partition = p;
      routed.tags = TagSet::FromSorted(subset.begin(), subset.end());
      out->push_back(std::move(routed));
    }
  }
  return std::popcount(touched);
}

uint64_t PartitionSet::load(int p) const {
  CheckPartition(p);
  return loads_[static_cast<size_t>(p)];
}

void PartitionSet::AddLoad(int p, uint64_t load) {
  CheckPartition(p);
  loads_[static_cast<size_t>(p)] += load;
}

uint64_t PartitionSet::TotalReplication() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) total += std::popcount(slot.mask);
  return total;
}

bool PartitionSet::IsDisjoint() const {
  for (const Slot& slot : slots_) {
    if (std::popcount(slot.mask) > 1) return false;
  }
  return true;
}

std::string PartitionSet::ToString() const {
  std::string out;
  for (int p = 0; p < num_partitions(); ++p) {
    out += "pr" + std::to_string(p) + "(load=" + std::to_string(load(p)) +
           "): {";
    const std::vector<TagId> tags = SortedTags(p);
    for (size_t i = 0; i < tags.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(tags[i]);
    }
    out += "}\n";
  }
  return out;
}

PartitionQuality EvaluatePartitionQuality(const CooccurrenceSnapshot& snapshot,
                                          const PartitionSet& ps) {
  PartitionQuality quality;
  std::vector<uint64_t> notifications(
      static_cast<size_t>(ps.num_partitions()), 0);
  uint64_t notified_docs = 0;
  uint64_t total_notifications = 0;
  uint64_t covered_docs = 0;
  for (const TagsetStats& stats : snapshot.tagsets()) {
    const int touched =
        ps.ForEachTouchedPartition(stats.tags, [&](int partition) {
          notifications[static_cast<size_t>(partition)] += stats.count;
        });
    if (touched > 0) {
      notified_docs += stats.count;
      total_notifications += static_cast<uint64_t>(touched) * stats.count;
    }
    if (ps.CoveringPartition(stats.tags).has_value()) {
      covered_docs += stats.count;
    }
  }
  if (notified_docs > 0) {
    quality.avg_communication =
        static_cast<double>(total_notifications) /
        static_cast<double>(notified_docs);
  }
  quality.max_load = MaxShare(notifications);
  quality.load_gini = GiniCoefficient(notifications);
  if (snapshot.num_docs() > 0) {
    quality.coverage = static_cast<double>(covered_docs) /
                       static_cast<double>(snapshot.num_docs());
  }
  return quality;
}

}  // namespace corrtrack
