#include "core/cooccurrence.h"

#include <algorithm>

#include "core/check.h"
#include "core/inlined_vector.h"
#include "core/union_find.h"

namespace corrtrack {

CooccurrenceSnapshot CooccurrenceSnapshot::FromWeightedTagsets(
    std::vector<std::pair<TagSet, uint64_t>> weighted) {
  // Merge duplicates so downstream invariants (one entry per distinct
  // tagset) hold regardless of caller hygiene. Stable sort-merge over an
  // index array: each run of equal tagsets folds its counts into the
  // earliest occurrence, which keeps first-appearance order — identical to
  // the hash-map dedup this replaces, but allocation-flat and ordered.
  std::vector<uint32_t> order;
  order.reserve(weighted.size());
  for (uint32_t i = 0; i < weighted.size(); ++i) {
    if (!weighted[i].first.empty() && weighted[i].second > 0) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (weighted[a].first != weighted[b].first) {
      return weighted[a].first < weighted[b].first;
    }
    return a < b;
  });
  for (size_t i = 0; i < order.size();) {
    size_t j = i + 1;
    while (j < order.size() &&
           weighted[order[j]].first == weighted[order[i]].first) {
      weighted[order[i]].second += weighted[order[j]].second;
      weighted[order[j]].second = 0;  // Folded into the first occurrence.
      ++j;
    }
    i = j;
  }
  std::vector<std::pair<TagSet, uint64_t>> merged;
  merged.reserve(order.size());
  for (auto& [tags, count] : weighted) {
    if (tags.empty() || count == 0) continue;
    merged.emplace_back(std::move(tags), count);
  }
  return CooccurrenceSnapshot(std::move(merged));
}

CooccurrenceSnapshot::CooccurrenceSnapshot(
    std::vector<std::pair<TagSet, uint64_t>> weighted) {
  tagsets_.reserve(weighted.size());
  for (auto& [tags, count] : weighted) {
    TagsetStats stats;
    stats.tags = std::move(tags);
    stats.count = count;
    num_docs_ += count;
    tagsets_.push_back(std::move(stats));
  }
  BuildTagIndex();
  ComputeTagsetLoads();
}

uint32_t CooccurrenceSnapshot::LocalIndex(TagId tag) const {
  const auto it = std::lower_bound(tags_.begin(), tags_.end(), tag);
  if (it == tags_.end() || *it != tag) return kNoLocalIndex;
  return static_cast<uint32_t>(it - tags_.begin());
}

void CooccurrenceSnapshot::BuildTagIndex() {
  // One sort of (tag, occurrence) keys yields everything: the distinct tags
  // in ascending order (local ids), each occurrence's local id, and — since
  // occurrences of one tag come out in tagset order — the posting lists.
  tagset_offsets_.resize(tagsets_.size() + 1);
  size_t occurrences = 0;
  for (size_t i = 0; i < tagsets_.size(); ++i) {
    tagset_offsets_[i] = static_cast<uint32_t>(occurrences);
    occurrences += tagsets_[i].tags.size();
  }
  tagset_offsets_[tagsets_.size()] = static_cast<uint32_t>(occurrences);
  CORRTRACK_CHECK_LT(occurrences, size_t{1} << 32);
  std::vector<uint64_t> keys;
  std::vector<uint32_t> owner(occurrences);
  keys.reserve(occurrences);
  for (uint32_t i = 0; i < tagsets_.size(); ++i) {
    for (TagId t : tagsets_[i].tags) {
      owner[keys.size()] = i;
      keys.push_back((uint64_t{t} << 32) | keys.size());
    }
  }
  std::sort(keys.begin(), keys.end());

  tagset_tags_.resize(occurrences);
  postings_.resize(occurrences);
  for (size_t n = 0; n < keys.size(); ++n) {
    const TagId tag = static_cast<TagId>(keys[n] >> 32);
    const uint32_t occurrence = static_cast<uint32_t>(keys[n]);
    if (tags_.empty() || tags_.back() != tag) {
      tags_.push_back(tag);
      posting_offsets_.push_back(static_cast<uint32_t>(n));
    }
    tagset_tags_[occurrence] = static_cast<uint32_t>(tags_.size() - 1);
    postings_[n] = owner[occurrence];
  }
  posting_offsets_.push_back(static_cast<uint32_t>(occurrences));

  tag_counts_.assign(tags_.size(), 0);
  for (uint32_t local = 0; local < tags_.size(); ++local) {
    for (uint32_t i : TagsetsWithLocalTag(local)) {
      tag_counts_[local] += tagsets_[i].count;
    }
  }
  visit_stamp_.assign(tagsets_.size(), 0);
}

void CooccurrenceSnapshot::ComputeTagsetLoads() {
  for (size_t i = 0; i < tagsets_.size(); ++i) {
    tagsets_[i].load = LoadOfLocalTags(LocalTags(i));
  }
}

uint64_t CooccurrenceSnapshot::LoadOfLocalTags(
    std::span<const uint32_t> locals) const {
  ++current_stamp_;
  uint64_t load = 0;
  for (uint32_t local : locals) {
    for (uint32_t tagset_idx : TagsetsWithLocalTag(local)) {
      if (visit_stamp_[tagset_idx] == current_stamp_) continue;
      visit_stamp_[tagset_idx] = current_stamp_;
      load += tagsets_[tagset_idx].count;
    }
  }
  return load;
}

uint64_t CooccurrenceSnapshot::ComputeLoad(const TagSet& tags) const {
  InlinedVector<uint32_t, 16> locals;
  for (TagId t : tags) {
    const uint32_t local = LocalIndex(t);
    if (local != kNoLocalIndex) locals.push_back(local);
  }
  return LoadOfLocalTags({locals.begin(), locals.end()});
}

uint64_t CooccurrenceSnapshot::TagCount(TagId tag) const {
  const uint32_t local = LocalIndex(tag);
  if (local == kNoLocalIndex) return 0;
  return tag_counts_[local];
}

std::span<const uint32_t> CooccurrenceSnapshot::TagsetsWithTag(
    TagId tag) const {
  const uint32_t local = LocalIndex(tag);
  if (local == kNoLocalIndex) return {};
  return TagsetsWithLocalTag(local);
}

const std::vector<ComponentStats>& CooccurrenceSnapshot::components() const {
  if (!components_built_) {
    BuildComponents();
    components_built_ = true;
  }
  return components_;
}

void CooccurrenceSnapshot::BuildComponents() const {
  UnionFind uf(tags_.size());
  for (size_t i = 0; i < tagsets_.size(); ++i) {
    const std::span<const uint32_t> locals = LocalTags(i);
    for (size_t j = 1; j < locals.size(); ++j) uf.Union(locals[0], locals[j]);
  }
  // Roots are local tag indices, so a dense vector replaces the hash map.
  std::vector<uint32_t> root_to_component(tags_.size(), kNoLocalIndex);
  for (uint32_t local = 0; local < tags_.size(); ++local) {
    const size_t root = uf.Find(local);
    if (root_to_component[root] == kNoLocalIndex) {
      root_to_component[root] = static_cast<uint32_t>(components_.size());
      components_.emplace_back();
    }
    components_[root_to_component[root]].tags.push_back(tags_[local]);
  }
  // Every tagset lies entirely inside one component; attribute its ids and
  // count there.
  for (uint32_t i = 0; i < tagsets_.size(); ++i) {
    const size_t root = uf.Find(LocalTags(i)[0]);
    ComponentStats& comp = components_[root_to_component[root]];
    comp.tagset_ids.push_back(i);
    comp.load += tagsets_[i].count;
  }
  std::sort(components_.begin(), components_.end(),
            [](const ComponentStats& a, const ComponentStats& b) {
              if (a.load != b.load) return a.load > b.load;
              return a.tags < b.tags;  // Deterministic tie-break.
            });
  for (ComponentStats& comp : components_) {
    CORRTRACK_CHECK(std::is_sorted(comp.tags.begin(), comp.tags.end()));
  }
}

}  // namespace corrtrack
