#include "core/ds_algorithm.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "core/check.h"
#include "core/scl_algorithm.h"

namespace corrtrack {

namespace {

/// Min-heap entry for "least-loaded partition" selection.
struct LoadEntry {
  uint64_t load;
  int partition;
  bool operator>(const LoadEntry& other) const {
    if (load != other.load) return load > other.load;
    return partition > other.partition;
  }
};

using MinLoadHeap =
    std::priority_queue<LoadEntry, std::vector<LoadEntry>, std::greater<>>;

}  // namespace

PartitionSet DsAlgorithm::CreatePartitions(
    const CooccurrenceSnapshot& snapshot, int k, uint64_t /*seed*/) const {
  PartitionSet ps(k);
  ps.Reserve(snapshot.num_tags());
  // snapshot.components() is sorted by descending load — exactly the order
  // Algorithm 1 consumes disjoint sets (argmax load first).
  const std::vector<ComponentStats>& comps = snapshot.components();
  // Lines 11-14: while unused partitions remain, the heaviest unassigned
  // disjoint set opens a new partition.
  size_t i = 0;
  for (; i < comps.size() && i < static_cast<size_t>(k); ++i) {
    const int target = static_cast<int>(i);
    for (TagId t : comps[i].tags) ps.AddTag(target, t);
    ps.AddLoad(target, comps[i].load);
  }
  // Line 16: afterwards, merge each remaining set into the least-loaded
  // partition.
  MinLoadHeap heap;
  for (int p = 0; p < k; ++p) heap.push({ps.load(p), p});
  for (; i < comps.size(); ++i) {
    const LoadEntry top = heap.top();
    heap.pop();
    for (TagId t : comps[i].tags) ps.AddTag(top.partition, t);
    ps.AddLoad(top.partition, comps[i].load);
    heap.push({ps.load(top.partition), top.partition});
  }
  return ps;
}

std::vector<PartitionFragment> DsAlgorithm::ProposeFragments(
    const CooccurrenceSnapshot& snapshot, int /*k*/, uint64_t /*seed*/) const {
  // Phase 1 only: one fragment per disjoint set (§6.2 — Partitioners "create
  // all possible disjoint sets but do not merge them into k partitions").
  std::vector<PartitionFragment> fragments;
  fragments.reserve(snapshot.components().size());
  for (const ComponentStats& comp : snapshot.components()) {
    PartitionFragment fragment;
    fragment.tags = TagSet::FromSorted(
        comp.tags.data(), comp.tags.data() + comp.tags.size());
    fragment.load = comp.load;
    fragments.push_back(std::move(fragment));
  }
  return fragments;
}

PartitionSet DsSplitAlgorithm::CreatePartitions(
    const CooccurrenceSnapshot& snapshot, int k, uint64_t seed) const {
  const uint64_t max_load = static_cast<uint64_t>(
      max_component_share_ * static_cast<double>(snapshot.num_docs()));
  bool needs_split = false;
  for (const ComponentStats& comp : snapshot.components()) {
    if (comp.load > max_load && comp.tags.size() > 1) {
      needs_split = true;
      break;
    }
  }
  if (!needs_split) {
    return DsAlgorithm().CreatePartitions(snapshot, k, seed);
  }

  // Split oversized components: their tagsets are re-partitioned with SCL
  // into ceil(load / max_load) fragments; small components stay whole.
  std::vector<std::pair<TagSet, uint64_t>> weighted;
  std::vector<PartitionFragment> fragments;
  for (const ComponentStats& comp : snapshot.components()) {
    if (comp.load <= max_load || comp.tags.size() <= 1) {
      PartitionFragment fragment;
      fragment.tags = TagSet::FromSorted(
          comp.tags.data(), comp.tags.data() + comp.tags.size());
      fragment.load = comp.load;
      fragments.push_back(std::move(fragment));
      continue;
    }
    std::vector<std::pair<TagSet, uint64_t>> members;
    members.reserve(comp.tagset_ids.size());
    for (uint32_t id : comp.tagset_ids) {
      const TagsetStats& stats = snapshot.tagsets()[id];
      members.emplace_back(stats.tags, stats.count);
    }
    const int pieces = std::max<int>(
        2, static_cast<int>((comp.load + max_load - 1) / std::max<uint64_t>(
                                max_load, 1)));
    const CooccurrenceSnapshot sub =
        CooccurrenceSnapshot::FromWeightedTagsets(std::move(members));
    const PartitionSet split =
        SclAlgorithm().CreatePartitions(sub, std::min(pieces, k), seed);
    for (int p = 0; p < split.num_partitions(); ++p) {
      if (split.PartitionSize(p) == 0) continue;
      PartitionFragment fragment;
      const std::vector<TagId> tags = split.SortedTags(p);
      fragment.tags =
          TagSet::FromSorted(tags.data(), tags.data() + tags.size());
      fragment.load = split.load(p);
      fragments.push_back(std::move(fragment));
    }
  }

  // Bin-pack the fragments (largest first) like Algorithm 1 phase 2.
  std::sort(fragments.begin(), fragments.end(),
            [](const PartitionFragment& a, const PartitionFragment& b) {
              if (a.load != b.load) return a.load > b.load;
              return a.tags < b.tags;
            });
  PartitionSet ps(k);
  for (size_t i = 0; i < fragments.size(); ++i) {
    int target = 0;
    if (i < static_cast<size_t>(k)) {
      target = static_cast<int>(i);
    } else {
      uint64_t best = ps.load(0);
      for (int p = 1; p < k; ++p) {
        if (ps.load(p) < best) {
          best = ps.load(p);
          target = p;
        }
      }
    }
    ps.AddTags(target, fragments[i].tags);
    ps.AddLoad(target, fragments[i].load);
  }
  return ps;
}

}  // namespace corrtrack
