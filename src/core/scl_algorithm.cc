#include "core/scl_algorithm.h"

#include <algorithm>
#include <vector>

#include "core/check.h"
#include "core/set_cover_phase1.h"

namespace corrtrack {

namespace {

/// Lazy-heap entry within one load group, ordered so that the heap top
/// has the least covered-overlap, then the least index.
struct TieEntry {
  size_t covered_overlap;
  uint32_t index;
  bool operator<(const TieEntry& other) const {
    if (covered_overlap != other.covered_overlap) {
      return covered_overlap > other.covered_overlap;
    }
    return index > other.index;
  }
};

void AssignTagset(const CooccurrenceSnapshot& snapshot, size_t i,
                  PartitionSet* ps, CoveredTags* covered) {
  // Line 4: pr_i = argmin Σ l_k and argmax |s_i ∩ pr_j|.
  const TagsetStats& stats = snapshot.tagsets()[i];
  const int target = internal::PickPartitionByLoadThenOverlap(*ps, stats.tags);
  ps->AddTags(target, stats.tags);
  ps->AddLoad(target, stats.load);
  covered->Cover(i);
}

}  // namespace

PartitionSet SclAlgorithm::CreatePartitions(
    const CooccurrenceSnapshot& snapshot, int k, uint64_t /*seed*/) const {
  Phase1Result phase1 = RunSetCoverPhase1(snapshot, k, Phase1Cost::kLoad);
  PartitionSet& ps = phase1.partitions;
  CoveredTags& covered = phase1.covered;
  const std::vector<TagsetStats>& tagsets = snapshot.tagsets();

  if (!use_lazy_heap_) {
    // Algorithm 4 verbatim (quadratic rescan), for tests and the ablation.
    size_t remaining = 0;
    for (size_t j = 0; j < tagsets.size(); ++j) {
      if (!phase1.assigned[j]) ++remaining;
    }
    while (remaining > 0) {
      int best = -1;
      uint64_t best_load = 0;
      size_t best_overlap = 0;
      for (size_t j = 0; j < tagsets.size(); ++j) {
        if (phase1.assigned[j]) continue;
        const uint64_t load = tagsets[j].load;
        const size_t overlap = covered.CountCovered(j);
        if (best < 0 || load > best_load ||
            (load == best_load && overlap < best_overlap)) {
          best = static_cast<int>(j);
          best_load = load;
          best_overlap = overlap;
        }
      }
      AssignTagset(snapshot, static_cast<size_t>(best), &ps, &covered);
      phase1.assigned[static_cast<size_t>(best)] = true;
      --remaining;
    }
    return ps;
  }

  // Fast path. The primary key, load, is static: sort once by (load desc,
  // index asc) and take the tagsets group by group. Only within a group of
  // equal loads does the tie-break |s ∩ CV| matter, and it only grows as
  // tagsets are assigned, so a lazy heap serves it: a popped entry whose
  // recomputed overlap is unchanged is the true minimum.
  std::vector<uint32_t> order;
  order.reserve(tagsets.size());
  for (uint32_t j = 0; j < tagsets.size(); ++j) {
    if (!phase1.assigned[j]) order.push_back(j);
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (tagsets[a].load != tagsets[b].load) {
      return tagsets[a].load > tagsets[b].load;
    }
    return a < b;
  });
  std::vector<TieEntry> heap;
  for (size_t begin = 0; begin < order.size();) {
    size_t end = begin + 1;
    while (end < order.size() &&
           tagsets[order[end]].load == tagsets[order[begin]].load) {
      ++end;
    }
    heap.clear();
    for (size_t i = begin; i < end; ++i) {
      heap.push_back({covered.CountCovered(order[i]), order[i]});
    }
    std::make_heap(heap.begin(), heap.end());
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end());
      TieEntry top = heap.back();
      heap.pop_back();
      const size_t now = covered.CountCovered(top.index);
      if (now != top.covered_overlap) {
        CORRTRACK_CHECK_GT(now, top.covered_overlap);
        top.covered_overlap = now;
        heap.push_back(top);
        std::push_heap(heap.begin(), heap.end());
        continue;
      }
      AssignTagset(snapshot, top.index, &ps, &covered);
    }
    begin = end;
  }
  return ps;
}

int SclAlgorithm::ChooseSingleAdditionTarget(const PartitionSet& ps,
                                             const TagSet& tags) const {
  return internal::PickPartitionByLoadThenOverlap(ps, tags);
}

}  // namespace corrtrack
