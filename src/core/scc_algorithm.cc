#include "core/scc_algorithm.h"

#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/set_cover_phase1.h"

namespace corrtrack {

namespace {

/// |s_i \ CV|.
size_t CountUncovered(const CooccurrenceSnapshot& snapshot, size_t i,
                      const CoveredTags& covered) {
  return snapshot.tagsets()[i].tags.size() - covered.CountCovered(i);
}

/// Heap entry ordered by (max uncovered, min tagset size, min index).
struct SccEntry {
  size_t uncovered;
  size_t size;
  uint32_t index;
  bool operator<(const SccEntry& other) const {
    if (uncovered != other.uncovered) return uncovered < other.uncovered;
    if (size != other.size) return size > other.size;
    return index > other.index;
  }
};

void AssignTagset(const CooccurrenceSnapshot& snapshot, size_t i,
                  PartitionSet* ps, CoveredTags* covered) {
  // Line 4: pr_i = argmax |s_i ∩ pr_j| and argmin Σ l_k.
  const TagsetStats& stats = snapshot.tagsets()[i];
  const int target = internal::PickPartitionByOverlapThenLoad(*ps, stats.tags);
  ps->AddTags(target, stats.tags);
  ps->AddLoad(target, stats.load);
  covered->Cover(i);
}

}  // namespace

PartitionSet SccAlgorithm::CreatePartitions(
    const CooccurrenceSnapshot& snapshot, int k, uint64_t /*seed*/) const {
  Phase1Result phase1 =
      RunSetCoverPhase1(snapshot, k, Phase1Cost::kCommunication);
  PartitionSet& ps = phase1.partitions;
  CoveredTags& covered = phase1.covered;
  const std::vector<TagsetStats>& tagsets = snapshot.tagsets();

  if (!use_lazy_heap_) {
    // Reference implementation: full rescan per iteration (Algorithm 3
    // verbatim). Quadratic; kept for tests and the ablation bench.
    size_t remaining = 0;
    for (size_t j = 0; j < tagsets.size(); ++j) {
      if (!phase1.assigned[j]) ++remaining;
    }
    while (remaining > 0) {
      int best = -1;
      size_t best_uncovered = 0;
      size_t best_size = 0;
      for (size_t j = 0; j < tagsets.size(); ++j) {
        if (phase1.assigned[j]) continue;
        const size_t uncovered = CountUncovered(snapshot, j, covered);
        const size_t size = tagsets[j].tags.size();
        if (best < 0 || uncovered > best_uncovered ||
            (uncovered == best_uncovered && size < best_size)) {
          best = static_cast<int>(j);
          best_uncovered = uncovered;
          best_size = size;
        }
      }
      AssignTagset(snapshot, static_cast<size_t>(best), &ps, &covered);
      phase1.assigned[static_cast<size_t>(best)] = true;
      --remaining;
    }
    return ps;
  }

  // Lazy-heap path. |s \ CV| is monotone non-increasing, so stale entries
  // are re-keyed and re-pushed; an up-to-date popped entry is a maximum.
  // The key order is total (index breaks ties), so the pop sequence does
  // not depend on how the heap was built: heapify in O(n).
  std::vector<SccEntry> entries;
  entries.reserve(tagsets.size());
  for (uint32_t j = 0; j < tagsets.size(); ++j) {
    if (phase1.assigned[j]) continue;
    entries.push_back(
        {CountUncovered(snapshot, j, covered), tagsets[j].tags.size(), j});
  }
  std::priority_queue<SccEntry> heap(std::less<SccEntry>(),
                                     std::move(entries));
  while (!heap.empty()) {
    SccEntry top = heap.top();
    heap.pop();
    if (phase1.assigned[top.index]) continue;
    const size_t now = CountUncovered(snapshot, top.index, covered);
    if (now != top.uncovered) {
      CORRTRACK_CHECK_LT(now, top.uncovered);
      top.uncovered = now;
      heap.push(top);
      continue;
    }
    AssignTagset(snapshot, top.index, &ps, &covered);
    phase1.assigned[top.index] = true;
  }
  return ps;
}

}  // namespace corrtrack
