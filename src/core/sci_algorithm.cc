#include "core/sci_algorithm.h"

#include <algorithm>
#include <random>
#include <vector>

#include "core/set_cover_phase1.h"

namespace corrtrack {

PartitionSet SciAlgorithm::CreatePartitions(
    const CooccurrenceSnapshot& snapshot, int k, uint64_t seed) const {
  Phase1Result phase1 = RunSetCoverPhase1(snapshot, k, Phase1Cost::kZero);
  PartitionSet& ps = phase1.partitions;
  const std::vector<TagsetStats>& tagsets = snapshot.tagsets();

  // Line 2: s_i = S.random() — a seeded shuffle of the unassigned tagsets.
  std::vector<uint32_t> order;
  order.reserve(tagsets.size());
  for (uint32_t j = 0; j < tagsets.size(); ++j) {
    if (!phase1.assigned[j]) order.push_back(j);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);

  for (uint32_t j : order) {
    const TagsetStats& stats = tagsets[j];
    // Line 3: the partition sharing the most tags (∩; see header note).
    // SCI tracks no loads; ties go to the lowest partition id.
    const PartitionSet::OverlapArray overlap = ps.OverlapCounts(stats.tags);
    int target = 0;
    for (int p = 1; p < ps.num_partitions(); ++p) {
      if (overlap[static_cast<size_t>(p)] >
          overlap[static_cast<size_t>(target)]) {
        target = p;
      }
    }
    ps.AddTags(target, stats.tags);
    ps.AddLoad(target, stats.load);  // Bookkeeping only; not used to select.
  }
  return ps;
}

}  // namespace corrtrack
