#include "core/set_cover_phase1.h"

#include <cmath>
#include <cstdlib>

#include "core/check.h"

namespace corrtrack {

Phase1Result RunSetCoverPhase1(const CooccurrenceSnapshot& snapshot, int k,
                               Phase1Cost cost) {
  CORRTRACK_CHECK_GT(k, 0);
  const std::vector<TagsetStats>& tagsets = snapshot.tagsets();
  Phase1Result result{PartitionSet(k),
                      std::vector<bool>(tagsets.size(), false),
                      CoveredTags(snapshot)};
  // Coverage puts every snapshot tag into some partition.
  result.partitions.Reserve(snapshot.num_tags());

  uint64_t selected_load_sum = 0;
  for (int m = 1; m <= k; ++m) {
    // Line 3: s_i = argmin c_j and argmax |s_j \ CV|.
    int best = -1;
    double best_cost = 0;
    size_t best_new = 0;
    for (size_t j = 0; j < tagsets.size(); ++j) {
      if (result.assigned[j]) continue;
      const TagsetStats& stats = tagsets[j];
      double c = 0;
      size_t already = 0;
      switch (cost) {
        case Phase1Cost::kCommunication:
          already = result.covered.CountCovered(j);
          c = static_cast<double>(already);
          break;
        case Phase1Cost::kLoad: {
          // Optimal share at iteration m is 1/m; the candidate's real share
          // is l_n / (Σ selected + l_n) (§4.2).
          const double pl_op = 1.0 / static_cast<double>(m);
          const double denom =
              static_cast<double>(selected_load_sum + stats.load);
          const double pl_n =
              denom > 0 ? static_cast<double>(stats.load) / denom : 0.0;
          c = std::abs(pl_op - pl_n);
          // The overlap only breaks ties: skip counting a losing candidate.
          if (best >= 0 && c > best_cost) continue;
          already = result.covered.CountCovered(j);
          break;
        }
        case Phase1Cost::kZero:
          already = result.covered.CountCovered(j);
          break;
      }
      const size_t fresh = stats.tags.size() - already;
      if (best < 0 || c < best_cost ||
          (c == best_cost && fresh > best_new)) {
        best = static_cast<int>(j);
        best_cost = c;
        best_new = fresh;
      }
    }
    if (best < 0) break;  // Fewer tagsets than partitions.
    const TagsetStats& chosen = tagsets[static_cast<size_t>(best)];
    const int partition = m - 1;
    result.partitions.AddTags(partition, chosen.tags);
    result.partitions.AddLoad(partition, chosen.load);
    result.assigned[static_cast<size_t>(best)] = true;
    result.covered.Cover(static_cast<size_t>(best));
    selected_load_sum += chosen.load;
  }
  return result;
}

}  // namespace corrtrack
