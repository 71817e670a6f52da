#ifndef CORRTRACK_CORE_SCL_ALGORITHM_H_
#define CORRTRACK_CORE_SCL_ALGORITHM_H_

#include "core/partitioning.h"

namespace corrtrack {

/// Set-cover-based algorithm balancing processing load (Algorithms 2 + 4).
///
/// Phase 1 (Algorithm 2, load cost |plop − pln|). Phase 2 (Algorithm 4):
/// repeatedly pick the tagset with the highest load (ties: fewest already
/// covered tags) and append it to the least-loaded partition (ties: most
/// shared tags).
///
/// Phase-2 selection sorts once by the static primary key (load) and runs a
/// lazy heap only inside each group of equal loads: the tie-break |s ∩ CV|
/// only increases, so entries are re-keyed lazily.
class SclAlgorithm : public PartitioningAlgorithm {
 public:
  explicit SclAlgorithm(bool use_lazy_heap = true)
      : use_lazy_heap_(use_lazy_heap) {}

  AlgorithmKind kind() const override { return AlgorithmKind::kSCL; }

  PartitionSet CreatePartitions(const CooccurrenceSnapshot& snapshot, int k,
                                uint64_t seed) const override;

  /// §7.1: SCL places single additions so that load stays balanced.
  int ChooseSingleAdditionTarget(const PartitionSet& ps,
                                 const TagSet& tags) const override;

 private:
  bool use_lazy_heap_;
};

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_SCL_ALGORITHM_H_
