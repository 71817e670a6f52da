#ifndef CORRTRACK_CORE_SET_COVER_PHASE1_H_
#define CORRTRACK_CORE_SET_COVER_PHASE1_H_

#include <cstdint>
#include <vector>

#include "core/cooccurrence.h"
#include "core/partition.h"
#include "core/types.h"

namespace corrtrack {

/// The covered-tag set CV of the set-cover algorithms (§4.2): a bitmap over
/// a snapshot's local tag ids. Tagsets are addressed by their index in
/// snapshot.tagsets(). Keeps a pointer to `snapshot`, which must outlive
/// it.
class CoveredTags {
 public:
  explicit CoveredTags(const CooccurrenceSnapshot& snapshot)
      : snapshot_(&snapshot), words_((snapshot.num_tags() + 63) / 64, 0) {}

  /// |s_i ∩ CV| for tagset `i`.
  size_t CountCovered(size_t i) const {
    size_t n = 0;
    for (uint32_t local : snapshot_->LocalTags(i)) {
      n += (words_[local >> 6] >> (local & 63)) & 1;
    }
    return n;
  }

  /// CV ← CV ∪ s_i.
  void Cover(size_t i) {
    for (uint32_t local : snapshot_->LocalTags(i)) {
      words_[local >> 6] |= uint64_t{1} << (local & 63);
    }
  }

 private:
  const CooccurrenceSnapshot* snapshot_;
  std::vector<uint64_t> words_;
};

/// The cost function c_i that Algorithm 2 plugs into the budgeted-maximum-
/// coverage greedy selection (§4.2).
enum class Phase1Cost {
  /// c_i = |s_i ∩ CV|: tags already covered — communication optimisation
  /// (SCC).
  kCommunication,
  /// c_i = |plop − pl_n|: distance of the candidate's load share from the
  /// optimal share 1/m at iteration m — load optimisation (SCL).
  kLoad,
  /// c_i = 0: plain maximum coverage, as in the earlier paper [1] (SCI).
  kZero,
};

/// Output of Algorithm 2: the k initial partitions (partition m holds the
/// m-th selected tagset), which tagsets were consumed, and the covered-tag
/// set CV that phase 2 continues from.
struct Phase1Result {
  PartitionSet partitions;
  std::vector<bool> assigned;  // Indexed like snapshot.tagsets().
  CoveredTags covered;
};

/// Runs Algorithm 2 over `snapshot` with the given cost function: in each of
/// (up to) k iterations selects the tagset with minimum cost, breaking ties
/// towards maximum newly covered tags |s \ CV|, then minimum tagset index
/// (deterministic).
Phase1Result RunSetCoverPhase1(const CooccurrenceSnapshot& snapshot, int k,
                               Phase1Cost cost);

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_SET_COVER_PHASE1_H_
