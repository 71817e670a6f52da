#ifndef E2EBENCH_HARNESS_ORACLE_H_
#define E2EBENCH_HARNESS_ORACLE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "serve/correlation_index.h"

namespace e2ebench {

/// A tagset in the generator's tag-id space: sorted, duplicate-free.
using Tags = std::vector<uint32_t>;

/// Largest document tagset the oracle enumerates (the generator's default
/// mmax). Every subset of a document is counted, so the cost per document
/// is 2^size.
inline constexpr size_t kOracleMaxTags = 8;

/// Exact counts of one reporting period, computed straight from the
/// generated documents with the oracle's own hash table — none of the
/// program's counting code (SubsetCounterTable, CentralizedBolt) is used,
/// so the oracle can judge that code.
///
/// For every non-empty tagset that co-occurs in at least one document of
/// the period it holds the number of documents that contain all of its
/// tags (the paper's CN). Unions follow by inclusion–exclusion over those
/// counts, and the Jaccard coefficient is their ratio (§3, Eq. 1–2).
class PeriodOracle {
 public:
  /// Counts one document. `tags` may be unsorted; duplicates are ignored.
  /// Returns false (and counts nothing) for more than kOracleMaxTags tags.
  bool AddDocument(const Tags& tags);

  uint64_t documents() const { return documents_; }

  /// Documents of the period holding every tag of `tags`.
  uint64_t Intersection(const Tags& tags) const;

  /// Documents of the period holding at least one tag of `tags`.
  uint64_t Union(const Tags& tags) const;

  /// Intersection / Union, 0 when no document holds any of the tags.
  double Jaccard(const Tags& tags) const;

  /// Calls `fn(tags, intersection)` for every tagset of two or more tags
  /// held by more than `min_support` documents — the population the
  /// paper's §8.2.3 error is averaged over.
  template <typename Fn>
  void ForEachFrequent(uint64_t min_support, Fn&& fn) const {
    Tags tags;
    for (const Slot& slot : slots_) {
      if (slot.key.size < 2 || slot.count <= min_support) continue;
      tags.assign(slot.key.tags.begin(), slot.key.tags.begin() + slot.key.size);
      fn(tags, slot.count);
    }
  }

 private:
  struct Key {
    std::array<uint32_t, kOracleMaxTags> tags{};
    uint8_t size = 0;
    bool operator==(const Key& other) const {
      return size == other.size && tags == other.tags;
    }
  };
  /// Open-addressing table slot; count 0 marks an empty slot.
  struct Slot {
    Key key;
    uint64_t count = 0;
  };

  /// Builds the key of `tags` (sorted, duplicate-free, at most
  /// kOracleMaxTags); false when the set does not fit.
  static bool MakeKey(const Tags& tags, Key* key);
  static size_t Hash(const Key& key);
  uint64_t Count(const Key& key) const;
  void Increment(const Key& key);
  void Grow();

  std::vector<Slot> slots_;  // Power-of-two size, at most half full.
  size_t used_ = 0;
  uint64_t documents_ = 0;
};

/// Bound check for one tracked or served estimate against the exact
/// counts of its period: a Calculator only ever sees a subset of the
/// period's documents, so its intersection and union counts can fall short
/// of the oracle's but never exceed them. Returns an empty string when the
/// estimate is possible, else the reason it is not.
std::string CheckEstimateBound(const PeriodOracle& oracle, const Tags& tags,
                               uint64_t intersection, uint64_t union_count);

/// Structure check for one TopCorrelated answer (tag ids in the program's
/// own id space): every set holds `tag`, coefficients never increase down
/// the list, and there are at most `k` sets. Returns an empty string when
/// the answer is well-formed, else the first violation.
std::string CheckTopAnswer(corrtrack::TagId tag, size_t k,
                           const std::vector<corrtrack::serve::ScoredSet>& answer);

/// Running mean of |J_tracked - J_exact| (§8.2.3).
struct ErrorMean {
  double sum = 0.0;
  uint64_t count = 0;

  void Add(double tracked, double exact);
  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_ORACLE_H_
