#ifndef CORRTRACK_CORE_PARTITION_H_
#define CORRTRACK_CORE_PARTITION_H_

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cooccurrence.h"
#include "core/tagset.h"
#include "core/types.h"

namespace corrtrack {

/// One outgoing notification: the subset s_i^j of a document's tags that is
/// assigned to Calculator `partition` (§6.2, Disseminator).
struct RoutedSubset {
  int partition = -1;
  TagSet tags;
};

/// Quality of a partitioning with respect to a workload snapshot (§7.2):
/// expected communication and load statistics, measured exactly the way the
/// Disseminator measures them at run time.
struct PartitionQuality {
  /// Average number of partitions notified per document whose tagset touches
  /// at least one partition ("Communication", §8.2.1).
  double avg_communication = 0.0;
  /// Largest per-partition share of the total notifications ("maxLoad").
  double max_load = 0.0;
  /// Gini coefficient over per-partition notification counts (§8.2.2).
  double load_gini = 0.0;
  /// Fraction of documents whose whole tagset is covered by some partition.
  double coverage = 0.0;
};

/// Upper bound on the number of partitions k: a tag's partition membership
/// is one bit of a 64-bit mask.
inline constexpr int kMaxPartitions = 64;

/// The partition ids of a membership mask in ascending order, iterable like
/// a container of ints.
class PartitionIds {
 public:
  class Iterator {
   public:
    explicit Iterator(uint64_t rest) : rest_(rest) {}
    int operator*() const { return std::countr_zero(rest_); }
    Iterator& operator++() {
      rest_ &= rest_ - 1;  // Clear the lowest set bit.
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return rest_ == other.rest_;
    }

   private:
    uint64_t rest_;
  };

  explicit PartitionIds(uint64_t mask) : mask_(mask) {}

  Iterator begin() const { return Iterator(mask_); }
  Iterator end() const { return Iterator(0); }
  size_t size() const { return static_cast<size_t>(std::popcount(mask_)); }
  bool empty() const { return mask_ == 0; }
  /// The i-th smallest id; requires i < size().
  int operator[](size_t i) const;

 private:
  uint64_t mask_;
};

/// A set of k tag partitions pr_1..pr_k plus an inverted index from tag to
/// the partitions containing it — the index the Disseminator keeps (§3.3,
/// backed by the set-valued-attribute indexing result of Helmer & Moerkotte
/// [10]).
///
/// Layout (all flat, so a copy is k + 2 allocations):
///   - an open-addressing table TagId -> 64-bit partition mask (bit p set
///     when the tag is in partition p; k <= kMaxPartitions), linear probing,
///     load factor <= 1/2, a zero mask marks an empty slot;
///   - per-partition tag lists in insertion order (sorted on demand);
///   - per-partition load accumulators: the partitioning algorithms record
///     Σ l_k of the tagsets they assign (Algorithms 1, 3, 4), and the Merger
///     uses the same value to place single additions.
/// Routing a document is then an OR of its tags' masks, and finding a
/// covering partition an AND.
class PartitionSet {
 public:
  /// Per-partition overlap counts with a tagset (entries >= k stay 0).
  using OverlapArray = std::array<uint32_t, kMaxPartitions>;

  PartitionSet() = default;
  /// Requires 0 < k <= kMaxPartitions.
  explicit PartitionSet(int k);

  int num_partitions() const { return static_cast<int>(tags_.size()); }

  /// Number of tags in partition `p`.
  size_t PartitionSize(int p) const;

  /// Tags of partition `p` in ascending order (materialised on demand).
  std::vector<TagId> SortedTags(int p) const;

  /// Sizes the tag table for `num_tags` distinct tags, so that adding them
  /// does not rehash.
  void Reserve(size_t num_tags);

  /// Adds `tag` to partition `p` (no-op when already present).
  void AddTag(int p, TagId tag);
  void AddTags(int p, const TagSet& tags);

  bool PartitionContains(int p, TagId tag) const;

  /// Number of tags of `tags` present in each partition, in one pass over
  /// `tags`.
  OverlapArray OverlapCounts(const TagSet& tags) const;

  /// The partitions containing `tag` (ascending partition ids); empty for
  /// unassigned tags.
  PartitionIds PartitionsWithTag(TagId tag) const {
    return PartitionIds(MaskOf(tag));
  }

  /// A partition containing *every* tag of `tags`, if any — the Calculator
  /// able to compute this tagset's Jaccard coefficient. Smallest such
  /// partition id wins (deterministic).
  std::optional<int> CoveringPartition(const TagSet& tags) const;

  /// Computes the notifications for a document tagged `tags`: one per
  /// partition holding at least one of the tags, carrying the held subset.
  /// Returns the number of notified partitions; `out` (optional) receives
  /// the subsets ordered by partition id.
  int Route(const TagSet& tags, std::vector<RoutedSubset>* out) const;

  /// Count-only variant of Route: invokes `fn(partition)` once per touched
  /// partition (ascending) and returns the count. No subset
  /// materialisation — used by quality evaluation over whole snapshots.
  template <typename Fn>
  int ForEachTouchedPartition(const TagSet& tags, Fn&& fn) const {
    uint64_t touched = 0;
    for (TagId t : tags) touched |= MaskOf(t);
    for (int p : PartitionIds(touched)) fn(p);
    return std::popcount(touched);
  }

  /// Per-partition load accumulators (algorithm bookkeeping).
  uint64_t load(int p) const;
  void AddLoad(int p, uint64_t load);
  const std::vector<uint64_t>& loads() const { return loads_; }

  /// Σ_t |{pr : t ∈ pr}| — the replication objective of §1.1 (2).
  uint64_t TotalReplication() const;

  /// Number of distinct tags assigned anywhere.
  size_t NumDistinctTags() const { return num_tags_; }

  /// True when every tag appears in exactly one partition.
  bool IsDisjoint() const;

  std::string ToString() const;

 private:
  struct Slot {
    TagId tag = 0;
    uint64_t mask = 0;  // 0: empty slot.
  };

  /// Partition mask of `tag`; 0 for unassigned tags.
  uint64_t MaskOf(TagId tag) const {
    if (slots_.empty()) return 0;
    const size_t mask = slots_.size() - 1;
    for (size_t i = SlotIndex(tag);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.mask == 0) return 0;
      if (slot.tag == tag) return slot.mask;
    }
  }
  size_t SlotIndex(TagId tag) const {
    // Fibonacci hashing: the top bits of a multiplicative hash.
    return static_cast<size_t>((uint64_t{tag} * 0x9e3779b97f4a7c15ull) >>
                               slot_shift_);
  }
  /// The slot holding `tag`, claimed (mask still 0) when absent.
  Slot& FindOrClaim(TagId tag);
  void Rehash(size_t capacity);
  void CheckPartition(int p) const;

  std::vector<Slot> slots_;  // Power-of-two size, or empty.
  int slot_shift_ = 64;      // 64 - log2(slots_.size()).
  size_t num_tags_ = 0;
  std::vector<std::vector<TagId>> tags_;  // Per partition, insertion order.
  std::vector<uint64_t> loads_;
};

/// Evaluates `ps` against a workload the way §7.2 defines partition quality:
/// every snapshot tagset is routed; documents with zero notifications are
/// excluded from avg_communication (as in §8.2.1) but counted against
/// coverage.
PartitionQuality EvaluatePartitionQuality(const CooccurrenceSnapshot& snapshot,
                                          const PartitionSet& ps);

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_PARTITION_H_
