#ifndef CORRTRACK_CORE_COOCCURRENCE_H_
#define CORRTRACK_CORE_COOCCURRENCE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/document.h"
#include "core/flat_counter_table.h"
#include "core/tagset.h"
#include "core/types.h"

namespace corrtrack {

/// A distinct co-occurring tagset s_j observed in a window, with the number
/// of documents annotated with exactly s_j (`count`) and its load
/// l_j = |{d : s_j ∩ tags(d) ≠ ∅}| — the number of documents annotated with
/// *any* tag of s_j (§4.2). For the DS algorithm the same quantity per
/// connected component is the component load (Algorithm 1, line 4).
struct TagsetStats {
  TagSet tags;
  uint64_t count = 0;
  uint64_t load = 0;
};

/// Statistics of one connected component of the tag co-occurrence graph.
struct ComponentStats {
  std::vector<TagId> tags;           // Ascending.
  std::vector<uint32_t> tagset_ids;  // Indices into snapshot tagsets().
  uint64_t load = 0;                 // Documents touching the component.
};

/// Immutable aggregate view of a window of documents: the distinct tagsets,
/// their multiplicities and loads, per-tag document counts, and the
/// connected components of the tag graph. This is the input all four
/// partitioning algorithms consume.
///
/// The snapshot can equally be built from weighted tagsets (tagset, count)
/// with no underlying documents — the Merger uses this to re-run a
/// partitioning algorithm over partition fragments proposed by the
/// Partitioners (§6.2), treating each fragment as a tagset whose count is
/// the fragment's load.
///
/// Layout: every distinct tag gets a snapshot-local id, its rank in the
/// ascending tags() vector. The build sorts (tag, occurrence) keys once and
/// derives two flat (CSR) arrays from them: each tagset's local tag ids
/// (LocalTags) and each local tag's posting list of tagset indices. Loads, components and the set-cover kernels work
/// on local ids, so no TagId is looked up after the build.
class CooccurrenceSnapshot {
 public:
  /// Aggregates documents (multiset of tagsets) into a snapshot. Counting
  /// happens during collection (duplicate-heavy windows are the norm), so
  /// the buffered state scales with distinct tagsets, not documents;
  /// FlatTagSetMap iterates in insertion order, preserving the
  /// first-appearance order of distinct tagsets.
  template <typename DocIterator>
  static CooccurrenceSnapshot FromDocuments(DocIterator first,
                                            DocIterator last) {
    FlatTagSetMap<uint64_t> counts;
    for (DocIterator it = first; it != last; ++it) {
      if (it->tags.empty()) continue;
      ++counts[it->tags];
    }
    std::vector<std::pair<TagSet, uint64_t>> weighted;
    weighted.reserve(counts.size());
    for (auto& [tags, count] : counts) {
      weighted.emplace_back(std::move(tags), count);
    }
    // The map already guarantees distinct tagsets, so skip
    // FromWeightedTagsets' dedup sort and build directly.
    return CooccurrenceSnapshot(std::move(weighted));
  }

  /// Builds directly from distinct (tagset, count) pairs. Duplicate tagsets
  /// are merged.
  static CooccurrenceSnapshot FromWeightedTagsets(
      std::vector<std::pair<TagSet, uint64_t>> weighted);

  /// Distinct tagsets with count and load.
  const std::vector<TagsetStats>& tagsets() const { return tagsets_; }

  /// Total number of documents aggregated (sum of counts).
  uint64_t num_docs() const { return num_docs_; }

  /// Distinct tags, ascending.
  const std::vector<TagId>& tags() const { return tags_; }
  size_t num_tags() const { return tags_.size(); }

  /// Number of documents containing `tag` (0 if the tag is not in the
  /// snapshot).
  uint64_t TagCount(TagId tag) const;

  /// Indices (into tagsets()) of the tagsets containing `tag`, ascending;
  /// empty for unknown tags.
  std::span<const uint32_t> TagsetsWithTag(TagId tag) const;

  /// Snapshot-local ids (indices into tags()) of the tags of tagset `i`,
  /// ascending.
  std::span<const uint32_t> LocalTags(size_t i) const {
    return {tagset_tags_.data() + tagset_offsets_[i],
            tagset_tags_.data() + tagset_offsets_[i + 1]};
  }

  /// Load of an arbitrary tagset: number of documents containing any of its
  /// tags. Works for tagsets not present in the snapshot.
  uint64_t ComputeLoad(const TagSet& tags) const;

  /// Connected components of the tag graph (two tags connected when they
  /// co-occur in a tagset), ordered by descending load. Built on first use:
  /// only the DS family needs them.
  const std::vector<ComponentStats>& components() const;

 private:
  explicit CooccurrenceSnapshot(
      std::vector<std::pair<TagSet, uint64_t>> weighted);

  static constexpr uint32_t kNoLocalIndex = static_cast<uint32_t>(-1);

  void BuildTagIndex();
  void ComputeTagsetLoads();
  void BuildComponents() const;

  /// Local id of `tag` (binary search in tags_), or kNoLocalIndex for
  /// tags absent from the snapshot. Only the TagId-keyed queries use it.
  uint32_t LocalIndex(TagId tag) const;

  /// Indices of the tagsets containing the tag with local id `local`,
  /// ascending.
  std::span<const uint32_t> TagsetsWithLocalTag(uint32_t local) const {
    return {postings_.data() + posting_offsets_[local],
            postings_.data() + posting_offsets_[local + 1]};
  }

  /// Σ count over the tagsets containing any of the `locals`.
  uint64_t LoadOfLocalTags(std::span<const uint32_t> locals) const;

  std::vector<TagsetStats> tagsets_;
  uint64_t num_docs_ = 0;
  std::vector<TagId> tags_;           // Ascending; local id = position.
  std::vector<uint64_t> tag_counts_;  // By local id.
  // CSR: tagset i's local tag ids are
  // tagset_tags_[tagset_offsets_[i], tagset_offsets_[i + 1]).
  std::vector<uint32_t> tagset_offsets_;
  std::vector<uint32_t> tagset_tags_;
  // CSR: the tagsets containing local tag l are
  // postings_[posting_offsets_[l], posting_offsets_[l + 1]).
  std::vector<uint32_t> posting_offsets_;
  std::vector<uint32_t> postings_;
  mutable std::vector<ComponentStats> components_;
  mutable bool components_built_ = false;

  // Scratch for ComputeLoad-style traversals (stamped visited marks). This
  // and the lazily built components make a snapshot single-threaded.
  mutable std::vector<uint32_t> visit_stamp_;
  mutable uint32_t current_stamp_ = 0;
};

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_COOCCURRENCE_H_
