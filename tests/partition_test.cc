#include "core/partition.h"

#include <optional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cooccurrence.h"
#include "ops/checkpoint_state.h"

namespace corrtrack {
namespace {

TEST(PartitionSet, AddAndLookup) {
  PartitionSet ps(3);
  ps.AddTag(0, 10);
  ps.AddTag(1, 10);
  ps.AddTag(2, 20);
  EXPECT_TRUE(ps.PartitionContains(0, 10));
  EXPECT_TRUE(ps.PartitionContains(1, 10));
  EXPECT_FALSE(ps.PartitionContains(2, 10));
  const auto& with10 = ps.PartitionsWithTag(10);
  ASSERT_EQ(with10.size(), 2u);
  EXPECT_EQ(with10[0], 0);
  EXPECT_EQ(with10[1], 1);
  EXPECT_TRUE(ps.PartitionsWithTag(999).empty());
}

TEST(PartitionSet, AddTagIsIdempotent) {
  PartitionSet ps(2);
  ps.AddTag(0, 5);
  ps.AddTag(0, 5);
  EXPECT_EQ(ps.PartitionsWithTag(5).size(), 1u);
  EXPECT_EQ(ps.TotalReplication(), 1u);
}

TEST(PartitionSet, IndexStaysSortedRegardlessOfInsertOrder) {
  PartitionSet ps(4);
  ps.AddTag(3, 7);
  ps.AddTag(0, 7);
  ps.AddTag(2, 7);
  const auto& list = ps.PartitionsWithTag(7);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], 0);
  EXPECT_EQ(list[1], 2);
  EXPECT_EQ(list[2], 3);
}

TEST(PartitionSet, CoveringPartition) {
  PartitionSet ps(2);
  ps.AddTags(0, TagSet({1, 2, 3}));
  ps.AddTags(1, TagSet({2, 3}));
  EXPECT_EQ(ps.CoveringPartition(TagSet({1, 2})), 0);
  EXPECT_EQ(ps.CoveringPartition(TagSet({2, 3})), 0);  // Smallest id wins.
  EXPECT_EQ(ps.CoveringPartition(TagSet({3})), 0);
  EXPECT_FALSE(ps.CoveringPartition(TagSet({1, 4})).has_value());
  EXPECT_FALSE(ps.CoveringPartition(TagSet()).has_value());
}

TEST(PartitionSet, RouteComputesPerPartitionSubsets) {
  // The §6.2 example: s = {a,b,c}; C1 holds {a,b,c}, C2 holds {a,c}.
  PartitionSet ps(3);
  ps.AddTags(0, TagSet({1, 2, 3}));
  ps.AddTags(1, TagSet({1, 3}));
  std::vector<RoutedSubset> routed;
  const int n = ps.Route(TagSet({1, 2, 3}), &routed);
  EXPECT_EQ(n, 2);
  ASSERT_EQ(routed.size(), 2u);
  EXPECT_EQ(routed[0].partition, 0);
  EXPECT_EQ(routed[0].tags, TagSet({1, 2, 3}));
  EXPECT_EQ(routed[1].partition, 1);
  EXPECT_EQ(routed[1].tags, TagSet({1, 3}));
}

TEST(PartitionSet, RouteUnknownTags) {
  PartitionSet ps(2);
  ps.AddTags(0, TagSet({1}));
  std::vector<RoutedSubset> routed;
  EXPECT_EQ(ps.Route(TagSet({5, 6}), &routed), 0);
  EXPECT_TRUE(routed.empty());
  EXPECT_EQ(ps.Route(TagSet({1, 5}), &routed), 1);
  ASSERT_EQ(routed.size(), 1u);
  EXPECT_EQ(routed[0].tags, TagSet({1}));
}

TEST(PartitionSet, ForEachTouchedPartitionAgreesWithRoute) {
  PartitionSet ps(4);
  ps.AddTags(0, TagSet({1, 2}));
  ps.AddTags(1, TagSet({2, 3}));
  ps.AddTags(3, TagSet({4}));
  for (const TagSet& probe :
       {TagSet({1}), TagSet({2}), TagSet({2, 4}), TagSet({9}),
        TagSet({1, 2, 3, 4})}) {
    std::vector<RoutedSubset> routed;
    const int via_route = ps.Route(probe, &routed);
    int count = 0;
    std::set<int> touched;
    const int via_fast = ps.ForEachTouchedPartition(probe, [&](int p) {
      ++count;
      touched.insert(p);
    });
    EXPECT_EQ(via_route, via_fast);
    EXPECT_EQ(count, via_fast);
    std::set<int> expected;
    for (const auto& r : routed) expected.insert(r.partition);
    EXPECT_EQ(touched, expected);
  }
}

TEST(PartitionSet, LoadsAndReplication) {
  PartitionSet ps(2);
  ps.AddTags(0, TagSet({1, 2}));
  ps.AddTags(1, TagSet({2, 3}));
  ps.AddLoad(0, 10);
  ps.AddLoad(1, 4);
  ps.AddLoad(1, 2);
  EXPECT_EQ(ps.load(0), 10u);
  EXPECT_EQ(ps.load(1), 6u);
  EXPECT_EQ(ps.TotalReplication(), 4u);  // 1,3 once; 2 twice.
  EXPECT_EQ(ps.NumDistinctTags(), 3u);
  EXPECT_FALSE(ps.IsDisjoint());
}

TEST(PartitionSet, DisjointDetection) {
  PartitionSet ps(2);
  ps.AddTags(0, TagSet({1, 2}));
  ps.AddTags(1, TagSet({3}));
  EXPECT_TRUE(ps.IsDisjoint());
}

TEST(PartitionSet, OverlapCounts) {
  PartitionSet ps(3);
  ps.AddTags(0, TagSet({1, 2, 3}));
  ps.AddTags(2, TagSet({3, 4}));
  const PartitionSet::OverlapArray counts =
      ps.OverlapCounts(TagSet({2, 3, 4}));
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 0u);  // Beyond k.
}

TEST(PartitionSet, UsesEveryBitUpToMaxPartitions) {
  PartitionSet ps(kMaxPartitions);
  ps.AddTag(kMaxPartitions - 1, 9);
  ps.AddTag(0, 9);
  EXPECT_EQ(ps.CoveringPartition(TagSet({9})), 0);
  const PartitionIds ids = ps.PartitionsWithTag(9);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[1], kMaxPartitions - 1);
  std::vector<RoutedSubset> routed;
  EXPECT_EQ(ps.Route(TagSet({9}), &routed), 2);
  EXPECT_EQ(routed[1].partition, kMaxPartitions - 1);
}

/// The obvious implementation PartitionSet must agree with: one std::set
/// per partition.
struct ReferencePartitions {
  std::vector<std::set<TagId>> parts;
  std::vector<uint64_t> loads;

  explicit ReferencePartitions(int k)
      : parts(static_cast<size_t>(k)), loads(static_cast<size_t>(k), 0) {}

  std::vector<int> WithTag(TagId t) const {
    std::vector<int> out;
    for (size_t p = 0; p < parts.size(); ++p) {
      if (parts[p].count(t) > 0) out.push_back(static_cast<int>(p));
    }
    return out;
  }
};

void ExpectSameQueries(const PartitionSet& ps, const ReferencePartitions& ref,
                       const std::vector<TagSet>& probes) {
  const int k = static_cast<int>(ref.parts.size());
  ASSERT_EQ(ps.num_partitions(), k);
  std::set<TagId> all;
  uint64_t replication = 0;
  for (int p = 0; p < k; ++p) {
    const std::set<TagId>& part = ref.parts[static_cast<size_t>(p)];
    EXPECT_EQ(ps.PartitionSize(p), part.size());
    EXPECT_EQ(ps.SortedTags(p), std::vector<TagId>(part.begin(), part.end()));
    EXPECT_EQ(ps.load(p), ref.loads[static_cast<size_t>(p)]);
    all.insert(part.begin(), part.end());
    replication += part.size();
  }
  EXPECT_EQ(ps.NumDistinctTags(), all.size());
  EXPECT_EQ(ps.TotalReplication(), replication);
  bool disjoint = true;
  for (TagId t : all) {
    const std::vector<int> expected = ref.WithTag(t);
    disjoint = disjoint && expected.size() == 1;
    const PartitionIds ids = ps.PartitionsWithTag(t);
    std::vector<int> iterated;
    for (int p : ids) iterated.push_back(p);
    EXPECT_EQ(iterated, expected);
    ASSERT_EQ(ids.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(ids[i], expected[i]);
    }
  }
  EXPECT_EQ(ps.IsDisjoint(), disjoint);
  for (const TagSet& probe : probes) {
    std::optional<int> covering;
    std::vector<RoutedSubset> expected_routes;
    const PartitionSet::OverlapArray overlaps = ps.OverlapCounts(probe);
    for (int p = 0; p < k; ++p) {
      const std::set<TagId>& part = ref.parts[static_cast<size_t>(p)];
      std::vector<TagId> held;
      for (TagId t : probe) {
        if (part.count(t) > 0) held.push_back(t);
        EXPECT_EQ(ps.PartitionContains(p, t), part.count(t) > 0);
      }
      EXPECT_EQ(overlaps[static_cast<size_t>(p)], held.size());
      if (!held.empty()) {
        expected_routes.push_back({p, TagSet(held)});
        if (held.size() == probe.size() && !covering.has_value()) {
          covering = p;
        }
      }
    }
    EXPECT_EQ(ps.CoveringPartition(probe), covering) << probe.ToString();
    std::vector<RoutedSubset> routed;
    EXPECT_EQ(ps.Route(probe, &routed),
              static_cast<int>(expected_routes.size()));
    ASSERT_EQ(routed.size(), expected_routes.size());
    for (size_t i = 0; i < routed.size(); ++i) {
      EXPECT_EQ(routed[i].partition, expected_routes[i].partition);
      EXPECT_EQ(routed[i].tags, expected_routes[i].tags);
    }
    std::vector<int> touched;
    EXPECT_EQ(ps.ForEachTouchedPartition(
                  probe, [&](int p) { touched.push_back(p); }),
              static_cast<int>(expected_routes.size()));
    ASSERT_EQ(touched.size(), expected_routes.size());
    for (size_t i = 0; i < touched.size(); ++i) {
      EXPECT_EQ(touched[i], expected_routes[i].partition);
    }
  }
}

// Random AddTag/AddTags/AddLoad sequences against the reference model, with
// every query compared after each burst; copies and checkpoint
// flatten/rebuild must reproduce the same answers. Tag ids are drawn from
// a small dense range (collisions and replication) and from the full
// 32-bit range (hash spread), and the table grows through several rehashes.
TEST(PartitionSetDifferential, MatchesReferenceModel) {
  for (int seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(static_cast<uint64_t>(seed));
    const int k = seed % 4 == 0 ? kMaxPartitions : 1 + seed * 3;
    std::uniform_int_distribution<int> partition(0, k - 1);
    std::uniform_int_distribution<TagId> dense(0, 300);
    std::uniform_int_distribution<TagId> wide(0, kInvalidTag - 1);
    std::uniform_int_distribution<int> len(1, 6);
    std::uniform_int_distribution<int> op(0, 9);
    std::vector<TagId> seen;
    auto random_tag = [&]() -> TagId {
      const int pick = op(rng);
      if (pick < 3 && !seen.empty()) {
        return seen[std::uniform_int_distribution<size_t>(
            0, seen.size() - 1)(rng)];
      }
      const TagId t = pick < 7 ? dense(rng) : wide(rng);
      seen.push_back(t);
      return t;
    };
    auto random_set = [&]() {
      std::vector<TagId> tags;
      for (int n = len(rng); n > 0; --n) tags.push_back(random_tag());
      return TagSet(tags);
    };

    PartitionSet ps(k);
    ReferencePartitions ref(k);
    for (int burst = 0; burst < 8; ++burst) {
      for (int step = 0; step < 150; ++step) {
        const int p = partition(rng);
        const int kind = op(rng);
        if (kind < 4) {
          const TagId t = random_tag();
          ps.AddTag(p, t);
          ref.parts[static_cast<size_t>(p)].insert(t);
        } else if (kind < 8) {
          const TagSet tags = random_set();
          ps.AddTags(p, tags);
          ref.parts[static_cast<size_t>(p)].insert(tags.begin(), tags.end());
        } else {
          const uint64_t load = rng() % 1000;
          ps.AddLoad(p, load);
          ref.loads[static_cast<size_t>(p)] += load;
        }
      }
      std::vector<TagSet> probes;
      for (int i = 0; i < 40; ++i) probes.push_back(random_set());
      probes.push_back(TagSet());
      ExpectSameQueries(ps, ref, probes);

      // A copy answers identically and is independent of the original.
      PartitionSet copy = ps;
      ExpectSameQueries(copy, ref, probes);
      copy.AddTag(0, 7777777);
      copy.AddLoad(0, 1);
      ExpectSameQueries(ps, ref, probes);

      ops::PartitionSetState flat;
      ops::FlattenPartitionSet(ps, &flat);
      ExpectSameQueries(ops::RebuildPartitionSet(flat), ref, probes);
    }
  }
}

TEST(EvaluatePartitionQuality, PaperSection3Example) {
  // §3's two partitions over the Figure 1 data:
  //   pr1 = {munich(0), beer(1), soccer(2), oktoberfest(4), beach(6),
  //          sunny(7), friday(8)}
  //   pr2 = {beer(1), pizza(3), bavaria(5), soccer(2)}
  std::vector<std::pair<TagSet, uint64_t>> weighted;
  weighted.emplace_back(TagSet({0, 1, 2}), 10);
  weighted.emplace_back(TagSet({1, 3}), 4);
  weighted.emplace_back(TagSet({0, 4}), 3);
  weighted.emplace_back(TagSet({5, 2}), 1);
  weighted.emplace_back(TagSet({6, 7}), 2);
  weighted.emplace_back(TagSet({8, 7}), 1);
  const auto snap =
      CooccurrenceSnapshot::FromWeightedTagsets(std::move(weighted));

  PartitionSet ps(2);
  ps.AddTags(0, TagSet({0, 1, 2, 4, 6, 7, 8}));
  ps.AddTags(1, TagSet({1, 2, 3, 5}));

  const PartitionQuality q = EvaluatePartitionQuality(snap, ps);
  // Every tagset is covered by some partition.
  EXPECT_DOUBLE_EQ(q.coverage, 1.0);
  // Notifications: pr1 gets {012}x10 {14}... compute: pr1 receives tagsets
  // containing any of its tags: all but {beer,pizza}? beer(1) is in pr1 too
  // => all 6 tagsets -> 21 docs. pr2: tagsets with 1,2,3,5: {012}=10,
  // {13}=4, {52}=1 -> 15 docs. Total notified docs = 21 (all).
  // avg communication = (21 + 15) / 21.
  EXPECT_NEAR(q.avg_communication, 36.0 / 21.0, 1e-12);
  // §3: "the node assigned pr1 will have a load of 58% and the node
  // assigned pr2 the remaining 42%".
  EXPECT_NEAR(q.max_load, 21.0 / 36.0, 1e-12);
  EXPECT_NEAR(q.max_load, 0.58, 0.01);
}

TEST(EvaluatePartitionQuality, UncoveredTagsetsLowerCoverage) {
  std::vector<std::pair<TagSet, uint64_t>> weighted;
  weighted.emplace_back(TagSet({1, 2}), 1);
  weighted.emplace_back(TagSet({3, 4}), 1);
  const auto snap =
      CooccurrenceSnapshot::FromWeightedTagsets(std::move(weighted));
  PartitionSet ps(2);
  ps.AddTags(0, TagSet({1, 2}));
  ps.AddTags(1, TagSet({3}));  // {3,4} not covered.
  const PartitionQuality q = EvaluatePartitionQuality(snap, ps);
  EXPECT_DOUBLE_EQ(q.coverage, 0.5);
}

}  // namespace
}  // namespace corrtrack
