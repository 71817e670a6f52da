// Unit tests of the benchmark's own oracle and answer checks:
//
//   cmake -S e2ebench -B .bench_build/oracle-test -DE2EBENCH_BUILD_TESTS=ON
//   cmake --build .bench_build/oracle-test --target e2ebench_oracle_test
//   .bench_build/oracle-test/e2ebench_oracle_test

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/tagset.h"
#include "harness/oracle.h"
#include "serve/correlation_index.h"

namespace e2ebench {
namespace {

using corrtrack::TagSet;
using corrtrack::serve::ScoredSet;

constexpr uint32_t kA = 10;
constexpr uint32_t kB = 20;
constexpr uint32_t kC = 30;

// One period of five documents:
//   {a,b} {b,a,a} {a} {c,b} {a,b,c}
// so a is in 4, b in 4, c in 2; {a,b} in 3, {b,c} in 2, {a,c} and {a,b,c}
// in 1; every document holds a or b.
PeriodOracle HandBuiltPeriod() {
  PeriodOracle oracle;
  EXPECT_TRUE(oracle.AddDocument({kA, kB}));
  EXPECT_TRUE(oracle.AddDocument({kB, kA, kA}));  // Unsorted, duplicate tag.
  EXPECT_TRUE(oracle.AddDocument({kA}));
  EXPECT_TRUE(oracle.AddDocument({kC, kB}));
  EXPECT_TRUE(oracle.AddDocument({kA, kB, kC}));
  return oracle;
}

TEST(PeriodOracle, CountsAHandBuiltPeriod) {
  const PeriodOracle oracle = HandBuiltPeriod();
  EXPECT_EQ(oracle.documents(), 5u);
  EXPECT_EQ(oracle.Intersection({kA}), 4u);
  EXPECT_EQ(oracle.Intersection({kC}), 2u);
  EXPECT_EQ(oracle.Intersection({kA, kB}), 3u);
  EXPECT_EQ(oracle.Intersection({kB, kA}), 3u);  // Order does not matter.
  EXPECT_EQ(oracle.Intersection({kB, kC}), 2u);
  EXPECT_EQ(oracle.Intersection({kA, kC}), 1u);
  EXPECT_EQ(oracle.Intersection({kA, kB, kC}), 1u);
  EXPECT_EQ(oracle.Intersection({kA, 99}), 0u);

  EXPECT_EQ(oracle.Union({kA, kB}), 5u);
  EXPECT_EQ(oracle.Union({kB, kC}), 4u);
  EXPECT_EQ(oracle.Union({kA, kC}), 5u);
  EXPECT_EQ(oracle.Union({kA, kB, kC}), 5u);
  EXPECT_EQ(oracle.Union({kC, 99}), 2u);

  EXPECT_DOUBLE_EQ(oracle.Jaccard({kA, kB}), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(oracle.Jaccard({kB, kC}), 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(oracle.Jaccard({98, 99}), 0.0);
}

TEST(PeriodOracle, FrequentSetsAreThoseAboveTheSupport) {
  const PeriodOracle oracle = HandBuiltPeriod();
  std::vector<std::pair<Tags, uint64_t>> frequent;
  oracle.ForEachFrequent(1, [&](const Tags& tags, uint64_t count) {
    frequent.emplace_back(tags, count);
  });
  std::sort(frequent.begin(), frequent.end());
  const std::vector<std::pair<Tags, uint64_t>> expected = {
      {{kA, kB}, 3}, {{kB, kC}, 2}};
  EXPECT_EQ(frequent, expected);  // Singletons never count; {a,c} has 1.
}

TEST(PeriodOracle, RefusesDocumentsPastTheTagLimit) {
  PeriodOracle oracle;
  Tags many;
  for (uint32_t t = 0; t <= kOracleMaxTags; ++t) many.push_back(t);
  EXPECT_FALSE(oracle.AddDocument(many));
  EXPECT_EQ(oracle.documents(), 0u);
}

TEST(CheckEstimateBound, AcceptsCountsAtOrBelowTheOracle) {
  const PeriodOracle oracle = HandBuiltPeriod();
  EXPECT_EQ(CheckEstimateBound(oracle, {kA, kB}, 3, 5), "");
  // A Calculator that saw only part of the period undercounts: allowed.
  EXPECT_EQ(CheckEstimateBound(oracle, {kA, kB}, 2, 4), "");
}

TEST(CheckEstimateBound, RejectsAnIntersectionAboveTheOracle) {
  const PeriodOracle oracle = HandBuiltPeriod();
  EXPECT_NE(CheckEstimateBound(oracle, {kA, kB}, 4, 5), "");
  EXPECT_NE(CheckEstimateBound(oracle, {kA, 99}, 1, 4), "");
}

TEST(CheckEstimateBound, RejectsAUnionAboveTheOracle) {
  const PeriodOracle oracle = HandBuiltPeriod();
  EXPECT_NE(CheckEstimateBound(oracle, {kB, kC}, 2, 5), "");
}

ScoredSet Scored(std::vector<corrtrack::TagId> tags, double coefficient) {
  ScoredSet set;
  set.tags = TagSet(tags);
  set.coefficient = coefficient;
  set.period_end = 1000;
  return set;
}

TEST(CheckTopAnswer, AcceptsASortedAnswerHoldingTheTag) {
  EXPECT_EQ(CheckTopAnswer(1, 3, {Scored({1, 2}, 0.9), Scored({1, 3}, 0.5),
                                  Scored({1, 4}, 0.5)}),
            "");
  EXPECT_EQ(CheckTopAnswer(1, 3, {}), "");
}

TEST(CheckTopAnswer, RejectsAnAnswerOutOfOrder) {
  EXPECT_NE(CheckTopAnswer(1, 3, {Scored({1, 2}, 0.3), Scored({1, 3}, 0.5)}), "");
}

TEST(CheckTopAnswer, RejectsASetWithoutTheQueriedTag) {
  EXPECT_NE(CheckTopAnswer(1, 3, {Scored({1, 2}, 0.9), Scored({2, 3}, 0.5)}), "");
}

TEST(CheckTopAnswer, RejectsMoreThanKSets) {
  EXPECT_NE(CheckTopAnswer(1, 1, {Scored({1, 2}, 0.9), Scored({1, 3}, 0.5)}), "");
}

TEST(ErrorMean, AveragesAbsoluteDifferences) {
  ErrorMean error;
  EXPECT_EQ(error.Mean(), 0.0);
  error.Add(0.5, 0.25);
  error.Add(0.25, 0.5);
  error.Add(1.0, 1.0);
  EXPECT_DOUBLE_EQ(error.Mean(), 0.5 / 3.0);
}

}  // namespace
}  // namespace e2ebench
