// Micro-benchmarks of the partitioning algorithms themselves: runtime of
// CreatePartitions as a function of window size, for all four algorithms,
// plus the lazy-heap vs naive-rescan ablation for the set-cover phase-2
// selection (DESIGN.md calls this ablation out; the lazy heap turns the
// quadratic greedy into O(n log n) without changing the output — see
// LazyHeapEquivalenceTest). BM_RepartitionRound times one whole
// repartition round as the pipeline runs it (ten Partitioner proposals,
// then the Merger), and BM_PartitionSetCopy the Disseminator's
// copy-on-write copy of an installed PartitionSet.

#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include "core/cooccurrence.h"
#include "core/partitioning.h"
#include "core/scc_algorithm.h"
#include "core/scl_algorithm.h"
#include "gen/tweet_generator.h"

namespace {

using namespace corrtrack;

/// Builds a realistic snapshot of `num_docs` synthetic documents.
CooccurrenceSnapshot MakeSnapshot(int num_docs) {
  gen::GeneratorConfig config;
  config.seed = 31;
  gen::TweetGenerator generator(config);
  std::vector<Document> docs;
  docs.reserve(static_cast<size_t>(num_docs));
  for (int i = 0; i < num_docs; ++i) docs.push_back(generator.Next());
  return CooccurrenceSnapshot::FromDocuments(docs.begin(), docs.end());
}

void BM_CreatePartitions(benchmark::State& state, AlgorithmKind kind) {
  const auto snapshot = MakeSnapshot(static_cast<int>(state.range(0)));
  const auto algorithm = MakeAlgorithm(kind);
  for (auto _ : state) {
    PartitionSet ps = algorithm->CreatePartitions(snapshot, 10, 7);
    benchmark::DoNotOptimize(ps.num_partitions());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(snapshot.tagsets().size()));
}

void BM_SnapshotBuild(benchmark::State& state) {
  gen::GeneratorConfig config;
  config.seed = 31;
  gen::TweetGenerator generator(config);
  std::vector<Document> docs;
  for (int i = 0; i < state.range(0); ++i) docs.push_back(generator.Next());
  for (auto _ : state) {
    auto snapshot =
        CooccurrenceSnapshot::FromDocuments(docs.begin(), docs.end());
    // Components are built on first use (DS only); include them so the
    // row times the whole build.
    benchmark::DoNotOptimize(snapshot.components().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(docs.size()));
}

void BM_SccLazyHeap(benchmark::State& state) {
  const auto snapshot = MakeSnapshot(static_cast<int>(state.range(0)));
  const SccAlgorithm algorithm(/*use_lazy_heap=*/state.range(1) != 0);
  for (auto _ : state) {
    PartitionSet ps = algorithm.CreatePartitions(snapshot, 10, 7);
    benchmark::DoNotOptimize(ps.num_partitions());
  }
}

void BM_SclLazyHeap(benchmark::State& state) {
  const auto snapshot = MakeSnapshot(static_cast<int>(state.range(0)));
  const SclAlgorithm algorithm(/*use_lazy_heap=*/state.range(1) != 0);
  for (auto _ : state) {
    PartitionSet ps = algorithm.CreatePartitions(snapshot, 10, 7);
    benchmark::DoNotOptimize(ps.num_partitions());
  }
}

/// One repartition round over a window of `range(0)` documents: each of
/// P = 10 Partitioners snapshots its share (documents dealt round-robin)
/// and proposes fragments; the Merger snapshots the fragments and re-runs
/// the algorithm into k = 10 partitions (§6.2).
void BM_RepartitionRound(benchmark::State& state, AlgorithmKind kind) {
  constexpr int kPartitioners = 10;
  constexpr int kPartitions = 10;
  gen::GeneratorConfig config;
  config.seed = 31;
  gen::TweetGenerator generator(config);
  std::vector<std::vector<Document>> shares(kPartitioners);
  for (int i = 0; i < state.range(0); ++i) {
    shares[static_cast<size_t>(i % kPartitioners)].push_back(
        generator.Next());
  }
  const auto algorithm = MakeAlgorithm(kind);
  for (auto _ : state) {
    std::vector<std::pair<TagSet, uint64_t>> weighted;
    for (int i = 0; i < kPartitioners; ++i) {
      const std::vector<Document>& share = shares[static_cast<size_t>(i)];
      const auto snapshot =
          CooccurrenceSnapshot::FromDocuments(share.begin(), share.end());
      for (PartitionFragment& fragment : algorithm->ProposeFragments(
               snapshot, kPartitions, static_cast<uint64_t>(i))) {
        weighted.emplace_back(std::move(fragment.tags),
                              fragment.load > 0 ? fragment.load : 1);
      }
    }
    const auto merged =
        CooccurrenceSnapshot::FromWeightedTagsets(std::move(weighted));
    PartitionSet ps = algorithm->CreatePartitions(merged, kPartitions, 7);
    benchmark::DoNotOptimize(ps.num_partitions());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_PartitionSetCopy(benchmark::State& state) {
  const auto snapshot = MakeSnapshot(static_cast<int>(state.range(0)));
  const PartitionSet installed =
      MakeAlgorithm(AlgorithmKind::kSCL)->CreatePartitions(snapshot, 10, 7);
  for (auto _ : state) {
    PartitionSet copy = installed;
    benchmark::DoNotOptimize(copy.NumDistinctTags());
  }
  state.counters["tags"] = static_cast<double>(installed.NumDistinctTags());
}

}  // namespace

BENCHMARK_CAPTURE(BM_CreatePartitions, DS, AlgorithmKind::kDS)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CreatePartitions, SCC, AlgorithmKind::kSCC)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CreatePartitions, SCL, AlgorithmKind::kSCL)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CreatePartitions, SCI, AlgorithmKind::kSCI)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_SnapshotBuild)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);

// Ablation: {window docs, lazy?}. The naive rescan is quadratic in the
// number of distinct tagsets; cap its size so the bench stays fast.
BENCHMARK(BM_SccLazyHeap)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({8000, 0})
    ->Args({8000, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SclLazyHeap)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({8000, 0})
    ->Args({8000, 1})
    ->Unit(benchmark::kMillisecond);

// 40k documents ≈ one 5-minute window of the default generator.
BENCHMARK_CAPTURE(BM_RepartitionRound, DS, AlgorithmKind::kDS)
    ->Arg(40000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RepartitionRound, SCL, AlgorithmKind::kSCL)
    ->Arg(40000)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_PartitionSetCopy)->Arg(32000)->Unit(benchmark::kMicrosecond);

CORRTRACK_BENCHMARK_MAIN();
