#ifndef E2EBENCH_HARNESS_WORKLOADS_H_
#define E2EBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// A metric the benchmark reports: its name and unit. The catalogues below
/// are the full lists BENCHMARK.json declares; every run prints every
/// metric of its list.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Measured with tracing off (--trace 0).
extern const std::vector<MetricSpec> kEndToEndMetrics;
/// Measured in the separate traced run (--trace 1).
extern const std::vector<MetricSpec> kPerLayerMetrics;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for the run's checkpoint stores (created, then removed).
  std::string scratch_dir;
  /// steady_clock nanoseconds at process start: set-up is timed from here.
  int64_t process_start_ns = 0;
};

/// What one run measured and checked.
struct Outcome {
  /// Correctness violations; empty on a correct run.
  std::vector<std::string> violations;
  /// Operations attempted and failed: documents, queries, checkpoints.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Metric values by name (a metric the workload does not exercise is 0).
  std::map<std::string, double> values;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Generates the workload's input from the seed, warms the pipeline up
/// through its first partition install, stores and restores that state
/// through the checkpoint path, then measures `seconds` of steady-state
/// work from the restored state and checks the outputs.
Outcome RunWorkload(const RunOptions& options);

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_WORKLOADS_H_
