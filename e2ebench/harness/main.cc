// End-to-end benchmark harness: runs one workload of the correlation
// tracker from a seeded input, checks its outputs against an exact oracle,
// and prints one JSON line with the run's metrics as its last line of
// standard output.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (from timing proxies around the bolts, the sinks and the spout).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness/workloads.h"
#include "telemetry/clock.h"

namespace {

const int64_t kProcessStartNs = corrtrack::telemetry::MonotonicNanos();

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const std::string& name : e2ebench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunOptions options;
  options.process_start_ns = kProcessStartNs;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') return Usage(("bad value for " + flag).c_str());
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (!have_workload) return Usage("--workload is required");
  bool known = false;
  for (const std::string& name : e2ebench::WorkloadNames()) known |= name == options.workload;
  if (!known) return Usage(("unknown workload " + options.workload).c_str());
  if (options.seconds < 1) return Usage("--seconds must be at least 1");

  options.scratch_dir = std::filesystem::absolute(
      ".e2ebench_tmp/run-" + std::to_string(::getpid())).string();
  const e2ebench::Outcome outcome = e2ebench::RunWorkload(options);

  for (const std::string& why : outcome.violations) {
    std::fprintf(stderr, "e2ebench: CHECK FAILED: %s\n", why.c_str());
  }
  const auto& specs =
      options.trace ? e2ebench::kPerLayerMetrics : e2ebench::kEndToEndMetrics;
  std::string metrics;
  for (const e2ebench::MetricSpec& spec : specs) {
    const auto it = outcome.values.find(spec.name);
    const double value = it != outcome.values.end() ? it->second : 0.0;
    std::fprintf(stderr, "e2ebench: %-38s %16.6f %s\n", spec.name, value, spec.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(spec.name) + "\": {\"value\": " + JsonNumber(value) +
               ", \"unit\": \"" + spec.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              outcome.violations.empty() ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return 0;
}
