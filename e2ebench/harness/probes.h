#ifndef E2EBENCH_HARNESS_PROBES_H_
#define E2EBENCH_HARNESS_PROBES_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/tagset.h"
#include "core/types.h"
#include "harness/input.h"
#include "ops/messages.h"
#include "ops/metrics_sink.h"
#include "ops/period_sink.h"
#include "serve/correlation_index.h"
#include "stream/topology.h"

// The harness observes the program only from outside: its own spout, the
// MetricsSink and PeriodSink hooks, and proxies around the bolts the
// factories build. Nothing here changes what the pipeline computes.

namespace e2ebench {

/// Per-period freshness bookkeeping: when the harness emitted the first
/// document stamped at or after a period's end, and when every Calculator
/// report for that period had been applied downstream. A period is
/// complete once all `calculators` instances have ticked past its end and
/// every report they emitted for it has been applied. Called from the
/// spout, every Calculator task and the Tracker task; one mutex, touched
/// once per period boundary per participant.
class FreshnessBook {
 public:
  explicit FreshnessBook(int calculators) : calculators_(calculators) {}

  void OnBoundaryEmitted(corrtrack::Timestamp period_end, int64_t now_ns);
  void OnReportEmitted(corrtrack::Timestamp period_end);
  void OnTicked(corrtrack::Timestamp period_end, int64_t now_ns);
  void OnReportApplied(corrtrack::Timestamp period_end, int64_t now_ns);

  /// Freshness (ms) of every period whose boundary document was emitted
  /// at or after `from_ns` and that completed by `until_ns`.
  std::vector<double> SamplesMs(int64_t from_ns, int64_t until_ns) const;

 private:
  struct Period {
    int64_t emitted_ns = 0;
    int ticks = 0;
    int reports = 0;
    int applied = 0;
    int64_t done_ns = 0;
  };
  void MaybeComplete(Period& period, int64_t now_ns) const;

  const int calculators_;
  mutable std::mutex mu_;
  std::map<corrtrack::Timestamp, Period> periods_;  // Guarded by mu_.
};

/// What the harness spout observed. Owned by the harness (the topology
/// owns the spout); written by whichever thread the runtime calls Next()
/// from and read only after Run() returned.
struct SpoutLog {
  uint64_t emitted = 0;  ///< Timed documents handed to the pipeline.
  int64_t start_ns = 0;  ///< First timed Next(): end of set-up.
  int64_t stop_ns = 0;   ///< The Next() that ended the stream.
  bool out_of_time = false;  ///< Ended by the time budget, not the input.
  corrtrack::Timestamp last_time = 0;  ///< Virtual time of the last timed doc.
  int64_t prev_ns = 0;
  int64_t last_gap_ns = 0;
  int64_t blocked_ns = 0;       ///< Sum of call gaps above kBlockedGapNs.
  int64_t max_lateness_ns = 0;  ///< Paced runs: worst delay past a due time.
  bool cut_pending = false;
  int64_t cut_gap_ns = 0;
  std::vector<int64_t> cut_stalls_ns;  ///< One per checkpoint cut.
};

/// Source spout over a StreamInput. Positions below `timed_from` are the
/// warm-up prefix (served untimed, for a runner that rewinds its source to
/// a checkpoint); from there on each Next() is timed and optionally paced
/// to `pace_docs_per_s`. The stream ends at position `end`, or once
/// `budget_ns` has passed since the first timed document.
class HarnessSpout : public corrtrack::stream::Spout<corrtrack::ops::Message> {
 public:
  struct Plan {
    uint64_t first = 0;       ///< Stream position of the first Next().
    uint64_t timed_from = 0;  ///< First timed stream position.
    uint64_t end = 0;         ///< Stream position the stream ends at.
    int64_t budget_ns = INT64_MAX;
    double pace_docs_per_s = 0;  ///< 0 = as fast as the runtime takes it.
    corrtrack::Timestamp report_period = 0;
  };

  /// Gaps between Next() calls longer than this count as the source being
  /// held back (backpressure or a stalled runtime).
  static constexpr int64_t kBlockedGapNs = 50'000;

  HarnessSpout(const StreamInput* input, const Plan& plan, SpoutLog* log,
               FreshnessBook* freshness)
      : input_(input), plan_(plan), log_(log), freshness_(freshness),
        next_(plan.first) {}

  bool Next(corrtrack::ops::Message* out, corrtrack::Timestamp* time) override;

 private:
  const StreamInput* input_;
  Plan plan_;
  SpoutLog* log_;
  FreshnessBook* freshness_;
  uint64_t next_;
  corrtrack::Timestamp next_boundary_ = 0;
  bool stopped_ = false;
};

/// MetricsSink of the timed region: routing, repartitions, checkpoints.
/// OnRouted comes from the single Disseminator task; installs and
/// repartition requests from two different tasks, hence the mutex there.
class HarnessMetrics : public corrtrack::ops::MetricsSink {
 public:
  explicit HarnessMetrics(SpoutLog* spout_log) : spout_log_(spout_log) {}

  void OnRouted(int notified, corrtrack::Timestamp time) override;
  void OnRepartitionRequested(uint8_t cause, corrtrack::Timestamp time) override;
  void OnPartitionsInstalled(corrtrack::Epoch epoch, double avg_com,
                             double max_load, corrtrack::Timestamp time) override;
  void OnCheckpoint(uint64_t seq, uint64_t docs_ingested, uint64_t bytes,
                    size_t chunks, bool ok, corrtrack::Timestamp time) override;

  struct Cut {
    uint64_t seq = 0;
    uint64_t docs_ingested = 0;
    uint64_t bytes = 0;
    bool ok = false;
  };

  uint64_t routed = 0;
  uint64_t notified_docs = 0;
  uint64_t notifications = 0;
  uint64_t uncovered = 0;
  std::vector<Cut> cuts;

  uint64_t installs() const;
  std::vector<double> InstallLatenciesMs() const;

 private:
  SpoutLog* spout_log_;
  mutable std::mutex mu_;
  int64_t requested_ns_ = 0;              // Guarded by mu_.
  uint64_t installs_ = 0;                 // Guarded by mu_.
  std::vector<double> install_latency_ms_;  // Guarded by mu_.
};

/// A bounded ring of tagsets the Tracker reported recently, which the
/// query client draws its TopCorrelated tags and Lookup sets from.
class RecentSets {
 public:
  explicit RecentSets(size_t capacity) : ring_(capacity) {}
  void Add(const corrtrack::TagSet& tags);
  /// Copies the entry `draw` selects; false while the ring is empty.
  bool Pick(uint64_t draw, corrtrack::TagSet* out) const;

 private:
  mutable std::mutex mu_;
  std::vector<corrtrack::TagSet> ring_;  // Guarded by mu_.
  size_t size_ = 0;                      // Guarded by mu_.
  size_t next_ = 0;                      // Guarded by mu_.
};

/// The Tracker's PeriodSink: forwards each report to the serving index
/// (when one is attached), feeds the freshness book and the recent-set
/// ring, and times itself when tracing. Runs on the Tracker task.
class ReportSink : public corrtrack::ops::PeriodSink {
 public:
  ReportSink(corrtrack::serve::CorrelationIndex* index, FreshnessBook* freshness,
             RecentSets* recent, bool timed)
      : index_(index), freshness_(freshness), recent_(recent), timed_(timed) {}

  void OnPeriodResults(
      corrtrack::Timestamp period_end,
      const std::vector<corrtrack::JaccardEstimate>& estimates) override;

  uint64_t calls = 0;
  int64_t busy_ns = 0;
  std::vector<double> call_ms;

 private:
  corrtrack::serve::CorrelationIndex* index_;
  FreshnessBook* freshness_;
  RecentSets* recent_;
  bool timed_;
};

/// Busy time of one component instance, accumulated by its proxy.
struct InstanceBusy {
  int64_t busy_ns = 0;
};

/// Busy time of every instance of one component.
struct ComponentBusy {
  std::string name;
  std::vector<InstanceBusy> instances;

  double TotalSeconds() const;
  double MaxSeconds() const;
};

/// Wraps every bolt factory of `topology` in a proxy that times Execute
/// and OnTick into the returned per-component records (index = component
/// id; spouts get an empty record). When `freshness` is set, the
/// "calculator" component's proxies also report their ticks and emitted
/// reports to it. The records must outlive the runtime.
std::vector<std::unique_ptr<ComponentBusy>> InstrumentTopology(
    corrtrack::stream::Topology<corrtrack::ops::Message>* topology,
    FreshnessBook* freshness);

/// The bolt the factory built, looking through a timing proxy if any.
corrtrack::stream::Bolt<corrtrack::ops::Message>* Unwrap(
    corrtrack::stream::Bolt<corrtrack::ops::Message>* bolt);

/// The q-quantile (nearest rank) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Peak resident set size of this process, MiB (VmHWM).
double PeakRssMiB();

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_PROBES_H_
