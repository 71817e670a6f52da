#include "harness/workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/types.h"
#include "gen/tweet_generator.h"
#include "harness/input.h"
#include "harness/oracle.h"
#include "harness/probes.h"
#include "net/client.h"
#include "net/server.h"
#include "ops/checkpoint_runner.h"
#include "ops/parser.h"
#include "ops/pipeline_checkpoint.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "serve/correlation_index.h"
#include "storage/checkpoint.h"
#include "storage/storage.h"
#include "telemetry/clock.h"
#include "telemetry/pipeline_telemetry.h"

namespace e2ebench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"docs_per_s", "docs/s"},
    {"avg_communication", "notif/doc"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"jaccard_error", "abs"},
    {"freshness_ms_p50", "ms"},
    {"freshness_ms_p90", "ms"},
    {"query_us_p50", "us"},
    {"query_us_p99", "us"},
    {"checkpoint_stall_ms", "ms"},
    {"run.docs_per_s", "docs/s"},
    {"run.busy_share", "ratio"},
    {"setup.input_s", "s"},
    {"setup.warmup_s", "s"},
    {"stream.spout_blocked_s", "s"},
    {"stream.queue_full_blocks", "count"},
    {"stream.max_queue_depth", "count"},
    {"stream.steals", "count"},
    {"stream.envelopes_moved", "count"},
    {"stream.generator_lateness_ms_max", "ms"},
    {"parser.busy_s", "s"},
    {"disseminator.busy_s", "s"},
    {"disseminator.notifications", "count"},
    {"disseminator.uncovered_docs", "count"},
    {"calculator.busy_s", "s"},
    {"calculator.busy_max_s", "s"},
    {"partitioner.busy_s", "s"},
    {"partitioner.busy_max_s", "s"},
    {"merger.busy_s", "s"},
    {"partitioning.installs", "count"},
    {"partitioning.install_latency_ms_p50", "ms"},
    {"tracker.self_s", "s"},
    {"tracker.reports", "count"},
    {"tracker.coverage", "ratio"},
    {"serve.apply_ms_p50", "ms"},
    {"serve.apply_s", "s"},
    {"serve.applies", "count"},
    {"serve.index_sets", "count"},
    {"serve.reader_query_us_p50", "us"},
    {"net.ping_us_p50", "us"},
    {"net.requests", "count"},
    {"checkpoint.count", "count"},
    {"checkpoint.bytes_mb", "MiB"},
    {"checkpoint.write_ms_p50", "ms"},
    {"checkpoint.stall_ms_max", "ms"},
    {"storage.warm_write_ms", "ms"},
    {"storage.restore_ms", "ms"},
};

namespace {

using corrtrack::TagId;
using corrtrack::TagSet;
using corrtrack::Timestamp;
using corrtrack::kMillisPerSecond;
using corrtrack::ops::Message;
using corrtrack::telemetry::MonotonicNanos;
namespace ops = corrtrack::ops;
namespace serve = corrtrack::serve;
namespace storage = corrtrack::storage;
namespace stream = corrtrack::stream;
namespace net = corrtrack::net;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Sec(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------- workloads

enum class Shape {
  kPipeline,      // BuildCorrelationTopology + one Run().
  kServe,         // ... plus CorrelationIndex, net::Server and a client.
  kCheckpointed,  // RunCheckpointedPipeline with periodic cuts.
};

struct Workload {
  ops::PipelineConfig config;  // Paper §8.2 defaults unless noted.
  Shape shape = Shape::kPipeline;
  size_t round_docs = 0;       // Documents one measured round replays.
  double pace_docs_per_s = 0;  // Open-loop document rate; 0 = closed loop.
  double queries_per_s = 0;    // Open-loop query rate (kServe).
  uint64_t checkpoint_every_docs = 0;
};

int PoolWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

bool DefineWorkload(const std::string& name, int seconds, Workload* w) {
  w->config = ops::PipelineConfig();
  if (name == "ingest-ds") {
    w->config.runtime = stream::RuntimeKind::kPool;
    w->config.num_threads = PoolWorkers();
    w->round_docs = 1'000'000;
    return true;
  }
  if (name == "repartition-scl") {
    w->config.algorithm = corrtrack::AlgorithmKind::kSCL;
    w->config.runtime = stream::RuntimeKind::kSimulation;
    w->round_docs = 400'000;
    return true;
  }
  if (name == "serve-live") {
    w->config.runtime = stream::RuntimeKind::kPool;
    w->config.num_threads = 2;
    w->config.report_period = 10 * kMillisPerSecond;
    w->shape = Shape::kServe;
    w->pace_docs_per_s = 10'000;
    w->queries_per_s = 1'000;
    // One round covering the whole run: the index and the server live
    // across it, so its periods are never replayed into the same index.
    w->round_docs = static_cast<size_t>(w->pace_docs_per_s * (seconds + 2));
    return true;
  }
  if (name == "checkpoint-ds") {
    w->config.runtime = stream::RuntimeKind::kPool;
    w->config.num_threads = PoolWorkers();
    w->shape = Shape::kCheckpointed;
    w->round_docs = 1'000'000;
    w->checkpoint_every_docs = 250'000;
    return true;
  }
  return false;
}

// ------------------------------------------------------------------ warm-up

struct Warm {
  std::shared_ptr<const ops::PipelineCheckpointState> state;
  double write_ms = 0;
  double restore_ms = 0;
};

/// Runs the warm-up prefix on the deterministic simulator (which installs
/// the first partitions inside the stream, so no document is lost to the
/// concurrent runtimes' pre-install race), captures the drained state and
/// stores it through EncodeCheckpoint -> CheckpointWriter, then reads it
/// back through CheckpointReader -> DecodeCheckpoint.
bool WarmUp(const ops::PipelineConfig& config, const StreamInput& input,
            const std::string& uri, Warm* warm, Outcome* out) {
  ops::PipelineConfig sim = config;
  sim.runtime = stream::RuntimeKind::kSimulation;
  SpoutLog log;
  HarnessSpout::Plan plan;
  plan.timed_from = UINT64_MAX;
  plan.end = input.warm_docs();
  stream::Topology<Message> topology;
  const ops::TopologyHandles handles = ops::BuildCorrelationTopology(
      &topology, std::make_unique<HarnessSpout>(&input, plan, &log, nullptr),
      sim, ops::NullMetricsSink(), /*with_centralized_baseline=*/false);
  auto runtime = ops::MakeConfiguredRuntime(&topology, sim);
  runtime->Run(0);

  const Timestamp last_time = input.doc(input.warm_docs() - 1).time;
  const ops::PipelineCheckpointState captured = ops::CapturePipelineState(
      *runtime, handles, config, input.warm_docs(), last_time);
  if (!captured.disseminator.has_partitions) {
    out->violations.push_back("warm-up ended before the first partition install");
    return false;
  }
  const uint64_t fingerprint = ops::PipelineConfigFingerprint(config);
  const storage::CheckpointData data =
      ops::EncodeCheckpoint(captured, /*seq=*/1, fingerprint);

  storage::OpenedStorage opened;
  storage::Status status = storage::OpenStorage(uri, &opened);
  if (!status.ok()) {
    out->violations.push_back("warm store: " + status.ToString());
    return false;
  }
  const int64_t t0 = MonotonicNanos();
  storage::CheckpointWriter writer(opened.storage, opened.root);
  status = writer.Write(data);
  const int64_t t1 = MonotonicNanos();
  if (!status.ok()) {
    out->violations.push_back("warm checkpoint write: " + status.ToString());
    return false;
  }
  storage::CheckpointReader reader(opened.storage, opened.root);
  storage::CheckpointData loaded;
  status = reader.ReadLatest(&loaded);
  auto state = std::make_shared<ops::PipelineCheckpointState>();
  const bool decoded = status.ok() && ops::DecodeCheckpoint(loaded, state.get());
  const int64_t t2 = MonotonicNanos();
  if (!decoded || loaded.config_fingerprint != fingerprint ||
      state->docs_ingested != input.warm_docs() || state->last_time != last_time) {
    out->violations.push_back("warm checkpoint did not read back as written");
    return false;
  }
  warm->state = std::move(state);
  warm->write_ms = Ms(t1 - t0);
  warm->restore_ms = Ms(t2 - t1);
  return true;
}

// ------------------------------------------------------------- query client

/// One served answer kept for the oracle's bound check.
struct Served {
  TagSet tags;  // Program tag ids.
  uint64_t intersection = 0;
  uint64_t union_count = 0;
  Timestamp period_end = 0;
};

/// One client thread, two connections, a fixed-rate open-loop mix of
/// TopCorrelated and Lookup over tagsets the Tracker reported recently.
/// Each request is timed from its due time, so a stall also delays (and is
/// charged to) the requests queued behind it.
class QueryLoad {
 public:
  static constexpr uint32_t kTopK = 10;
  static constexpr size_t kKeptLookups = 50'000;

  QueryLoad(uint16_t port, const serve::CorrelationIndex* index,
            const RecentSets* recent, double rate, uint64_t seed, bool traced)
      : port_(port), index_(index), recent_(recent), rate_(rate), seed_(seed),
        traced_(traced) {}
  QueryLoad(const QueryLoad&) = delete;
  QueryLoad& operator=(const QueryLoad&) = delete;
  ~QueryLoad() { Stop(); }

  bool Start() {
    for (net::Client& client : clients_) {
      if (!client.Connect("127.0.0.1", port_)) return false;
    }
    thread_ = std::thread([this] { Loop(); });
    return true;
  }

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  /// After ingest stopped: socket answers must equal direct Reader answers.
  void CompareWithReader(size_t samples, std::vector<std::string>* violations);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latency_us;
  std::vector<double> reader_us;
  std::vector<double> ping_us;
  std::vector<Served> lookups;
  std::vector<std::string> violations;

 private:
  void Loop();
  net::ClientConfig Config() const {
    net::ClientConfig config;
    config.io_timeout_ms = 10'000;
    config.connect_timeout_ms = 5'000;
    return config;
  }

  const uint16_t port_;
  const serve::CorrelationIndex* index_;
  const RecentSets* recent_;
  const double rate_;
  const uint64_t seed_;
  const bool traced_;
  net::Client clients_[2] = {net::Client(Config()), net::Client(Config())};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

void QueryLoad::Loop() {
  std::mt19937_64 rng(seed_);
  serve::CorrelationIndex::Reader reader = index_->NewReader();
  TagSet pick;
  while (!stop_.load(std::memory_order_acquire) && !recent_->Pick(0, &pick)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int64_t t0 = MonotonicNanos();
  std::vector<serve::ScoredSet> answer;
  for (uint64_t i = 0; !stop_.load(std::memory_order_acquire); ++i) {
    const int64_t due = t0 + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate_);
    int64_t now = MonotonicNanos();
    while (now < due && !stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<int64_t>(due - now, 1'000'000)));
      now = MonotonicNanos();
    }
    if (stop_.load(std::memory_order_acquire)) break;
    recent_->Pick(rng(), &pick);
    net::Client& client = clients_[(i / 2) % 2];
    ++attempted;
    bool ok = false;
    if (i % 2 == 0) {
      const TagId tag = pick[static_cast<size_t>(rng() % pick.size())];
      ok = client.TopCorrelated(tag, kTopK, &answer);
      if (ok) {
        const std::string why = CheckTopAnswer(tag, kTopK, answer);
        if (!why.empty() && violations.size() < 10) {
          violations.push_back("TopCorrelated: " + why);
        }
      }
    } else {
      std::optional<serve::LookupResult> result;
      ok = client.Lookup(pick, &result);
      if (ok && result.has_value() && lookups.size() < kKeptLookups) {
        lookups.push_back({pick, result->intersection_count, result->union_count,
                           result->period_end});
      }
    }
    latency_us.push_back(static_cast<double>(MonotonicNanos() - due) / 1e3);
    if (!ok) {
      ++failed;
      client.Close();
      client.Connect("127.0.0.1", port_);
    }
    if (traced_ && i % 16 == 0) {
      const TagId tag = pick[0];
      const int64_t r0 = MonotonicNanos();
      reader.TopCorrelated(tag, kTopK, &answer);
      const int64_t r1 = MonotonicNanos();
      const bool pinged = client.Ping();
      const int64_t r2 = MonotonicNanos();
      reader_us.push_back(static_cast<double>(r1 - r0) / 1e3);
      if (pinged) ping_us.push_back(static_cast<double>(r2 - r1) / 1e3);
    }
  }
}

bool SameScored(const std::vector<serve::ScoredSet>& a,
                const std::vector<serve::ScoredSet>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].tags == b[i].tags) || a[i].coefficient != b[i].coefficient ||
        a[i].period_end != b[i].period_end) {
      return false;
    }
  }
  return true;
}

void QueryLoad::CompareWithReader(size_t samples,
                                  std::vector<std::string>* out) {
  std::mt19937_64 rng(seed_ ^ 0x5eed);
  serve::CorrelationIndex::Reader reader = index_->NewReader();
  net::Client& client = clients_[0];
  TagSet pick;
  std::vector<serve::ScoredSet> wire;
  std::vector<serve::ScoredSet> direct;
  for (size_t i = 0; i < samples && recent_->Pick(rng(), &pick); ++i) {
    const TagId tag = pick[static_cast<size_t>(rng() % pick.size())];
    std::optional<serve::LookupResult> wire_lookup;
    if (!client.TopCorrelated(tag, kTopK, &wire) ||
        !client.Lookup(pick, &wire_lookup)) {
      out->push_back("post-ingest socket query failed: " + client.last_error());
      return;
    }
    reader.TopCorrelated(tag, kTopK, &direct);
    if (!SameScored(wire, direct)) {
      out->push_back("socket TopCorrelated differs from the direct Reader");
      return;
    }
    const std::optional<serve::LookupResult> direct_lookup = reader.Lookup(pick);
    const bool same =
        wire_lookup.has_value() == direct_lookup.has_value() &&
        (!wire_lookup.has_value() ||
         (wire_lookup->coefficient == direct_lookup->coefficient &&
          wire_lookup->intersection_count == direct_lookup->intersection_count &&
          wire_lookup->union_count == direct_lookup->union_count &&
          wire_lookup->period_end == direct_lookup->period_end));
    if (!same) {
      out->push_back("socket Lookup differs from the direct Reader");
      return;
    }
  }
}

// ------------------------------------------------------------------- oracle

struct TagsHash {
  size_t operator()(const Tags& tags) const {
    uint64_t h = 1469598103934665603ull;
    for (uint32_t tag : tags) {
      h ^= tag;
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

/// Program tag id -> generator tag id, from the Parser's dictionary (the
/// generator renders tag g as "#t<g>").
std::vector<uint32_t> ParserToGenerator(const ops::ParserBolt& parser) {
  const corrtrack::TagDictionary& dictionary = parser.dictionary();
  std::vector<uint32_t> map(dictionary.size());
  for (size_t id = 0; id < dictionary.size(); ++id) {
    const std::string_view name = dictionary.Name(static_cast<TagId>(id));
    map[id] = static_cast<uint32_t>(std::stoul(std::string(name.substr(1))));
  }
  return map;
}

Tags ToGenerator(const TagSet& tags, const std::vector<uint32_t>& map) {
  Tags out;
  out.reserve(tags.size());
  for (TagId tag : tags) out.push_back(tag < map.size() ? map[tag] : UINT32_MAX);
  std::sort(out.begin(), out.end());
  return out;
}

struct OracleVerdict {
  ErrorMean error;
  uint64_t estimates_checked = 0;
  uint64_t full_periods = 0;
  uint64_t frequent = 0;
  uint64_t covered = 0;
};

/// Replays the fed stream period by period through PeriodOracle and checks
/// every tracked estimate and every served answer against its period's
/// exact counts. Full periods (every document after the warm-up cut and
/// before the end of the stream) must have reports, and feed the §8.2.3
/// error: mean |J_tracked - J_exact| over the tagsets seen more than sn
/// times in the period that the Tracker reported.
OracleVerdict RunOracle(const StreamInput& input, uint64_t positions,
                        const ops::PipelineConfig& config, Timestamp cut_time,
                        Timestamp last_time, const ops::TrackerBolt& tracker,
                        const std::vector<uint32_t>& parser_to_gen,
                        const std::map<Timestamp, std::vector<Served>>& served,
                        std::vector<std::string>* violations) {
  OracleVerdict verdict;
  const Timestamp y = config.report_period;
  const uint64_t sn = static_cast<uint64_t>(config.single_addition_threshold);
  const auto& periods = tracker.periods();
  size_t periods_seen = 0;
  size_t served_seen = 0;
  uint64_t k = 0;
  auto report = [&](const std::string& what) {
    if (violations->size() < 20) violations->push_back(what);
  };
  while (k < positions) {
    const Timestamp period_end = (input.doc(k).time / y + 1) * y;
    PeriodOracle oracle;
    for (; k < positions; ++k) {
      const corrtrack::Document& doc = input.doc(k);
      if (doc.time >= period_end) break;
      if (!oracle.AddDocument(Tags(doc.tags.begin(), doc.tags.end()))) {
        report("document with too many tags");
      }
    }
    const bool full = period_end - y > cut_time && period_end <= last_time;
    std::unordered_map<Tags, double, TagsHash> tracked;
    const auto it = periods.find(period_end);
    if (it != periods.end()) {
      ++periods_seen;
      for (const auto& [set, estimate] : it->second) {
        const Tags tags = ToGenerator(set, parser_to_gen);
        const std::string why = CheckEstimateBound(
            oracle, tags, estimate.intersection_count, estimate.union_count);
        if (!why.empty()) report("tracked estimate, period " +
                                 std::to_string(period_end) + ": " + why);
        ++verdict.estimates_checked;
        if (full) tracked.emplace(tags, estimate.coefficient);
      }
    } else if (full) {
      report("full period " + std::to_string(period_end) + " has no reports");
    }
    const auto served_it = served.find(period_end);
    if (served_it != served.end()) {
      ++served_seen;
      for (const Served& answer : served_it->second) {
        const std::string why =
            CheckEstimateBound(oracle, ToGenerator(answer.tags, parser_to_gen),
                               answer.intersection, answer.union_count);
        if (!why.empty()) report("served answer, period " +
                                 std::to_string(period_end) + ": " + why);
        ++verdict.estimates_checked;
      }
    }
    if (!full) continue;
    ++verdict.full_periods;
    oracle.ForEachFrequent(sn, [&](const Tags& tags, uint64_t) {
      ++verdict.frequent;
      const auto found = tracked.find(tags);
      if (found == tracked.end()) return;
      ++verdict.covered;
      verdict.error.Add(found->second, oracle.Jaccard(tags));
    });
  }
  if (periods_seen != periods.size()) {
    report("the Tracker holds periods no fed document belongs to");
  }
  if (served_seen != served.size()) {
    report("the index serves periods no fed document belongs to");
  }
  return verdict;
}


// ------------------------------------------------------------------ rounds

/// A checkpoint store (storage URI) that is emptied on entry and removed
/// on scope exit.
class ScratchStore {
 public:
  explicit ScratchStore(std::string uri) : uri_(std::move(uri)) {
    if (storage::OpenStorage(uri_, &opened_).ok()) {
      opened_.storage->DeleteDirRecursive(opened_.root);
    }
  }
  ScratchStore(const ScratchStore&) = delete;
  ScratchStore& operator=(const ScratchStore&) = delete;
  ~ScratchStore() {
    if (opened_.storage != nullptr) opened_.storage->DeleteDirRecursive(opened_.root);
  }
  const std::string& uri() const { return uri_; }

 private:
  std::string uri_;
  storage::OpenedStorage opened_;
};

/// Everything a run adds up over its rounds.
struct Totals {
  int64_t wall_ns = 0;
  std::vector<double> round_docs_per_s;
  int threads = 1;
  uint64_t notified_docs = 0;
  uint64_t notifications = 0;
  uint64_t uncovered = 0;
  uint64_t installs = 0;
  uint64_t reports = 0;
  int64_t blocked_ns = 0;
  int64_t lateness_ns = 0;
  int64_t sink_ns = 0;
  uint64_t queue_full_blocks = 0;
  uint64_t max_queue_depth = 0;
  uint64_t steals = 0;
  uint64_t envelopes = 0;
  uint64_t cuts = 0;
  double cut_bytes = 0;
  uint64_t frequent = 0;
  uint64_t covered = 0;
  ErrorMean error;
  std::map<std::string, double> busy_s;      // Component -> summed busy.
  std::map<std::string, double> busy_max_s;  // Component -> busiest instance.
  std::vector<double> install_ms, fresh_ms, stall_ms, apply_ms;
  std::vector<double> write_ms;  // Per round: median checkpoint write.
};

/// The state every round starts from, and where it is stored.
struct RunContext {
  const RunOptions& options;
  const Workload& w;
  const StreamInput& input;
  const Warm& warm;
  const std::string& warm_uri;
  int calculators = 0;
};

const ops::TrackerBolt& TrackerOf(stream::Runtime<Message>& runtime,
                                  const ops::TopologyHandles& handles) {
  return *static_cast<ops::TrackerBolt*>(
      Unwrap(runtime.bolt(handles.tracker, 0)));
}

const ops::ParserBolt& ParserOf(stream::Runtime<Message>& runtime,
                                const ops::TopologyHandles& handles) {
  return *static_cast<ops::ParserBolt*>(Unwrap(runtime.bolt(handles.parser, 0)));
}

/// Checks shared by every round shape, then adds the round to the totals:
/// every fed document reached the Disseminator, and the oracle accepts
/// every tracked and served estimate.
void FinishRound(const RunContext& ctx, const SpoutLog& log,
                 const HarnessMetrics& metrics, const ReportSink& sink,
                 const ops::TrackerBolt& tracker, const ops::ParserBolt& parser,
                 const std::map<Timestamp, std::vector<Served>>& served,
                 int64_t end_ns, Totals* totals, Outcome* out) {
  out->attempted += log.emitted;
  if (metrics.routed != log.emitted) {
    out->violations.push_back("the Disseminator routed " +
                              std::to_string(metrics.routed) + " of " +
                              std::to_string(log.emitted) + " documents");
    out->failed += log.emitted > metrics.routed ? log.emitted - metrics.routed : 0;
  }
  const OracleVerdict verdict = RunOracle(
      ctx.input, ctx.input.warm_docs() + log.emitted, ctx.w.config,
      ctx.warm.state->last_time, log.last_time, tracker,
      ParserToGenerator(parser), served, &out->violations);
  totals->wall_ns += end_ns - log.start_ns;
  totals->round_docs_per_s.push_back(static_cast<double>(log.emitted) /
                                     Sec(end_ns - log.start_ns));
  totals->notified_docs += metrics.notified_docs;
  totals->notifications += metrics.notifications;
  totals->uncovered += metrics.uncovered;
  totals->installs += metrics.installs();
  for (double ms : metrics.InstallLatenciesMs()) totals->install_ms.push_back(ms);
  totals->reports += sink.calls;
  totals->sink_ns += sink.busy_ns;
  for (double ms : sink.call_ms) totals->apply_ms.push_back(ms);
  totals->blocked_ns += log.blocked_ns;
  totals->lateness_ns = std::max(totals->lateness_ns, log.max_lateness_ns);
  totals->frequent += verdict.frequent;
  totals->covered += verdict.covered;
  totals->error.sum += verdict.error.sum;
  totals->error.count += verdict.error.count;
  std::fprintf(stderr,
               "e2ebench: oracle: %llu full periods, %llu of %llu frequent tagsets "
               "tracked, mean error %.6f\n",
               static_cast<unsigned long long>(verdict.full_periods),
               static_cast<unsigned long long>(verdict.covered),
               static_cast<unsigned long long>(verdict.frequent), verdict.error.Mean());
}

void AddBusy(const std::vector<std::unique_ptr<ComponentBusy>>& busy,
             Totals* totals) {
  for (const auto& record : busy) {
    if (record->instances.empty()) continue;
    totals->busy_s[record->name] += record->TotalSeconds();
    totals->busy_max_s[record->name] += record->MaxSeconds();
  }
}

/// One round on a topology the harness builds: restore the warm state,
/// run the round's documents (or until the time budget ends), check.
/// The serve shape also stands up the index, the server and the client.
SpoutLog RunBuiltRound(const RunContext& ctx, int64_t budget_ns, Totals* totals,
                       Outcome* out) {
  const Workload& w = ctx.w;
  const bool trace = ctx.options.trace;
  ops::PipelineConfig config = w.config;
  config.virtual_start_time = ctx.warm.state->last_time;
  FreshnessBook freshness(ctx.calculators);
  FreshnessBook* fresh = trace ? &freshness : nullptr;
  SpoutLog log;
  HarnessMetrics metrics(&log);
  RecentSets recent(4096);
  std::unique_ptr<serve::CorrelationIndex> index;
  if (w.shape == Shape::kServe) {
    serve::ServeConfig serve_config;
    serve_config.merge = config.tracker_merge;
    index = std::make_unique<serve::CorrelationIndex>(serve_config);
  }
  ReportSink sink(index.get(), fresh, index != nullptr ? &recent : nullptr, trace);
  HarnessSpout::Plan plan;
  plan.first = ctx.input.warm_docs();
  plan.timed_from = ctx.input.warm_docs();
  plan.end = ctx.input.size();
  plan.budget_ns = budget_ns;
  plan.pace_docs_per_s = w.pace_docs_per_s;
  plan.report_period = config.report_period;

  stream::Topology<Message> topology;
  const ops::TopologyHandles handles = ops::BuildCorrelationTopology(
      &topology, std::make_unique<HarnessSpout>(&ctx.input, plan, &log, fresh),
      config, &metrics, /*with_centralized_baseline=*/false, &sink, nullptr,
      ctx.warm.state);
  std::vector<std::unique_ptr<ComponentBusy>> busy;
  if (trace) busy = InstrumentTopology(&topology, fresh);
  auto runtime = ops::MakeConfiguredRuntime(&topology, config);
  if (runtime->ActiveParallelism(handles.calculator) != ctx.calculators) {
    runtime->ResizeComponent(handles.calculator, ctx.calculators);
  }

  std::unique_ptr<net::Server> server;
  std::unique_ptr<QueryLoad> queries;
  if (index != nullptr) {
    net::ServerConfig server_config;
    server_config.num_net_threads = 1;
    server_config.num_reader_threads = 1;
    server = std::make_unique<net::Server>(index.get(), server_config);
    std::string error;
    if (!server->Start(&error)) {
      out->violations.push_back("server start: " + error);
      return log;
    }
    queries = std::make_unique<QueryLoad>(server->port(), index.get(), &recent,
                                          w.queries_per_s, ctx.options.seed, trace);
    if (!queries->Start()) {
      out->violations.push_back("query client could not connect");
      return log;
    }
  }

  runtime->Run(config.report_period);
  const int64_t end_ns = MonotonicNanos();
  const stream::RuntimeStats stats = runtime->stats();
  if (runtime->TuplesDelivered(handles.parser) != log.emitted) {
    out->violations.push_back(
        "the Parser received " +
        std::to_string(runtime->TuplesDelivered(handles.parser)) + " of " +
        std::to_string(log.emitted) + " documents");
  }

  std::map<Timestamp, std::vector<Served>> served;
  std::map<std::string, double>& v = out->values;
  if (queries != nullptr) {
    queries->Stop();
    queries->CompareWithReader(200, &out->violations);
    for (const std::string& why : queries->violations) out->violations.push_back(why);
    out->attempted += queries->attempted;
    out->failed += queries->failed;
    v["query_us_p50"] = Quantile(queries->latency_us, 0.5);
    v["query_us_p99"] = Quantile(queries->latency_us, 0.99);
    v["serve.reader_query_us_p50"] = Quantile(queries->reader_us, 0.5);
    v["net.ping_us_p50"] = Quantile(queries->ping_us, 0.5);
    v["net.requests"] =
        static_cast<double>(queries->attempted + queries->ping_us.size());
    for (const Served& answer : queries->lookups) {
      served[answer.period_end].push_back(answer);
    }
    // Everything the index serves at the end is checked too.
    serve::CorrelationIndex::Reader reader = index->NewReader();
    std::vector<serve::ScoredSet> all;
    reader.Snapshot(0.0, &all);
    for (const serve::ScoredSet& entry : all) {
      const std::optional<serve::LookupResult> lookup = reader.Lookup(entry.tags);
      if (!lookup.has_value()) {
        out->violations.push_back("a Snapshot entry does not Lookup");
        break;
      }
      served[lookup->period_end].push_back({entry.tags, lookup->intersection_count,
                                            lookup->union_count, lookup->period_end});
    }
    v["serve.index_sets"] = static_cast<double>(reader.TotalSets());
    server->Stop();
  }

  FinishRound(ctx, log, metrics, sink, TrackerOf(*runtime, handles),
              ParserOf(*runtime, handles), served, end_ns, totals, out);
  totals->threads = stats.num_threads;
  totals->queue_full_blocks += stats.queue_full_blocks;
  totals->max_queue_depth = std::max(totals->max_queue_depth, stats.max_queue_depth);
  totals->steals += stats.steals;
  totals->envelopes += stats.envelopes_moved;
  AddBusy(busy, totals);
  if (trace) {
    for (double ms : freshness.SamplesMs(log.start_ns, log.stop_ns)) {
      totals->fresh_ms.push_back(ms);
    }
  }
  return log;
}

/// One round through RunCheckpointedPipeline: it restores the warm
/// checkpoint from storage, rewinds the harness spout over the warm-up
/// prefix, and cuts a checkpoint every `checkpoint_every_docs` documents.
/// The runner builds its topology itself, so per-bolt timing comes from
/// the program's own telemetry bundle on traced runs.
SpoutLog RunCheckpointedRound(const RunContext& ctx, int round, int64_t budget_ns,
                              Totals* totals, Outcome* out) {
  const Workload& w = ctx.w;
  ops::PipelineConfig config = w.config;
  std::unique_ptr<corrtrack::telemetry::PipelineTelemetry> telemetry;
  if (ctx.options.trace) {
    telemetry = std::make_unique<corrtrack::telemetry::PipelineTelemetry>();
    config.telemetry = telemetry.get();
  }
  SpoutLog log;
  HarnessMetrics metrics(&log);
  ReportSink sink(nullptr, nullptr, nullptr, ctx.options.trace);
  HarnessSpout::Plan plan;
  plan.first = 0;
  plan.timed_from = ctx.input.warm_docs();
  plan.end = ctx.input.size();
  plan.budget_ns = budget_ns;
  plan.report_period = config.report_period;

  // The cuts go to the in-memory backend: on a shared machine, fsync
  // latency of the local disk swings by seconds between runs and would
  // drown the cut's own cost (drain, capture, encode, checksum, rebuild).
  // The warm checkpoint the rounds restore from is on disk.
  ScratchStore cuts("mem://e2ebench/cuts-" + std::to_string(round));
  ops::CheckpointRunnerOptions runner;
  runner.checkpoint_uri = cuts.uri();
  runner.every_docs = w.checkpoint_every_docs;
  runner.restore_uri = ctx.warm_uri;
  runner.telemetry = telemetry.get();
  ops::CheckpointedRun run;
  std::string error;
  const bool ok = ops::RunCheckpointedPipeline(
      std::make_unique<HarnessSpout>(&ctx.input, plan, &log, nullptr), config,
      runner, &metrics, /*with_centralized_baseline=*/false, &sink, nullptr,
      config.report_period, &run, &error);
  const int64_t end_ns = MonotonicNanos();
  if (!ok) {
    out->violations.push_back("checkpointed run: " + error);
    return log;
  }

  // Every cut committed at the harness's own document count, and the
  // newest checkpoint reads back and decodes to that count.
  out->attempted += metrics.cuts.size();
  for (size_t i = 0; i < metrics.cuts.size(); ++i) {
    const HarnessMetrics::Cut& cut = metrics.cuts[i];
    if (!cut.ok) ++out->failed;
    const uint64_t expected =
        ctx.input.warm_docs() + (i + 1) * w.checkpoint_every_docs;
    if (cut.docs_ingested != expected) {
      out->violations.push_back("cut " + std::to_string(i + 1) + " at " +
                                std::to_string(cut.docs_ingested) +
                                " documents, the harness fed " +
                                std::to_string(expected));
    }
    totals->cut_bytes += static_cast<double>(cut.bytes);
  }
  totals->cuts += metrics.cuts.size();
  if (!metrics.cuts.empty()) {
    storage::OpenedStorage opened;
    storage::CheckpointData newest;
    ops::PipelineCheckpointState decoded;
    const bool read =
        storage::OpenStorage(runner.checkpoint_uri, &opened).ok() &&
        storage::CheckpointReader(opened.storage, opened.root)
            .ReadLatest(&newest)
            .ok() &&
        ops::DecodeCheckpoint(newest, &decoded);
    if (!read || decoded.docs_ingested != metrics.cuts.back().docs_ingested) {
      out->violations.push_back("the newest checkpoint does not read back");
    }
  }
  for (int64_t stall : log.cut_stalls_ns) totals->stall_ms.push_back(Ms(stall));

  FinishRound(ctx, log, metrics, sink, TrackerOf(*run.runtime, run.handles),
              ParserOf(*run.runtime, run.handles), {}, end_ns, totals, out);
  totals->threads = config.num_threads;
  if (telemetry != nullptr) {
    const corrtrack::telemetry::MetricsSnapshot snapshot =
        telemetry->registry.Snapshot();
    for (const auto& sample : snapshot.histograms) {
      const corrtrack::telemetry::HistogramSnapshot& hist = sample.hist;
      if (sample.name == "corrtrack_checkpoint_write_us") {
        totals->write_ms.push_back(static_cast<double>(hist.ValueAtQuantile(0.5)) /
                                   1e3);
      } else if (sample.name == "runtime_queue_depth{runtime=\"pool\"}") {
        totals->max_queue_depth = std::max<uint64_t>(totals->max_queue_depth, hist.max);
      } else if (sample.name == "runtime_block_wait_us{runtime=\"pool\"}") {
        totals->queue_full_blocks += hist.count;
      } else if (sample.name == "runtime_worker_steals{runtime=\"pool\"}") {
        totals->steals += hist.sum;
      } else if (sample.name == "runtime_worker_envelopes{runtime=\"pool\"}") {
        totals->envelopes += hist.sum;
      }
    }
  }
  return log;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "ingest-ds", "repartition-scl", "serve-live", "checkpoint-ds"};
  return kNames;
}

Outcome RunWorkload(const RunOptions& options) {
  Outcome out;
  Workload w;
  if (!DefineWorkload(options.workload, options.seconds, &w)) {
    out.violations.push_back("unknown workload " + options.workload);
    return out;
  }
  std::map<std::string, double>& v = out.values;
  for (const MetricSpec& spec : kEndToEndMetrics) v[spec.name] = 0.0;
  for (const MetricSpec& spec : kPerLayerMetrics) v[spec.name] = 0.0;

  // ------------------------------------------------------------- set-up
  const int64_t input_t0 = MonotonicNanos();
  corrtrack::gen::GeneratorConfig generator;
  generator.seed = options.seed;
  const StreamInput input(generator,
                          w.config.bootstrap_time + 30 * kMillisPerSecond,
                          w.round_docs);
  const int64_t warm_t0 = MonotonicNanos();
  const ScratchStore scratch("file://" + options.scratch_dir);
  const std::string warm_uri = scratch.uri() + "/warm";
  Warm warm;
  if (!WarmUp(w.config, input, warm_uri, &warm, &out)) return out;
  v["setup.input_s"] = Sec(warm_t0 - input_t0);
  v["setup.warmup_s"] = Sec(MonotonicNanos() - warm_t0);
  v["storage.warm_write_ms"] = warm.write_ms;
  v["storage.restore_ms"] = warm.restore_ms;

  RunContext ctx{options, w, input, warm, warm_uri};
  ctx.calculators = warm.state->live_calculators > 0
                        ? warm.state->live_calculators
                        : w.config.num_calculators;

  // ------------------------------------------------------- timed rounds
  // Rounds replay the same documents from the same restored state until
  // --seconds of measured time have passed; the last round is cut short
  // at that point. Checks run between rounds, outside the measured time.
  const int64_t seconds_ns = static_cast<int64_t>(options.seconds) * 1'000'000'000;
  Totals totals;
  for (int round = 0; out.violations.empty(); ++round) {
    const int64_t budget_ns = seconds_ns - totals.wall_ns;
    const SpoutLog log =
        w.shape == Shape::kCheckpointed
            ? RunCheckpointedRound(ctx, round, budget_ns, &totals, &out)
            : RunBuiltRound(ctx, budget_ns, &totals, &out);
    if (round == 0) v["setup_s"] = Sec(log.start_ns - options.process_start_ns);
    int64_t longest_stall_ns = 0;
    for (int64_t stall : log.cut_stalls_ns) longest_stall_ns = std::max(longest_stall_ns, stall);
    std::fprintf(stderr,
                 "e2ebench: round %d: %llu documents in %.3f s (source blocked %.3f s, "
                 "longest cut stall %.1f ms), checked in %.3f s\n",
                 round, static_cast<unsigned long long>(log.emitted),
                 Sec(log.stop_ns - log.start_ns), Sec(log.blocked_ns), Ms(longest_stall_ns),
                 Sec(MonotonicNanos() - log.stop_ns));
    if (log.out_of_time || totals.wall_ns >= seconds_ns) break;
  }

  // ------------------------------------------------------------ metrics
  // The median round, so that a neighbour's burst on a shared machine
  // costs one round, not the run.
  const double wall_s = Sec(totals.wall_ns);
  v["docs_per_s"] = Quantile(totals.round_docs_per_s, 0.5);
  v["avg_communication"] =
      totals.notified_docs > 0 ? static_cast<double>(totals.notifications) /
                                     static_cast<double>(totals.notified_docs)
                               : 0.0;
  v["jaccard_error"] = totals.error.Mean();
  if (totals.error.count == 0 && out.violations.empty()) {
    out.violations.push_back("no full reporting period was compared");
  }
  v["peak_rss_mb"] = PeakRssMiB();

  v["run.docs_per_s"] = v["docs_per_s"];
  v["tracker.coverage"] = totals.frequent > 0
                              ? static_cast<double>(totals.covered) /
                                    static_cast<double>(totals.frequent)
                              : 0.0;
  v["tracker.reports"] = static_cast<double>(totals.reports);
  v["disseminator.notifications"] = static_cast<double>(totals.notifications);
  v["disseminator.uncovered_docs"] = static_cast<double>(totals.uncovered);
  v["partitioning.installs"] = static_cast<double>(totals.installs);
  v["partitioning.install_latency_ms_p50"] = Quantile(totals.install_ms, 0.5);
  v["stream.spout_blocked_s"] = Sec(totals.blocked_ns);
  v["stream.generator_lateness_ms_max"] = Ms(totals.lateness_ns);
  v["stream.queue_full_blocks"] = static_cast<double>(totals.queue_full_blocks);
  v["stream.max_queue_depth"] = static_cast<double>(totals.max_queue_depth);
  v["stream.steals"] = static_cast<double>(totals.steals);
  v["stream.envelopes_moved"] = static_cast<double>(totals.envelopes);
  v["checkpoint_stall_ms"] = Quantile(totals.stall_ms, 0.5);
  v["checkpoint.stall_ms_max"] = Quantile(totals.stall_ms, 1.0);
  v["checkpoint.count"] = static_cast<double>(totals.cuts);
  v["checkpoint.bytes_mb"] = totals.cut_bytes / (1024.0 * 1024.0);
  v["checkpoint.write_ms_p50"] = Quantile(totals.write_ms, 0.5);
  if (options.trace) {
    v["freshness_ms_p50"] = Quantile(totals.fresh_ms, 0.5);
    v["freshness_ms_p90"] = Quantile(totals.fresh_ms, 0.9);
    if (w.shape == Shape::kServe) {
      v["serve.apply_ms_p50"] = Quantile(totals.apply_ms, 0.5);
      v["serve.apply_s"] = Sec(totals.sink_ns);
      v["serve.applies"] = static_cast<double>(totals.reports);
    }
    double busy_total = 0;
    for (const auto& [name, seconds] : totals.busy_s) busy_total += seconds;
    if (busy_total > 0) {
      const double capacity = static_cast<double>(totals.threads) * wall_s;
      v["run.busy_share"] = busy_total / capacity;
      if (busy_total > capacity) {
        out.violations.push_back("summed busy time exceeds threads x wall");
      }
    }
    auto busy_of = [&](const char* name, const char* total, const char* most) {
      const auto it = totals.busy_s.find(name);
      if (it == totals.busy_s.end()) return;
      if (total != nullptr) v[total] = it->second;
      if (most != nullptr) v[most] = totals.busy_max_s[name];
    };
    busy_of("parser", "parser.busy_s", nullptr);
    busy_of("disseminator", "disseminator.busy_s", nullptr);
    busy_of("calculator", "calculator.busy_s", "calculator.busy_max_s");
    busy_of("partitioner", "partitioner.busy_s", "partitioner.busy_max_s");
    busy_of("merger", "merger.busy_s", nullptr);
    if (totals.busy_s.count("tracker") > 0) {
      v["tracker.self_s"] = totals.busy_s["tracker"] - Sec(totals.sink_ns);
    }
  }
  return out;
}

}  // namespace e2ebench
