#include "harness/probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>
#include <utility>
#include <variant>

#include "stream/runtime.h"
#include "telemetry/clock.h"

namespace e2ebench {

using corrtrack::Timestamp;
using corrtrack::ops::Message;
using corrtrack::telemetry::MonotonicNanos;

// ------------------------------------------------------------ FreshnessBook

void FreshnessBook::MaybeComplete(Period& period, int64_t now_ns) const {
  if (period.done_ns == 0 && period.ticks >= calculators_ &&
      period.applied >= period.reports) {
    period.done_ns = now_ns;
  }
}

void FreshnessBook::OnBoundaryEmitted(Timestamp period_end, int64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Period& period = periods_[period_end];
  if (period.emitted_ns == 0) period.emitted_ns = now_ns;
}

void FreshnessBook::OnReportEmitted(Timestamp period_end) {
  std::lock_guard<std::mutex> lock(mu_);
  ++periods_[period_end].reports;
}

void FreshnessBook::OnTicked(Timestamp period_end, int64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Period& period = periods_[period_end];
  ++period.ticks;
  MaybeComplete(period, now_ns);
}

void FreshnessBook::OnReportApplied(Timestamp period_end, int64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Period& period = periods_[period_end];
  ++period.applied;
  MaybeComplete(period, now_ns);
}

std::vector<double> FreshnessBook::SamplesMs(int64_t from_ns,
                                             int64_t until_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> samples;
  for (const auto& [period_end, period] : periods_) {
    if (period.emitted_ns < from_ns || period.emitted_ns == 0) continue;
    if (period.done_ns == 0 || period.done_ns > until_ns) continue;
    samples.push_back(static_cast<double>(period.done_ns - period.emitted_ns) /
                      1e6);
  }
  return samples;
}

// ------------------------------------------------------------- HarnessSpout

bool HarnessSpout::Next(Message* out, Timestamp* time) {
  if (stopped_) return false;
  const uint64_t k = next_;
  if (k >= plan_.end) {
    stopped_ = true;
    if (log_->emitted > 0) log_->stop_ns = MonotonicNanos();
    return false;
  }
  const corrtrack::Document& doc = input_->doc(k);
  if (k >= plan_.timed_from) {
    int64_t now = MonotonicNanos();
    if (log_->emitted == 0) {
      log_->start_ns = now;
      log_->prev_ns = now;
      if (plan_.report_period > 0) {
        next_boundary_ = corrtrack::stream::FirstTickAfter(plan_.report_period,
                                                           doc.time);
      }
    } else if (now - log_->start_ns >= plan_.budget_ns) {
      stopped_ = true;
      log_->stop_ns = now;
      log_->out_of_time = true;
      return false;
    }
    if (plan_.pace_docs_per_s > 0) {
      const int64_t due =
          log_->start_ns + static_cast<int64_t>(static_cast<double>(log_->emitted) *
                                                1e9 / plan_.pace_docs_per_s);
      while (now < due) {
        if (due - now > 200'000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100'000));
        } else {
          std::this_thread::yield();
        }
        now = MonotonicNanos();
      }
      log_->max_lateness_ns = std::max(log_->max_lateness_ns, now - due);
    }
    const int64_t gap = now - log_->prev_ns;
    if (gap > kBlockedGapNs && plan_.pace_docs_per_s <= 0) {
      log_->blocked_ns += gap;
    }
    log_->last_gap_ns = gap;
    log_->prev_ns = now;
    if (log_->cut_pending) {
      log_->cut_stalls_ns.push_back(std::max(log_->cut_gap_ns, gap));
      log_->cut_pending = false;
    }
    if (freshness_ != nullptr) {
      while (doc.time >= next_boundary_) {
        freshness_->OnBoundaryEmitted(next_boundary_, now);
        next_boundary_ += plan_.report_period;
      }
    }
    ++log_->emitted;
    log_->last_time = doc.time;
  }
  corrtrack::ops::RawTweet tweet;
  tweet.id = doc.id;
  tweet.time = doc.time;
  tweet.text = input_->text(k);
  *time = doc.time;
  *out = Message(std::move(tweet));
  ++next_;
  return true;
}

// ----------------------------------------------------------- HarnessMetrics

void HarnessMetrics::OnRouted(int notified, Timestamp /*time*/) {
  ++routed;
  if (notified > 0) {
    ++notified_docs;
    notifications += static_cast<uint64_t>(notified);
  } else {
    ++uncovered;
  }
}

void HarnessMetrics::OnRepartitionRequested(uint8_t /*cause*/,
                                            Timestamp /*time*/) {
  std::lock_guard<std::mutex> lock(mu_);
  if (requested_ns_ == 0) requested_ns_ = MonotonicNanos();
}

void HarnessMetrics::OnPartitionsInstalled(corrtrack::Epoch /*epoch*/,
                                           double /*avg_com*/,
                                           double /*max_load*/,
                                           Timestamp /*time*/) {
  std::lock_guard<std::mutex> lock(mu_);
  ++installs_;
  if (requested_ns_ != 0) {
    install_latency_ms_.push_back(
        static_cast<double>(MonotonicNanos() - requested_ns_) / 1e6);
    requested_ns_ = 0;
  }
}

void HarnessMetrics::OnCheckpoint(uint64_t seq, uint64_t docs_ingested,
                                  uint64_t bytes, size_t /*chunks*/, bool ok,
                                  Timestamp /*time*/) {
  // Called by the checkpoint runner between segments, while no runtime
  // thread is live: the spout log is safe to touch.
  cuts.push_back({seq, docs_ingested, bytes, ok});
  spout_log_->cut_pending = true;
  spout_log_->cut_gap_ns = spout_log_->last_gap_ns;
}

uint64_t HarnessMetrics::installs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return installs_;
}

std::vector<double> HarnessMetrics::InstallLatenciesMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return install_latency_ms_;
}

// -------------------------------------------------------------- RecentSets

void RecentSets::Add(const corrtrack::TagSet& tags) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_[next_] = tags;
  next_ = (next_ + 1) % ring_.size();
  size_ = std::min(size_ + 1, ring_.size());
}

bool RecentSets::Pick(uint64_t draw, corrtrack::TagSet* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (size_ == 0) return false;
  *out = ring_[draw % size_];
  return true;
}

// -------------------------------------------------------------- ReportSink

void ReportSink::OnPeriodResults(
    Timestamp period_end,
    const std::vector<corrtrack::JaccardEstimate>& estimates) {
  const int64_t t0 = timed_ ? MonotonicNanos() : 0;
  if (index_ != nullptr) index_->ApplyPeriod(period_end, estimates);
  if (recent_ != nullptr) {
    for (size_t i = 0; i < estimates.size(); i += 4) {
      recent_->Add(estimates[i].tags);
    }
  }
  ++calls;
  if (freshness_ != nullptr) {
    freshness_->OnReportApplied(period_end, MonotonicNanos());
  }
  if (timed_) {
    const int64_t spent = MonotonicNanos() - t0;
    busy_ns += spent;
    call_ms.push_back(static_cast<double>(spent) / 1e6);
  }
}

// ------------------------------------------------------------ bolt proxies

namespace {

using Bolt = corrtrack::stream::Bolt<Message>;
using Emitter = corrtrack::stream::Emitter<Message>;

/// Forwards a Calculator tick's emissions, counting the reports it emits
/// for the freshness book before they can reach the Tracker.
class CountingEmitter : public Emitter {
 public:
  CountingEmitter(Emitter& inner, FreshnessBook* freshness)
      : inner_(inner), freshness_(freshness) {}

  void Emit(Message msg) override {
    if (const auto* report = std::get_if<corrtrack::ops::JaccardReport>(&msg)) {
      freshness_->OnReportEmitted(report->period_end);
    }
    inner_.Emit(std::move(msg));
  }
  void EmitDirect(int instance, Message msg) override {
    inner_.EmitDirect(instance, std::move(msg));
  }
  Timestamp now() const override { return inner_.now(); }

 private:
  Emitter& inner_;
  FreshnessBook* freshness_;
};

class TimedBolt : public Bolt {
 public:
  TimedBolt(std::unique_ptr<Bolt> inner, InstanceBusy* busy,
            FreshnessBook* freshness)
      : inner_(std::move(inner)), busy_(busy), freshness_(freshness) {}

  void Prepare(corrtrack::stream::TaskAddress self, int parallelism) override {
    inner_->Prepare(self, parallelism);
  }
  void AttachControl(corrtrack::stream::TopologyControl* control) override {
    inner_->AttachControl(control);
  }

  void Execute(const corrtrack::stream::Envelope<Message>& in,
               Emitter& out) override {
    const int64_t t0 = MonotonicNanos();
    inner_->Execute(in, out);
    busy_->busy_ns += MonotonicNanos() - t0;
  }

  void OnTick(Timestamp tick_time, Emitter& out) override {
    const int64_t t0 = MonotonicNanos();
    if (freshness_ != nullptr) {
      CountingEmitter counting(out, freshness_);
      inner_->OnTick(tick_time, counting);
      const int64_t t1 = MonotonicNanos();
      freshness_->OnTicked(tick_time, t1);
      busy_->busy_ns += t1 - t0;
      return;
    }
    inner_->OnTick(tick_time, out);
    busy_->busy_ns += MonotonicNanos() - t0;
  }

  Bolt* inner() const { return inner_.get(); }

 private:
  std::unique_ptr<Bolt> inner_;
  InstanceBusy* busy_;
  FreshnessBook* freshness_;
};

}  // namespace

double ComponentBusy::TotalSeconds() const {
  int64_t total = 0;
  for (const InstanceBusy& instance : instances) total += instance.busy_ns;
  return static_cast<double>(total) / 1e9;
}

double ComponentBusy::MaxSeconds() const {
  int64_t most = 0;
  for (const InstanceBusy& instance : instances) {
    most = std::max(most, instance.busy_ns);
  }
  return static_cast<double>(most) / 1e9;
}

std::vector<std::unique_ptr<ComponentBusy>> InstrumentTopology(
    corrtrack::stream::Topology<Message>* topology, FreshnessBook* freshness) {
  std::vector<std::unique_ptr<ComponentBusy>> records;
  for (auto& component : topology->mutable_components()) {
    auto record = std::make_unique<ComponentBusy>();
    record->name = component.name;
    if (!component.is_spout) {
      record->instances.resize(static_cast<size_t>(component.max_instances()));
      FreshnessBook* ticks = component.name == "calculator" ? freshness : nullptr;
      ComponentBusy* target = record.get();
      component.bolt_factory = [inner = std::move(component.bolt_factory),
                                target, ticks](int instance) {
        return std::make_unique<TimedBolt>(
            inner(instance), &target->instances[static_cast<size_t>(instance)],
            ticks);
      };
    }
    records.push_back(std::move(record));
  }
  return records;
}

Bolt* Unwrap(Bolt* bolt) {
  if (auto* timed = dynamic_cast<TimedBolt*>(bolt)) return timed->inner();
  return bolt;
}

// ----------------------------------------------------------------- helpers

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace e2ebench
