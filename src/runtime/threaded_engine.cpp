#include "runtime/threaded_engine.hpp"

namespace haechi::runtime {

namespace {
using obs::ActorKind;
using obs::EventType;
}  // namespace

ThreadedEngine::ThreadedEngine(Clock& clock, obs::Recorder* recorder,
                               ClientId id, const core::QosConfig& config,
                               ThreadedFabric& fabric, std::size_t port,
                               std::size_t slot)
    : clock_(clock),
      recorder_(recorder),
      fabric_(fabric),
      port_(port),
      slot_(slot),
      shards_(fabric.shards()),
      home_shard_(slot % fabric.shards()),
      core_(*this, id, config) {
  token_timer_ = std::make_unique<PeriodicTimer>(
      clock_, config.token_tick, [this] { TokenTick(); });
  report_timer_ = std::make_unique<PeriodicTimer>(
      clock_, config.report_interval, [this] { ReportTick(); });
}

ThreadedEngine::~ThreadedEngine() { Stop(); }

void ThreadedEngine::Emit(EventType type, std::uint32_t period, std::int64_t a,
                          std::int64_t b, std::int64_t c) {
  if (recorder_ != nullptr) {
    recorder_->EmitAt(clock_.Now(), ActorKind::kEngine, Raw(core_.id()), type,
                      period, a, b, c);
  }
}

void ThreadedEngine::DeliverPeriodStart(const core::PeriodStartMsg& msg) {
  std::lock_guard lk(mu_);
  if (core_.Stopped()) return;
  // Workers pull tokens, so there is no engine-side request queue to shed.
  core_.PeriodStart(msg, /*queued=*/0);
  report_timer_->Stop();
  token_timer_->Start();
}

void ThreadedEngine::DeliverReportRequest() {
  std::lock_guard lk(mu_);
  if (!core_.ReportRequest()) return;
  WriteReportLocked();  // first report goes out immediately
  report_timer_->Start();
}

void ThreadedEngine::DeliverOverReserveHint() {
  std::lock_guard lk(mu_);
  core_.OverReserveHint();
}

void ThreadedEngine::DeliverRecoverySync() {
  std::lock_guard lk(mu_);
  if (core_.Started()) WriteReportLocked();
}

void ThreadedEngine::Stop() {
  std::lock_guard lk(mu_);
  if (!core_.Stop()) return;
  token_timer_->Stop();
  report_timer_->Stop();
}

void ThreadedEngine::TokenTick() {
  std::lock_guard lk(mu_);
  core_.CheckDegraded();
  core_.Decay();
}

void ThreadedEngine::ReportTick() {
  std::lock_guard lk(mu_);
  if (core_.Reporting()) WriteReportLocked();
}

void ThreadedEngine::WriteReportLocked() {
  const std::uint64_t packed = core_.NextReport();
  core_.ReportPosted(packed);
  // The seqlock write is a handful of stores; keeping it under the engine
  // mutex keeps this thread's slot writes in report order.
  fabric_.PostReportWrite(port_, slot_, packed);
}

void ThreadedEngine::EmitSpansLocked(const core::EngineCore::Take& take) {
  if (recorder_ == nullptr || !recorder_->detail()) return;
  // Span triplet, threads flavour: grant and issue are the same instant
  // (workers pull tokens; there is no engine-side request queue), so
  // kIoQueued and kIoIssue share a timestamp. Sim and threads traces then
  // agree on stage *structure* while the client-side stages are ~0 here
  // and the real durations live in nic_service.
  const SimTime now = clock_.Now();
  const std::uint32_t period = core_.CurrentPeriod();
  const auto actor = Raw(core_.id());
  for (std::int64_t k = 0; k < take.granted; ++k) {
    const std::uint64_t io_id = next_io_id_++;
    const std::int64_t source = k < take.from_reservation ? 0 : 1;
    recorder_->EmitAt(now, ActorKind::kEngine, actor, EventType::kIoQueued,
                      period, static_cast<std::int64_t>(io_id), 0);
    recorder_->EmitAt(now, ActorKind::kEngine, actor, EventType::kIoIssue,
                      period, static_cast<std::int64_t>(io_id), source, 0);
    outstanding_io_ids_.push_back(io_id);
    ++runtime_stats_.span_ios;
  }
}

void ThreadedEngine::FetchPoolRoundLocked(std::unique_lock<std::mutex>& lk) {
  // One batched remote FAA per shard, home shard first — the chain draws
  // token_batch * fetch_batch tokens per atomic, the doorbell-batching
  // cost model on a real NIC. The lock drops around each FAA so the
  // monitor's control deliveries never wait behind the fetch.
  for (std::size_t probe = 0; probe < shards_; ++probe) {
    if (!core_.Started()) return;
    const std::size_t shard = (home_shard_ + probe) % shards_;
    const std::uint32_t at_period = core_.FetchPosted(shard);
    lk.unlock();
    const std::int64_t before =
        fabric_.PostFetchAdd(port_, shard, -core_.FetchDelta());
    lk.lock();
    const std::int64_t acquired =
        core_.FetchDone(at_period, shard, before, /*has_demand=*/true);
    if (acquired == core::EngineCore::kDiscarded || !core_.Started()) return;
    if (acquired > 0) {
      ++(probe == 0 ? runtime_stats_.faa_home_hits
                    : runtime_stats_.faa_steals);
      return;
    }
    ++runtime_stats_.faa_dry_probes;
  }
  // Every shard came up empty: step T4's retry cadence.
  core_.ArmPoolRetry();
}

ThreadedEngine::Batch ThreadedEngine::TryAcquireBatch(
    std::uint32_t p, std::int64_t max_tokens) {
  std::unique_lock lk(mu_);
  for (;;) {
    if (core_.Stopped()) return {Grant::kStopped, 0};
    if (!core_.Started() || core_.CurrentPeriod() != p) {
      return {Grant::kPeriodOver, 0};
    }
    const std::int64_t want = core_.Room(max_tokens);
    if (want <= 0) return {Grant::kNotReady, 0};
    const core::EngineCore::Take take = core_.TakeTokens(want);
    if (take.granted > 0) {
      EmitSpansLocked(take);
      return {Grant::kToken, take.granted};
    }
    if (!core_.MayFetch()) return {Grant::kNotReady, 0};
    FetchPoolRoundLocked(lk);
    // Loop: re-evaluate with whatever the round brought home (it may also
    // have observed a stop or a period roll).
  }
}

void ThreadedEngine::OnIoCompleted(std::int64_t n) {
  std::lock_guard lk(mu_);
  core_.Complete(n);
  if (outstanding_io_ids_.empty() || recorder_ == nullptr ||
      !recorder_->detail()) {
    return;
  }
  // Close the n oldest spans (grants complete FIFO per engine).
  const SimTime now = clock_.Now();
  std::int64_t out = core_.BackendOutstanding() + n;
  for (std::int64_t k = 0; k < n && !outstanding_io_ids_.empty(); ++k) {
    const std::uint64_t io_id = outstanding_io_ids_.front();
    outstanding_io_ids_.pop_front();
    recorder_->EmitAt(now, ActorKind::kEngine, Raw(core_.id()),
                      EventType::kIoComplete, core_.CurrentPeriod(),
                      static_cast<std::int64_t>(io_id), --out);
  }
}

bool ThreadedEngine::Stopped() const {
  std::lock_guard lk(mu_);
  return core_.Stopped();
}

ThreadedEngine::Stats ThreadedEngine::StatsSnapshot() const {
  std::lock_guard lk(mu_);
  return core_.stats();
}

ThreadedEngine::RuntimeStats ThreadedEngine::RuntimeStatsSnapshot() const {
  std::lock_guard lk(mu_);
  return runtime_stats_;
}

std::uint32_t ThreadedEngine::CurrentPeriod() const {
  std::lock_guard lk(mu_);
  return core_.CurrentPeriod();
}

}  // namespace haechi::runtime
