#include "src/live/worker_host.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "src/wire/wire_codec.h"

namespace optrec {

WorkerHost::WorkerHost(LiveClock& clock, Transport& transport,
                       DeliveryCounters& counters,
                       const std::function<LiveChannel*(ProcessId)>& channel_of,
                       const Spec& spec)
    : clock_(clock),
      counters_(counters),
      retry_interval_(spec.retry_interval),
      by_pid_(spec.n, nullptr) {
  const AppFactory factory = spec.workload.make_factory();
  Rng seeder(spec.seed ^ 0x9e3779b97f4a7c15ull);
  for (ProcessId pid = 0; pid < spec.n; ++pid) {
    const std::uint64_t rng_seed = seeder.next_u64();
    LiveChannel* channel = channel_of(pid);
    if (channel == nullptr) continue;
    auto w = std::make_unique<Worker>(rng_seed);
    w->pid = pid;
    w->channel = channel;
    w->timers = std::make_unique<WorkerTimers>(clock_);
    w->proc = make_protocol_process(
        spec.protocol, RuntimeEnv(clock_, *w->timers, transport), pid, spec.n,
        factory(pid, spec.n), spec.process, w->metrics, spec.oracle);
    w->proc->set_trace(spec.trace);
    w->gauges = std::make_unique<telemetry::ProcessGauges>(*spec.registry, pid);
    w->latency = &spec.registry->histogram(
        "optrec_delivery_latency_us", "Send-to-handler delivery latency",
        {{"pid", std::to_string(pid)}});
    by_pid_[pid] = w.get();
    workers_.push_back(std::move(w));
  }
}

WorkerHost::~WorkerHost() { stop_all(); }

void WorkerHost::schedule_crash(ProcessId pid, SimTime at) {
  Worker* w = pid < by_pid_.size() ? by_pid_[pid] : nullptr;
  if (w == nullptr) return;
  LiveFrame f;
  f.kind = LiveFrame::Kind::kCrash;
  f.not_before = at;
  f.sent_at = at;
  crashes_pending_.fetch_add(1, std::memory_order_acq_rel);
  w->channel->push(std::move(f));
}

void WorkerHost::spawn_all() {
  for (auto& w : workers_) spawn(*w);
}

void WorkerHost::spawn(Worker& w) {
  w.joined = false;
  w.state.store(State::kRunning, std::memory_order_release);
  w.thread = std::thread([this, &w] { worker_main(w); });
}

void WorkerHost::sync_mirrors(Worker& w) {
  const bool up = w.proc->is_up();
  w.up.store(up, std::memory_order_release);
  w.pending.store(w.proc->pending_count(), std::memory_order_release);
  w.signature.store(w.metrics.progress_signature(), std::memory_order_release);
  // Relaxed stores; the telemetry endpoint reads them from the IO thread.
  w.gauges->update(w.metrics);
  w.gauges->set_up(up);
  if (w.durable) {
    w.durable->set_memory_stable_bytes(w.proc->storage().stable_bytes());
  }
}

void WorkerHost::exit_as(Worker& w, State state) {
  w.state.store(state, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(exit_mu_);
    exited_.push_back(w.pid);
  }
  exit_cv_.notify_all();
}

void WorkerHost::worker_main(Worker& w) {
  if (!w.started) {
    // A warm worker's storage was rebuilt from disk pre-spawn; boot through
    // the restart path (announce failure at the restored point, replay the
    // stable log) instead of the fresh-process path.
    if (w.warm) {
      w.proc->start_recovered();
    } else {
      w.proc->start();
    }
    w.started = true;
    sync_mirrors(w);
  }
  LiveChannel& channel = *w.channel;
  for (;;) {
    w.timers->fire_due();
    sync_mirrors(w);
    const SimTime wait_until =
        std::min(w.timers->next_deadline(), clock_.now() + kMaxWait);
    std::optional<LiveFrame> frame =
        channel.pop_ready(clock_, wait_until, w.rng);
    if (!frame) continue;

    if (frame->kind == LiveFrame::Kind::kStop) {
      exit_as(w, State::kExitedStop);
      return;
    }
    if (frame->kind == LiveFrame::Kind::kCrash) {
      crashes_pending_.fetch_sub(1, std::memory_order_acq_rel);
      if (!w.proc->is_up()) continue;  // crash() would no-op while down
      w.proc->crash();  // wipes volatile state, schedules the restart timer
      sync_mirrors(w);
      exit_as(w, State::kExitedCrash);
      return;  // genuine thread death; the supervisor respawns us
    }

    // kWire. While down, park the frame and retry later — the reliable
    // transport of the paper's model (see Network::deliver_message).
    if (!w.proc->is_up()) {
      counters_.note_retry(frame->token);
      frame->not_before = clock_.now() + retry_interval_;
      channel.push(std::move(*frame));
      continue;
    }
    const Frame decoded = decode_frame(*frame->wire);
    w.latency->observe(static_cast<double>(clock_.now() - frame->sent_at));
    if (decoded.type == FrameType::kMessage) {
      w.proc->on_message(decoded.message);
      // Count the delivery only after the handler ran: its sends are
      // already in flight, so the quiescence detector never sees a
      // transient "nothing in flight" mid-handler.
      counters_.note_delivered_message(decoded.message.kind ==
                                       MessageKind::kApp);
    } else {
      w.proc->on_token(decoded.token);
      counters_.note_delivered_token();
    }
    sync_mirrors(w);
  }
}

void WorkerHost::drain_exited(bool respawn_crashed, SimTime wait) {
  std::vector<ProcessId> batch;
  {
    std::unique_lock<std::mutex> lock(exit_mu_);
    if (exited_.empty() && wait > 0) {
      exit_cv_.wait_for(lock, std::chrono::microseconds(wait),
                        [this] { return !exited_.empty(); });
    }
    batch.swap(exited_);
  }
  for (ProcessId pid : batch) {
    Worker& w = *by_pid_[pid];
    if (w.thread.joinable()) w.thread.join();
    w.joined = true;
    if (respawn_crashed &&
        w.state.load(std::memory_order_acquire) == State::kExitedCrash) {
      spawn(w);
    }
  }
}

bool WorkerHost::all_joined() const {
  for (const auto& w : workers_) {
    if (!w->joined) return false;
  }
  return true;
}

void WorkerHost::stop_all() {
  for (auto& w : workers_) {
    if (w->joined) continue;
    LiveFrame f;
    f.kind = LiveFrame::Kind::kStop;
    w->channel->push(std::move(f));
  }
  while (!all_joined()) drain_exited(/*respawn_crashed=*/false, millis(50));
}

bool WorkerHost::quiet() const {
  if (crashes_pending_.load(std::memory_order_acquire) != 0) return false;
  for (const auto& w : workers_) {
    if (w->state.load(std::memory_order_acquire) != State::kRunning) {
      return false;
    }
    if (!w->up.load(std::memory_order_acquire)) return false;
    if (w->pending.load(std::memory_order_acquire) != 0) return false;
  }
  return true;
}

std::uint64_t WorkerHost::progress_signature() const {
  std::uint64_t sig = 0;
  for (const auto& w : workers_) {
    sig = signature_mix(sig, w->signature.load(std::memory_order_acquire));
  }
  return signature_mix(
      sig, counters_.net.at<&Network::Stats::messages_dropped>().load(
               std::memory_order_relaxed));
}

void WorkerHost::merge_into(Metrics& metrics,
                            telemetry::FixedHistogram& latency) const {
  for (const auto& w : workers_) {
    metrics.merge_from(w->metrics);
    latency.merge_from(w->latency->snapshot());
  }
}

}  // namespace optrec
