#include "src/runtime/process_base.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/util/log.h"
#include "src/util/serialization.h"
#include "src/wire/wire_codec.h"

namespace optrec {

class ProcessBase::ContextShim : public AppContext {
 public:
  explicit ContextShim(ProcessBase& host) : host_(host) {}
  ProcessId self() const override { return host_.pid_; }
  std::size_t process_count() const override { return host_.n_; }
  void send(ProcessId dst, const Bytes& payload) override {
    host_.app_send(dst, payload);
  }
  void output(const std::string& data) override { host_.request_output(data); }

 private:
  ProcessBase& host_;
};

ProcessBase::ProcessBase(RuntimeEnv env, ProcessId pid, std::size_t n,
                         std::unique_ptr<App> app, ProcessConfig config,
                         Metrics& metrics, CausalityOracle* oracle)
    : env_(env),
      pid_(pid),
      n_(n),
      app_(std::move(app)),
      config_(config),
      metrics_(metrics),
      oracle_(oracle),
      ctx_(std::make_unique<ContextShim>(*this)) {
  if (!app_) throw std::invalid_argument("ProcessBase: null app");
  env_.transport().attach(pid_, this);
}

ProcessBase::~ProcessBase() = default;

void ProcessBase::start() {
  if (started_) throw std::logic_error("ProcessBase::start called twice");
  started_ = true;
  up_ = true;
  if (oracle_) {
    cur_state_ = oracle_->initial_state(pid_);
    states_at_count_[0].push_back(cur_state_);
  }
  app_->on_start(*ctx_);
  // Initial checkpoint: on_start is never re-run, so every restore path has
  // a stable base even before the first timer fires.
  take_checkpoint();
  start_timers();
  on_started();
}

void ProcessBase::start_recovered() {
  if (started_) {
    throw std::logic_error("ProcessBase::start_recovered called twice");
  }
  if (storage_.checkpoints().empty()) {
    throw std::logic_error("start_recovered: no restored checkpoint");
  }
  if (oracle_ != nullptr) {
    throw std::logic_error(
        "start_recovered: oracle state identities do not span process "
        "incarnations");
  }
  started_ = true;
  up_ = false;
  crash_time_ = env_.now();
  restart_now();
}

void ProcessBase::start_timers() {
  if (config_.checkpoint_interval > 0) {
    // Stagger first fires across processes so checkpoints stay uncoordinated.
    const SimTime stagger =
        config_.checkpoint_interval +
        (config_.checkpoint_interval * pid_) / (n_ ? n_ : 1);
    checkpoint_timer_ =
        env_.schedule_after(stagger, [this] { checkpoint_timer_fired(); });
  }
  if (config_.flush_interval > 0) {
    const SimTime stagger =
        config_.flush_interval + (config_.flush_interval * pid_) / (n_ ? n_ : 1);
    flush_timer_ =
        env_.schedule_after(stagger, [this] { flush_timer_fired(); });
  }
}

void ProcessBase::checkpoint_timer_fired() {
  if (!up_) return;
  take_checkpoint();
  checkpoint_timer_ = env_.schedule_after(config_.checkpoint_interval,
                                          [this] { checkpoint_timer_fired(); });
}

void ProcessBase::flush_timer_fired() {
  if (!up_) return;
  if (storage_.log().volatile_count() > 0) {
    const std::uint64_t flushed = storage_.log().volatile_count();
    storage_.log().flush();
    ++metrics_.log_flushes;
    trace_simple(TraceEventType::kLogFlush, flushed);
  }
  on_flushed();
  flush_timer_ = env_.schedule_after(config_.flush_interval,
                                     [this] { flush_timer_fired(); });
}

void ProcessBase::crash() {
  if (!up_ || !started_) return;
  up_ = false;
  crash_time_ = env_.now();
  ++metrics_.crashes;
  OPTREC_LOG(kInfo) << "P" << pid_ << " crashed at t=" << env_.now()
                    << " (version " << version_ << ")";

  // States whose receipts were not yet on stable storage are lost forever.
  const std::uint64_t recoverable = recoverable_count();
  if (oracle_) {
    oracle_->mark_lost(
        take_states_for_deliveries(recoverable, delivered_total_));
  }
  trace_simple(TraceEventType::kCrash, recoverable,
               delivered_total_ - recoverable);
  metrics_.messages_lost_in_crash += storage_.on_crash();
  on_crash_wipe();
  discard_pending_outputs_if([](const PendingOutput&) { return true; });
  committed_output_ids_.clear();
  outputs_in_state_ = 0;
  delivered_keys_.clear();

  env_.cancel(checkpoint_timer_);
  env_.cancel(flush_timer_);
  checkpoint_timer_ = flush_timer_ = 0;

  env_.schedule_after(config_.restart_delay, [this] { restart_now(); });
}

void ProcessBase::restart_now() {
  handle_restart();
  up_ = true;
  ++metrics_.restarts;
  trace_simple(TraceEventType::kRestart, delivered_total_);
  metrics_.restart_latency.add(static_cast<double>(env_.now() - crash_time_));
  start_timers();
  on_started();
  OPTREC_LOG(kInfo) << "P" << pid_ << " restarted at t=" << env_.now()
                    << " as version " << version_;
}

void ProcessBase::on_message(const Message& msg) { handle_message(msg); }

void ProcessBase::on_token(const Token& token) { handle_token(token); }

void ProcessBase::deliver_to_app(const Message& msg, bool replay) {
  if (!replay) {
    storage_.log().append(msg);
  }
  ++delivered_total_;
  if (oracle_) {
    if (replay) {
      // Replay reconstructs an existing state; reuse its identity.
      cur_state_ = state_at_count(delivered_total_);
    } else {
      cur_state_ = oracle_->delivery_state(pid_, cur_state_, msg.sender_state);
      oracle_->record_delivery(msg.id, cur_state_);
      states_at_count_[delivered_total_].push_back(cur_state_);
    }
  }
  if (msg.src < n_) {
    delivered_keys_.insert({msg.src, msg.src_version, msg.send_seq});
  }
  if (replay) {
    ++metrics_.messages_replayed;
  } else {
    ++metrics_.messages_delivered;
  }
  // Traced before the app handler runs, so the handler's sends follow their
  // cause in the event order.
  trace_message(replay ? TraceEventType::kReplay : TraceEventType::kDeliver,
                msg, delivered_total_);
  const bool was_replaying = replaying_;
  replaying_ = replay;
  outputs_in_state_ = 0;
  app_->on_message(*ctx_, msg.src, msg.payload);
  replaying_ = was_replaying;
}

bool ProcessBase::is_duplicate(const Message& msg) const {
  return delivered_keys_.count({msg.src, msg.src_version, msg.send_seq}) > 0;
}

Bytes ProcessBase::delivered_keys_snapshot() const {
  Writer w;
  w.put_u64(delivered_keys_.size());
  for (const auto& [src, version, seq] : delivered_keys_) {
    w.put_u32(src);
    w.put_u32(version);
    w.put_u64(seq);
  }
  return w.take();
}

void ProcessBase::rebuild_delivered_keys(std::uint64_t count,
                                         const Bytes& snapshot) {
  delivered_keys_.clear();
  if (!snapshot.empty()) {
    Reader r(snapshot);
    for (std::uint64_t k = r.get_u64(); k > 0; --k) {
      const ProcessId src = r.get_u32();
      const Version version = r.get_u32();
      delivered_keys_.insert({src, version, r.get_u64()});
    }
  }
  const auto& log = storage_.log();
  for (std::uint64_t i = log.base(); i < count; ++i) {
    const Message& m = log.entry(i);
    if (m.src < n_) delivered_keys_.insert({m.src, m.src_version, m.send_seq});
  }
}

void ProcessBase::app_send(ProcessId dst, const Bytes& payload) {
  if (dst == pid_ || dst >= n_) {
    throw std::invalid_argument("app_send: bad destination");
  }
  Message m;
  m.kind = MessageKind::kApp;
  m.src = pid_;
  m.dst = dst;
  m.src_version = version_;
  m.send_seq = send_seq_++;
  m.payload = payload;
  stamp_outgoing(m);
  if (replaying_) {
    // The original send already reached the network before the crash or
    // rollback (handlers are event-atomic); re-emitting would duplicate it.
    ++metrics_.sends_suppressed_in_replay;
    return;
  }
  m.sender_state = cur_state_;
  if (intercept_send(m)) return;
  transmit_now(std::move(m));
}

void ProcessBase::transmit_now(Message msg) {
  const StateId sender_state = msg.sender_state;
  ++metrics_.app_messages_sent;
  metrics_.payload_bytes += msg.payload.size();
  metrics_.piggyback_bytes += message_piggyback_bytes(msg);
  const MsgId id = env_.transport().send(std::move(msg));
  if (oracle_) oracle_->record_send(id, sender_state);
}

void ProcessBase::resend_raw(Message msg) {
  msg.retransmission = true;
  const StateId sender_state = msg.sender_state;
  const MsgId id = env_.transport().send(std::move(msg));
  if (oracle_) oracle_->record_send(id, sender_state);
  ++metrics_.retransmissions;
}

void ProcessBase::requeue_local(Message msg) {
  ++metrics_.messages_requeued_after_rollback;
  env_.schedule_after(micros(1), [this, m = std::move(msg)]() mutable {
    if (!up_) {
      requeue_retry(std::move(m));
      return;
    }
    on_message(m);
  });
}

void ProcessBase::requeue_retry(Message msg) {
  env_.schedule_after(millis(1), [this, m = std::move(msg)]() mutable {
    if (!up_) {
      requeue_retry(std::move(m));
      return;
    }
    on_message(m);
  });
}

StateId ProcessBase::state_at_count(std::uint64_t count) const {
  auto it = states_at_count_.find(count);
  if (it == states_at_count_.end() || it->second.empty()) {
    throw std::logic_error("state_at_count: unknown count");
  }
  return it->second.back();
}

void ProcessBase::set_state_at_count(std::uint64_t count, StateId s) {
  states_at_count_[count].push_back(s);
}

std::vector<StateId> ProcessBase::take_states_for_deliveries(
    std::uint64_t from, std::uint64_t to) {
  std::vector<StateId> out;
  for (std::uint64_t count = from + 1; count <= to; ++count) {
    auto it = states_at_count_.find(count);
    if (it == states_at_count_.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
    states_at_count_.erase(it);
  }
  return out;
}

void ProcessBase::request_output(const std::string& data) {
  const std::pair<std::uint64_t, std::uint64_t> id{delivered_total_,
                                                   outputs_in_state_++};
  if (committed_output_ids_.count(id) > 0) {
    // Replay re-ran the handler that produced this output, and this
    // incarnation already committed it: the reply left the process the
    // first time. Regenerating it would hand the outside world a duplicate.
    ++metrics_.outputs_replay_suppressed;
    return;
  }
  ++metrics_.outputs_requested;
  const SimTime now = env_.now();
  if (!output_commit_gated()) {
    committed_output_ids_.insert(id);
    ++metrics_.outputs_committed;
    if (oracle_) oracle_->record_output_commit(cur_state_);
    trace_simple(TraceEventType::kOutputCommit, 1);
    if (output_listener_) {
      output_listener_(OutputEvent::kCommitted,
                       CommittedOutput{data, now, now, now});
    }
    return;
  }
  PendingOutput pending;
  pending.data = data;
  pending.requested_at = now;
  pending.delivered_count = id.first;
  pending.output_idx = id.second;
  if (const Ftvc* clock = output_clock()) pending.clock = *clock;
  pending.state = cur_state_;
  pending_outputs_.push_back(std::move(pending));
  if (output_listener_) {
    output_listener_(OutputEvent::kGated, CommittedOutput{data, now, 0, 0});
  }
}

void ProcessBase::commit_pending_outputs_if(const OutputPredicate& own_stable,
                                            const OutputPredicate& stable) {
  const SimTime now = env_.now();
  std::uint64_t committed = 0;
  SimTime oldest_latency = 0;
  auto it = pending_outputs_.begin();
  while (it != pending_outputs_.end()) {
    if (!it->own_stable_at && own_stable(*it)) it->own_stable_at = now;
    if (stable(*it)) {
      committed_output_ids_.insert({it->delivered_count, it->output_idx});
      ++metrics_.outputs_committed;
      if (oracle_) oracle_->record_output_commit(it->state);
      const SimTime latency = now - it->requested_at;
      metrics_.output_commit_latency.add(static_cast<double>(latency));
      oldest_latency = std::max(oldest_latency, latency);
      ++committed;
      if (output_listener_) {
        output_listener_(OutputEvent::kCommitted,
                         CommittedOutput{std::move(it->data), it->requested_at,
                                         it->own_stable_at.value_or(now),
                                         now});
      }
      it = pending_outputs_.erase(it);
    } else {
      ++it;
    }
  }
  if (committed > 0) {
    trace_simple(TraceEventType::kOutputCommit, committed, oldest_latency);
  }
}

void ProcessBase::drop_pending_outputs_after(std::uint64_t count) {
  discard_pending_outputs_if([count](const PendingOutput& p) {
    return p.delivered_count > count;
  });
}

void ProcessBase::discard_pending_outputs_if(const OutputPredicate& lost) {
  const auto first_lost = std::stable_partition(
      pending_outputs_.begin(), pending_outputs_.end(),
      [&lost](const PendingOutput& p) { return !lost(p); });
  if (output_listener_) {
    for (auto it = first_lost; it != pending_outputs_.end(); ++it) {
      output_listener_(OutputEvent::kDiscarded,
                       CommittedOutput{std::move(it->data), it->requested_at,
                                       it->own_stable_at.value_or(0), 0});
    }
  }
  pending_outputs_.erase(first_lost, pending_outputs_.end());
}

void ProcessBase::forget_committed_outputs_after(std::uint64_t count) {
  committed_output_ids_.erase(
      committed_output_ids_.upper_bound(
          {count, std::numeric_limits<std::uint64_t>::max()}),
      committed_output_ids_.end());
}

void ProcessBase::forget_committed_outputs_through(std::uint64_t count) {
  committed_output_ids_.erase(
      committed_output_ids_.begin(),
      committed_output_ids_.upper_bound(
          {count, std::numeric_limits<std::uint64_t>::max()}));
}

TraceEvent ProcessBase::trace_base(TraceEventType type) const {
  TraceEvent e;
  e.at = env_.now();
  e.type = type;
  e.pid = pid_;
  e.clock = trace_clock_entry();
  return e;
}

void ProcessBase::trace_simple(TraceEventType type, std::uint64_t count,
                               std::uint64_t detail) {
  if (!trace_) return;
  TraceEvent e = trace_base(type);
  e.count = count;
  e.detail = detail;
  trace_->emit(std::move(e));
}

void ProcessBase::trace_message(TraceEventType type, const Message& msg,
                                std::uint64_t count) {
  if (!trace_) return;
  TraceEvent e = trace_base(type);
  e.peer = msg.src;
  e.msg_id = msg.id;
  e.send_seq = msg.send_seq;
  e.msg_version = msg.src_version;
  e.count = count;
  e.mclock = msg.clock.entries();
  trace_->emit(std::move(e));
}

void ProcessBase::trace_token_event(TraceEventType type, const Token& token) {
  if (!trace_) return;
  TraceEvent e = trace_base(type);
  e.peer = token.from;
  e.ref = token.failed;
  // Attribute to the originating failure when the announcement carries one
  // (cascading re-announcements); a plain token is its own origin.
  if (token.origin_pid != kNoProcess) {
    e.origin = token.origin_pid;
    e.origin_ver = token.origin_ver;
  } else {
    e.origin = token.from;
    e.origin_ver = token.failed.ver;
  }
  trace_->emit(std::move(e));
}

std::string ProcessBase::describe() const {
  std::ostringstream os;
  os << 'P' << pid_ << "{v" << version_ << " delivered=" << delivered_total_
     << ' ' << app_->describe() << '}';
  return os.str();
}

}  // namespace optrec
