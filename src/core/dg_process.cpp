#include "src/core/dg_process.h"

#include <sstream>
#include <stdexcept>

#include "src/util/log.h"
#include "src/util/serialization.h"

namespace optrec {

namespace {
// Control-message type tags (first payload byte).
constexpr std::uint8_t kCtlStabilityGossip = 1;
}  // namespace

DamaniGargProcess::DamaniGargProcess(RuntimeEnv env, ProcessId pid,
                                     std::size_t n, std::unique_ptr<App> app,
                                     ProcessConfig config, Metrics& metrics,
                                     CausalityOracle* oracle)
    : ProcessBase(env, pid, n, std::move(app), config, metrics, oracle),
      clock_(pid, n),
      history_(pid, n),
      stability_(n) {}

void DamaniGargProcess::on_started() {
  if (config().enable_stability_tracking &&
      config().stability_gossip_interval > 0) {
    gossip_timer_ = sim().schedule_after(config().stability_gossip_interval,
                                         [this] { gossip_timer_fired(); });
  }
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

void DamaniGargProcess::stamp_outgoing(Message& msg) {
  // Fig. 2: send (data, clock), then clock[i].ts++ — the message carries the
  // pre-increment clock.
  msg.clock = clock_;
  last_sent_ = std::max(last_sent_, clock_.self());
  clock_.tick_send();
  if (config().retransmit_on_failure) {
    // Recorded for replayed sends too: a sender rebuilding after its own
    // crash must be able to serve later retransmission requests.
    msg.sender_state = current_state();
    retransmitter_.record(msg);
  }
}

// ---------------------------------------------------------------------------
// Receive path (Fig. 4 "Receive message")
// ---------------------------------------------------------------------------

void DamaniGargProcess::handle_message(const Message& msg) {
  if (msg.kind == MessageKind::kControl) {
    handle_control(msg);
    return;
  }
  receive_app_message(msg);
}

void DamaniGargProcess::receive_app_message(const Message& msg) {
  // Obsolete (Lemma 4): the message depends on a state beyond a restored
  // point we know about — sent by a lost or orphan state.
  if (!config().ablation_skip_obsolete_filter &&
      history_.is_obsolete(msg.clock)) {
    ++metrics().messages_discarded_obsolete;
    if (oracle()) oracle()->record_discard(msg.id);
    trace_message(TraceEventType::kDiscardObsolete, msg);
    OPTREC_LOG(kDebug) << "P" << pid() << " discards obsolete "
                       << msg.describe();
    return;
  }
  // Duplicate (Remark-1 retransmission may resend something we recovered).
  if (is_duplicate(msg)) {
    ++metrics().messages_discarded_duplicate;
    trace_message(TraceEventType::kDiscardDuplicate, msg);
    return;
  }
  // Deliverability (Section 6.1): every version mentioned by the clock must
  // have all its predecessor tokens, or orphan detection could miss.
  if (const auto missing = config().ablation_disable_postponement
                               ? std::nullopt
                               : history_.first_missing_token(msg.clock)) {
    ++metrics().messages_postponed;
    held_.insert({*missing, msg});
    if (trace()) {
      TraceEvent e = trace_base(TraceEventType::kPostpone);
      e.peer = msg.src;
      e.msg_id = msg.id;
      e.send_seq = msg.send_seq;
      e.msg_version = msg.src_version;
      e.origin = missing->first;       // awaited token's process...
      e.origin_ver = missing->second;  // ...and version
      e.mclock = msg.clock.entries();
      trace()->emit(std::move(e));
    }
    OPTREC_LOG(kDebug) << "P" << pid() << " postpones " << msg.describe()
                       << " awaiting token P" << missing->first << " v"
                       << missing->second;
    return;
  }
  apply_delivery(msg, /*replay=*/false);
}

void DamaniGargProcess::apply_delivery(const Message& msg, bool replay) {
  history_.observe_message_clock(msg.clock);
  clock_.merge_deliver(msg.clock);
  if (!replay && delivery_observer_) {
    const Ftvc at_delivery = clock_;  // interval-start timestamp
    deliver_to_app(msg, replay);
    delivery_observer_(*this, at_delivery);
    return;
  }
  deliver_to_app(msg, replay);
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

void DamaniGargProcess::take_checkpoint() {
  // "At the time of checkpointing, all unlogged messages are also logged."
  storage().log().flush();
  Checkpoint c;
  c.version = version_;
  c.delivered_count = delivered_total_;
  c.send_seq = send_seq_;
  c.clock = clock_;
  c.history = history_;
  c.app_state = app().snapshot();
  if (config().retransmit_on_failure) {
    // The send history must survive our own crash: replay only re-records
    // sends of handlers after the restored checkpoint (Remark 1).
    c.extra = retransmitter_.snapshot();
  }
  if (config().enable_gc) {
    // So must the duplicate filter, once GC may reclaim the log prefix it
    // is rebuilt from: peers keep retransmitting what we delivered there.
    c.delivered_keys = delivered_keys_snapshot();
  }
  c.taken_at = sim().now();
  storage().checkpoints().append(std::move(c));
  ++metrics().checkpoints_taken;
  trace_simple(TraceEventType::kCheckpoint, delivered_total_);
  update_own_stability();
}

// ---------------------------------------------------------------------------
// Crash / restart (Fig. 4 "Restart", Section 6.2)
// ---------------------------------------------------------------------------

void DamaniGargProcess::on_crash_wipe() {
  // Volatile protocol state dies with the process; it is reconstructed from
  // stable storage in handle_restart.
  held_.clear();
  retransmitter_.clear();
  last_sent_ = last_advertised_ = FtvcEntry{};
  sim().cancel(gossip_timer_);
  gossip_timer_ = 0;
}

void DamaniGargProcess::restore_from(const Checkpoint& checkpoint) {
  app().restore(checkpoint.app_state);
  clock_ = checkpoint.clock;
  history_ = checkpoint.history;
  version_ = checkpoint.version;
  send_seq_ = checkpoint.send_seq;
  delivered_total_ = checkpoint.delivered_count;
  if (oracle()) set_current_state(state_at_count(delivered_total_));
}

void DamaniGargProcess::reapply_token_log() {
  for (const Token& t : storage().token_log()) {
    history_.observe_token(t.from, t.failed);
  }
}

void DamaniGargProcess::handle_restart() {
  if (storage().checkpoints().empty()) {
    throw std::logic_error("restart without a checkpoint");
  }
  // Restore the last checkpoint and replay the stable log after it. Tokens
  // were logged synchronously, so the restored history regains every failure
  // announcement it had acted on.
  const Checkpoint& checkpoint = storage().checkpoints().latest();
  restore_from(checkpoint);
  if (config().retransmit_on_failure) {
    retransmitter_.restore(checkpoint.extra);  // then replay re-records more
  }
  const std::uint64_t stable = storage().log().stable_count();
  for (std::uint64_t i = checkpoint.delivered_count; i < stable; ++i) {
    apply_delivery(storage().log().entry(i), /*replay=*/true);
  }
  reapply_token_log();
  rebuild_delivered_keys(delivered_total_, checkpoint.delivered_keys);

  // Announce the failure: (version that failed, timestamp at restoration).
  Token token;
  token.from = pid();
  token.failed = clock_.self();
  if (config().retransmit_on_failure) token.restored_clock = clock_;
  net().broadcast_token(token);

  // Record our own token — in the history AND in the synchronous token log,
  // so a later rollback restoring a pre-failure checkpoint can re-apply it
  // (otherwise messages referencing our new incarnation would wait forever
  // for a token nobody sends us).
  storage().log_token(token);
  history_.record_own_restart(clock_.self());
  stability_.note_stable(pid(), clock_.self().ver, clock_.self().ts);
  clock_.on_restart();
  version_ = clock_.self().ver;

  if (oracle()) {
    const StateId restored = current_state();
    const StateId recovery = oracle()->recovery_state(pid(), restored);
    set_current_state(recovery);
    set_state_at_count(delivered_total_, recovery);
  }

  // New checkpoint so the incremented version number itself survives the
  // next failure (Section 6.2); recovery is unaffected by a crash during
  // this checkpointing because replay is deterministic.
  take_checkpoint();
}

// ---------------------------------------------------------------------------
// Token receipt (Fig. 4 "Receive token", Section 6.3)
// ---------------------------------------------------------------------------

void DamaniGargProcess::handle_token(const Token& token) {
  ++metrics().tokens_processed;
  // Tokens are logged synchronously so that acting on one is never undone by
  // our own later failure.
  storage().log_token(token);
  ++metrics().sync_log_writes;
  trace_token_event(TraceEventType::kTokenProcess, token);

  if (history_.makes_orphan(token.from, token.failed)) {
    rollback(token.from, token.failed);
  }
  // Regardless of rollback, record the token and release what waited on it.
  history_.observe_token(token.from, token.failed);

  if (config().retransmit_on_failure && token.restored_clock) {
    for (Message& m : retransmitter_.collect_for(token.from, history_)) {
      resend_raw(std::move(m));
    }
  }

  release_held_for(token.from, token.failed.ver);
}

void DamaniGargProcess::release_held_for(ProcessId from, Version ver) {
  const auto range = held_.equal_range({from, ver});
  std::vector<Message> released;
  for (auto it = range.first; it != range.second; ++it) {
    released.push_back(std::move(it->second));
  }
  held_.erase(range.first, range.second);
  metrics().postponed_released += released.size();
  for (const Message& m : released) {
    // Full re-check: the message may await further tokens or have become
    // obsolete through the very token that released it.
    receive_app_message(m);
  }
}

// ---------------------------------------------------------------------------
// Rollback (Fig. 4 "Rollback", Section 6.4)
// ---------------------------------------------------------------------------

void DamaniGargProcess::rollback(ProcessId from, FtvcEntry failed) {
  OPTREC_LOG(kInfo) << "P" << pid() << " rolls back due to token P" << from
                    << ' ' << failed.to_string();
  metrics().count_rollback({from, failed.ver}, pid());

  // We have not failed: save everything first, so rollback loses nothing.
  storage().log().flush();
  ++metrics().sync_log_writes;

  const FtvcEntry pre_rollback = clock_.self();
  const std::uint64_t old_total = delivered_total_;

  // Maximum checkpoint not orphaned by the token (condition (I)).
  const auto idx =
      storage().checkpoints().latest_matching([&](const Checkpoint& c) {
        return c.history.consistent_with_token(from, failed);
      });
  if (!idx) {
    // Cannot happen: the initial checkpoint's history holds (mes, 0, 0) for
    // every peer, which no token can orphan.
    throw std::logic_error("rollback: no consistent checkpoint");
  }
  const Checkpoint& checkpoint = storage().checkpoints().at(*idx);

  // Replay logged messages while they keep the state non-orphan.
  const std::uint64_t total = storage().log().total_count();
  std::uint64_t replay_to = checkpoint.delivered_count;
  for (std::uint64_t i = checkpoint.delivered_count; i < total; ++i) {
    const FtvcEntry& e = storage().log().entry(i).clock.entry(from);
    if (e.ver == failed.ver && e.ts > failed.ts) break;  // first orphan msg
    replay_to = i + 1;
  }

  // The discarded suffix: the literal TR drops it; we re-enqueue the
  // non-obsolete part so no message is lost (DESIGN.md §3).
  std::vector<Message> suffix = storage().log().suffix_from(replay_to);

  // Drop the pending outputs of every state past the restore point BEFORE
  // replaying: replay re-runs those handlers and re-generates byte-identical
  // requests for the surviving states (request_output is not replay-
  // suppressed precisely so gated replies survive rollback). Dropping after
  // replay — the old order — left the originals alongside the regenerated
  // copies, releasing each reply twice. Outputs already COMMITTED from
  // replayed states are covered by the stability tracker and thus not
  // rolled back; their regenerated duplicates are suppressed by identity
  // ((delivered_count, output_idx) is deterministic under replay).
  drop_pending_outputs_after(checkpoint.delivered_count);
  forget_committed_outputs_after(replay_to);

  const std::uint64_t pre_rollback_seq = send_seq_;
  restore_from(checkpoint);
  for (std::uint64_t i = checkpoint.delivered_count; i < replay_to; ++i) {
    apply_delivery(storage().log().entry(i), /*replay=*/true);
  }
  // Replay reproduced the original send numbering (suppressed duplicates of
  // sends already on the wire); the continuation must NOT reuse the numbers
  // of discarded sends, or receivers' duplicate filters would swallow
  // genuinely new messages. Rollback keeps the version, so jump the counter.
  send_seq_ = std::max(send_seq_, pre_rollback_seq);
  reapply_token_log();

  // Oracle/metrics bookkeeping for the undone states.
  if (oracle()) {
    oracle()->mark_rolled_back(take_states_for_deliveries(replay_to, old_total));
  }
  metrics().states_rolled_back += old_total - replay_to;
  metrics().rollback_depth.add(static_cast<double>(old_total - replay_to));

  storage().checkpoints().truncate_after(*idx);
  storage().log().truncate_from(replay_to);
  rebuild_delivered_keys(delivered_total_, checkpoint.delivered_keys);

  // Fig. 2 "On Rollback": ts++, and the version number is NOT incremented.
  // The TR's "clock = s.clock" must not be read as reverting the process's
  // own identity, though: when the restore target predates our own last
  // restart (its checkpoint belongs to an older incarnation), our version
  // and burned timestamps stay where they are — otherwise this incarnation
  // would contradict its own earlier failure token (DESIGN.md §3).
  if (clock_.self().ver < pre_rollback.ver) {
    clock_.raise_self(pre_rollback);
  } else if (config().enable_stability_tracking) {
    // Optional timestamp jump past the discarded suffix so stale stability
    // advertisements can never cover new, unlogged states (DESIGN.md §3).
    clock_.force_self_ts(pre_rollback.ts);
  }
  clock_.on_rollback();
  version_ = clock_.self().ver;

  if (oracle()) {
    const StateId restored = current_state();
    const StateId recovery = oracle()->recovery_state(pid(), restored);
    set_current_state(recovery);
    set_state_at_count(delivered_total_, recovery);
  }

  if (trace()) {
    TraceEvent e = trace_base(TraceEventType::kRollback);
    e.peer = from;
    e.ref = failed;
    e.origin = from;  // a DG token is announced only by the failed process
    e.origin_ver = failed.ver;
    e.count = delivered_total_;           // surviving deliveries
    e.detail = old_total - replay_to;     // states undone
    trace()->emit(std::move(e));
  }

  // Re-checkpoint: the truncation may have discarded every checkpoint of
  // the current incarnation, and the version counter must survive the next
  // failure (same durability argument as Section 6.2's restart checkpoint).
  take_checkpoint();

  if (!config().discard_rollback_suffix) {
    for (Message& m : suffix) {
      requeue_local(std::move(m));
    }
  }
}

// ---------------------------------------------------------------------------
// Stability gossip, output commit, GC (Remark 2)
// ---------------------------------------------------------------------------

void DamaniGargProcess::update_own_stability() {
  if (!config().enable_stability_tracking) return;
  // Everything delivered so far is on stable storage (take_checkpoint just
  // flushed, or the caller did): the current own timestamp is recoverable.
  if (storage().log().volatile_count() == 0) {
    stability_.note_stable(pid(), clock_.self().ver, clock_.self().ts);
    after_stability_change();
  }
}

void DamaniGargProcess::on_flushed() {
  update_own_stability();
  // The flush made every sent state stable. Remark 2 puts no constraint on
  // when log vectors spread, so advertise now rather than on the gossip
  // timer whenever an app message left a state not yet advertised: its
  // receiver may hold gated outputs that depend on it. At most one round
  // per flush, and none from a process that sent nothing.
  if (config().enable_stability_tracking && last_advertised_ < last_sent_) {
    ++metrics().stability_rounds_on_flush;
    broadcast_stability_gossip();
  }
}

void DamaniGargProcess::after_stability_change() {
  // Per-output commit: a state interval whose entire causal past is
  // recoverable can never be lost or rolled back, so any output it produced
  // is safe to release (Remark 2). Each gated output carries its producing
  // interval's clock, making the commit decision per-output rather than
  // waiting for the next covered checkpoint.
  commit_pending_outputs_if(
      [this](const PendingOutput& p) {
        return p.clock.size() > 0 &&
               stability_.covers(pid(), p.clock.entry(pid()));
      },
      [this](const PendingOutput& p) {
        return p.clock.size() > 0 && stability_.covers(p.clock);
      });
  if (config().enable_gc) {
    const GcResult gc = collect_garbage(storage(), stability_);
    metrics().gc_checkpoints_reclaimed += gc.checkpoints_reclaimed;
    metrics().gc_log_entries_reclaimed += gc.log_entries_reclaimed;
    metrics().gc_reclaimed_bytes += gc.reclaimed_bytes;
    metrics().gc_held_intervals -= gc_held_reported_;
    metrics().gc_held_intervals += gc.held_intervals;
    gc_held_reported_ = gc.held_intervals;
    forget_committed_outputs_through(
        storage().checkpoints().at(0).delivered_count);
    if (gc.checkpoints_reclaimed + gc.log_entries_reclaimed > 0) {
      trace_simple(TraceEventType::kGc, gc.checkpoints_reclaimed,
                   gc.log_entries_reclaimed);
    }
  }
}

void DamaniGargProcess::broadcast_stability_gossip() {
  const Version ver = clock_.self().ver;
  last_advertised_ = {ver, stability_.stable_ts(pid(), ver).value_or(0)};
  Writer w;
  w.put_u8(kCtlStabilityGossip);
  w.put_bytes(stability_.encode());
  const Bytes payload = w.take();
  for (ProcessId dst = 0; dst < cluster_size(); ++dst) {
    if (dst == pid()) continue;
    Message m;
    m.kind = MessageKind::kControl;
    m.src = pid();
    m.dst = dst;
    m.payload = payload;
    net().send(std::move(m));
    ++metrics().control_messages_sent;
  }
}

void DamaniGargProcess::gossip_timer_fired() {
  if (!is_up()) {
    gossip_timer_ = 0;
    return;
  }
  update_own_stability();
  broadcast_stability_gossip();
  gossip_timer_ = sim().schedule_after(config().stability_gossip_interval,
                                       [this] { gossip_timer_fired(); });
}

void DamaniGargProcess::handle_control(const Message& msg) {
  // No transport can check a control payload, so a peer's bytes are
  // decoded in full before any of them is merged; an unknown tag, a
  // truncated vector, trailing bytes or a pid outside the fleet drops the
  // message instead of aborting the process.
  bool merged = false;
  try {
    Reader r(msg.payload);
    if (r.get_u8() == kCtlStabilityGossip) {
      const Bytes gossip = r.get_bytes();
      merged = r.at_end() && stability_.merge_encoded(gossip);
    }
  } catch (const DecodeError&) {
  }
  if (!merged) {
    ++metrics().control_messages_malformed;
    OPTREC_LOG(kDebug) << "P" << pid() << " drops a malformed control message"
                      << " from P" << msg.src;
    return;
  }
  after_stability_change();
}

std::string DamaniGargProcess::describe() const {
  std::ostringstream os;
  os << ProcessBase::describe() << " clock=" << clock_.to_string()
     << " held=" << held_.size();
  return os.str();
}

}  // namespace optrec
