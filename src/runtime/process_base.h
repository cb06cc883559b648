// ProcessBase: shared runtime plumbing for every recovery protocol.
//
// Owns the app, the simulated stable storage, timers (checkpoint, flush),
// the crash/restart lifecycle, replay send-suppression, duplicate
// filtering, and all ground-truth-oracle bookkeeping. Protocol logic lives
// in subclasses via the handle_* hooks: the Damani-Garg process in
// src/core/, the comparison baselines in src/baselines/.
//
// Lifecycle of a process:
//   start() -> app on_start (sends) -> initial checkpoint -> timers run
//   crash() -> volatile state wiped -> down for restart_delay
//           -> handle_restart() (protocol) -> up, timers resume
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/app/app.h"
#include "src/harness/metrics.h"
#include "src/net/network.h"
#include "src/runtime/env.h"
#include "src/sim/simulation.h"
#include "src/storage/stable_storage.h"
#include "src/trace/trace_event.h"
#include "src/truth/causality_oracle.h"

namespace optrec {

struct ProcessConfig {
  /// Interval between uncoordinated checkpoints (0 = only the initial one).
  SimTime checkpoint_interval = millis(400);
  /// Interval between asynchronous flushes of the volatile message log to
  /// stable storage (0 = never flush on a timer). Pessimistic baselines
  /// flush synchronously and ignore this.
  SimTime flush_interval = millis(40);
  /// Downtime between a crash and the start of restart processing.
  SimTime restart_delay = millis(5);
  /// Remark 1: keep send history; on a peer's token, retransmit messages the
  /// failed process lost (those concurrent with the token's state).
  bool retransmit_on_failure = false;
  /// Literal-TR mode: discard the non-obsolete logged suffix on rollback
  /// instead of re-enqueuing it (DESIGN.md §3).
  bool discard_rollback_suffix = false;
  /// ABLATION ONLY: deliver messages without waiting for the predecessor
  /// tokens of every version they reference (disables the Section 6.1
  /// deliverability rule). This deliberately breaks orphan detection — a
  /// message can smuggle a dependency on lost states behind a
  /// higher-version clock entry — and exists so the ablation bench can
  /// measure how often that happens. Never enable in real deployments.
  bool ablation_disable_postponement = false;
  /// FAULT INJECTION ONLY ("testing the tester"): skip the Lemma-4 obsolete
  /// filter on receive, so messages from invalidated states are delivered.
  /// The exploration engine flips this to prove its oracles catch a broken
  /// protocol (`optrec_explore --mutate=skip-lemma4`). Never enable in real
  /// deployments.
  bool ablation_skip_obsolete_filter = false;
  /// Enable the stability tracker (gossiped log vectors) and with it output
  /// commit and storage garbage collection (paper Remark 2).
  bool enable_stability_tracking = false;
  SimTime stability_gossip_interval = millis(200);
  bool enable_gc = false;
};

/// One externally visible output, with commit bookkeeping (paper Remark 2).
/// requested_at <= own_stable_at <= committed_at: the gate wait splits into
/// waiting for this process's own log (requested -> own-stable) and for
/// peer stability (own-stable -> committed). An ungated output has all
/// three equal.
struct CommittedOutput {
  std::string data;
  SimTime requested_at = 0;
  /// When the process's own stable entry first covered the producing
  /// interval.
  SimTime own_stable_at = 0;
  SimTime committed_at = 0;
};

/// Lifecycle events for externally visible outputs (see set_output_listener).
enum class OutputEvent {
  kGated,      // requested, parked behind the output-commit point
  kCommitted,  // released: the producing state interval is stable
  kDiscarded,  // gated, then dropped by a crash or a rollback uncommitted
};

class ProcessBase : public Endpoint {
 public:
  ProcessBase(RuntimeEnv env, ProcessId pid, std::size_t n,
              std::unique_ptr<App> app, ProcessConfig config,
              Metrics& metrics, CausalityOracle* oracle);
  ~ProcessBase() override;

  ProcessBase(const ProcessBase&) = delete;
  ProcessBase& operator=(const ProcessBase&) = delete;

  /// Run app on_start, take the initial checkpoint, start timers. Must be
  /// called exactly once, before the simulation runs.
  void start();

  /// Boot from stable storage restored by a durable backend after a real
  /// process death (instead of start()): runs the protocol's restart path —
  /// restore the latest checkpoint, replay the stable log, announce the
  /// failure token — exactly as an in-memory crash would, then comes up.
  /// Requires a restored checkpoint and no oracle (ground-truth state
  /// identities do not span process incarnations).
  void start_recovered();

  /// Failure injection: wipe volatile state, go down, schedule restart.
  /// No-op while already down.
  void crash();

  // Endpoint:
  bool is_up() const final { return up_; }
  void on_message(const Message& msg) final;
  void on_token(const Token& token) final;

  ProcessId pid() const { return pid_; }
  std::size_t cluster_size() const { return n_; }
  Version version() const { return version_; }
  std::uint64_t delivered_count() const { return delivered_total_; }
  App& app() { return *app_; }
  const App& app() const { return *app_; }
  StableStorage& storage() { return storage_; }
  const StableStorage& storage() const { return storage_; }
  const ProcessConfig& config() const { return config_; }

  /// One output request from the app, identified by the producing state and
  /// its ordinal within that state's handler. Deterministic replay reproduces
  /// the same identities, which is how re-generated outputs are matched
  /// against already-committed ones.
  struct PendingOutput {
    std::string data;
    SimTime requested_at = 0;
    /// Set once the process's own stable entry covers `clock`.
    std::optional<SimTime> own_stable_at;
    std::uint64_t delivered_count = 0;  // state that produced it
    std::uint64_t output_idx = 0;       // ordinal within that state
    Ftvc clock;  // producing interval's clock (empty when untracked)
    StateId state = 0;  // oracle identity of the producing state
  };

  /// Observer for the output lifecycle (service frontends releasing client
  /// replies). Invoked synchronously from the protocol's execution context —
  /// the worker thread on live backends. kGated fires with own_stable_at
  /// and committed_at 0; kCommitted fires for every committed output, gated
  /// or not; kDiscarded fires, with committed_at 0, for every gated output
  /// that leaves the gate without committing. Each kGated output ends in
  /// exactly one kCommitted or kDiscarded.
  using OutputListener =
      std::function<void(OutputEvent, const CommittedOutput&)>;
  void set_output_listener(OutputListener listener) {
    output_listener_ = std::move(listener);
  }

  /// Messages the protocol is holding internally (postponed, deferred,
  /// recovery-buffered). Zero across all processes is a necessary condition
  /// for application quiescence (used by the harness).
  virtual std::size_t pending_count() const { return 0; }

  /// Oracle identity of the current state (0 when no oracle is attached).
  /// Read-only observability hook for monitors such as predicate detection.
  StateId current_state_id() const { return cur_state_; }

  /// Attach a trace recorder (null detaches). Tracing is disabled by
  /// default; every emit site is guarded by a single pointer test, so the
  /// disabled hot path costs nothing.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  virtual std::string describe() const;

 protected:
  // ---- protocol hooks ------------------------------------------------
  /// An application/control message arrived off the wire.
  virtual void handle_message(const Message& msg) = 0;
  /// A recovery token arrived.
  virtual void handle_token(const Token& token) = 0;
  /// Restart after a crash: restore, replay, announce. Runs while down;
  /// the base marks the process up afterwards.
  virtual void handle_restart() = 0;
  /// Take one checkpoint now (timer-driven and at protocol-chosen points).
  virtual void take_checkpoint() = 0;
  /// Stamp protocol headers (clock, ...) onto an outgoing app message and
  /// advance the protocol clock. Runs for real and replayed sends alike.
  virtual void stamp_outgoing(Message& msg) = 0;
  /// Wipe protocol volatile state on crash (clocks/history/queues are
  /// reconstructed by handle_restart from stable storage).
  virtual void on_crash_wipe() {}
  /// Called after start() completes (protocol may start extra timers).
  virtual void on_started() {}
  /// How many delivered states this process could reconstruct from stable
  /// storage if it crashed right now. Default: the stable message-log
  /// prefix (checkpoint + replay). Crash marks everything beyond it lost.
  virtual std::uint64_t recoverable_count() const {
    return storage_.log().stable_count();
  }
  /// Is this state allowed to commit outputs immediately? Default: yes
  /// (paper Remark 2 gating is implemented by the DG subclass).
  virtual bool output_commit_gated() const { return false; }
  /// Clock of the current state interval, stamped onto gated outputs so the
  /// commit decision can be per-output (stability covers the producing
  /// interval) instead of per-checkpoint. Null = no clock (baselines).
  virtual const Ftvc* output_clock() const { return nullptr; }
  /// Called after every flush-timer fire (the volatile log is empty). DG
  /// refreshes its own stability entry here, and broadcasts it when an app
  /// message left a state not yet advertised, so gated outputs commit at
  /// flush latency, not checkpoint or gossip-timer latency.
  virtual void on_flushed() {}

  // ---- services for subclasses ----------------------------------------
  /// Clock + timers. Named `sim()` for continuity with the original
  /// simulator-only code; on the live backend this is real time and
  /// worker-thread-local timers.
  RuntimeEnv& sim() { return env_; }
  Transport& net() { return env_.transport(); }
  Metrics& metrics() { return metrics_; }
  CausalityOracle* oracle() { return oracle_; }
  TraceRecorder* trace() const { return trace_; }

  /// The (version, timestamp) identity stamped onto this process's trace
  /// events. Protocols with an FTVC override to expose the live self entry.
  virtual FtvcEntry trace_clock_entry() const { return {version_, 0}; }

  /// TraceEvent pre-filled with time, pid, and the current clock entry.
  TraceEvent trace_base(TraceEventType type) const;
  /// Emit a counter-style event (checkpoint, flush, ...). No-op untraced.
  void trace_simple(TraceEventType type, std::uint64_t count = 0,
                    std::uint64_t detail = 0);
  /// Emit a message-path event (deliver, discard, postpone). No-op untraced.
  void trace_message(TraceEventType type, const Message& msg,
                     std::uint64_t count = 0);
  /// Emit a token-path event. No-op untraced.
  void trace_token_event(TraceEventType type, const Token& token);

  /// Deliver `msg` to the app: append to the log (unless replaying), run
  /// the handler (sends are emitted or, in replay, suppressed), and do the
  /// oracle/metrics bookkeeping. The caller has already updated protocol
  /// clocks/history.
  void deliver_to_app(const Message& msg, bool replay);

  /// True if (src, src_version, send_seq) was already delivered in the
  /// current surviving state; guards against Remark-1 duplicate resends.
  /// Only deliveries from fleet processes (src < n) are keyed: injected
  /// client requests come from pseudo-process n, which never retransmits
  /// (a client retry is a fresh injection the app dedups itself).
  bool is_duplicate(const Message& msg) const;

  /// The duplicate filter's keys, encoded for a checkpoint: with GC on, the
  /// log prefix they would be rebuilt from may be reclaimed while a peer
  /// can still retransmit what it held.
  Bytes delivered_keys_snapshot() const;
  /// Rebuild the duplicate filter as the keys `snapshot` holds (a restored
  /// checkpoint's delivered_keys_snapshot(), or empty) plus those of the
  /// log entries [log base, count). Exact as long as the log base is at or
  /// below the restored checkpoint's cursor, which GC guarantees.
  void rebuild_delivered_keys(std::uint64_t count, const Bytes& snapshot = {});
  /// Register one delivered key directly (protocols that persist their own
  /// delivery tables, e.g. sender-based logging's checkpointed RSN table).
  void add_delivered_key(ProcessId src, Version src_version,
                         std::uint64_t send_seq) {
    delivered_keys_.insert({src, src_version, send_seq});
  }

  /// A protocol may intercept a stamped, non-replay outgoing message (e.g.
  /// sender-based logging defers sends until receipts are fully logged).
  /// Return true to take ownership; transmit later with transmit_now().
  virtual bool intercept_send(Message& msg) {
    (void)msg;
    return false;
  }
  /// Put a previously intercepted message on the wire (metrics + oracle).
  void transmit_now(Message msg);

  /// Send an app message on behalf of the app handler. Used by the
  /// AppContext shim; also by protocols for retransmission (with
  /// pre-stamped messages, via resend_raw).
  void app_send(ProcessId dst, const Bytes& payload);
  /// Put an already-stamped message copy back on the wire (Remark 1
  /// retransmission; bypasses stamp_outgoing and clock ticks).
  void resend_raw(Message msg);

  /// Re-inject a message into the local receive path as if it had just
  /// arrived (rollback-suffix re-enqueue).
  void requeue_local(Message msg);

  /// Oracle bookkeeping for restore/rollback. Each delivery count maps to
  /// the list of live states the process has had at that count (a delivery
  /// state, possibly followed by recovery states from restarts/rollbacks at
  /// that point).
  /// Latest live state at `count` (restore/replay target).
  StateId state_at_count(std::uint64_t count) const;
  /// Register an additional live state at `count` (recovery states).
  void set_state_at_count(std::uint64_t count, StateId s);
  StateId current_state() const { return cur_state_; }
  void set_current_state(StateId s) { cur_state_ = s; }
  /// Collect and FORGET every live state at counts in (from, to] — the
  /// states wiped by a crash or undone by a rollback. Forgetting them keeps
  /// later undo ranges from re-marking states of a discarded timeline.
  std::vector<StateId> take_states_for_deliveries(std::uint64_t from,
                                                  std::uint64_t to);

  /// Record an output request from the app (Remark 2). Committed
  /// immediately unless output_commit_gated(). Replay re-runs handlers, so a
  /// request whose (delivered_count, output_idx) identity was already
  /// committed by this incarnation is suppressed — the reply left the
  /// process the first time (the output analogue of replay send
  /// suppression).
  void request_output(const std::string& data);
  /// Per-output commit via the producing interval's clock: stamp
  /// own_stable_at on every pending output `own_stable` accepts (this
  /// process's own stable entry covers it), then commit every one `stable`
  /// accepts (the whole clock is covered, which implies own-stable).
  using OutputPredicate = std::function<bool(const PendingOutput&)>;
  void commit_pending_outputs_if(const OutputPredicate& own_stable,
                                 const OutputPredicate& stable);
  /// Drop pending outputs from rolled-back states (> count).
  void drop_pending_outputs_after(std::uint64_t count);
  /// Forget committed-output identities beyond `count` (states undone by a
  /// rollback belong to a discarded timeline; the replacement timeline's
  /// outputs at those counts are new outputs).
  void forget_committed_outputs_after(std::uint64_t count);
  /// Forget committed-output identities at or below `count`, the oldest
  /// live checkpoint's cursor after a GC pass: replay never starts below
  /// it, so no handler at those counts runs again.
  void forget_committed_outputs_through(std::uint64_t count);

  // Mutable protocol-visible counters maintained by the base:
  Version version_ = 0;              // incarnation (DG restart bumps this)
  std::uint64_t delivered_total_ = 0;  // global delivery count == log cursor
  std::uint64_t send_seq_ = 0;
  bool replaying_ = false;

 private:
  class ContextShim;

  void start_timers();
  void checkpoint_timer_fired();
  void flush_timer_fired();
  void restart_now();
  void requeue_retry(Message msg);
  /// Drop every pending output `lost` accepts, firing kDiscarded for each.
  void discard_pending_outputs_if(const OutputPredicate& lost);

  RuntimeEnv env_;
  ProcessId pid_;
  std::size_t n_;
  std::unique_ptr<App> app_;
  ProcessConfig config_;
  Metrics& metrics_;
  CausalityOracle* oracle_;  // may be null (benches)
  TraceRecorder* trace_ = nullptr;  // null unless tracing is enabled
  StableStorage storage_;

  bool up_ = false;
  bool started_ = false;
  SimTime crash_time_ = 0;
  TimerId checkpoint_timer_ = 0;
  TimerId flush_timer_ = 0;

  StateId cur_state_ = 0;
  std::unordered_map<std::uint64_t, std::vector<StateId>> states_at_count_;
  /// (src, src_version, send_seq) of every delivery from a fleet process in
  /// the surviving timeline.
  std::set<std::tuple<ProcessId, Version, std::uint64_t>> delivered_keys_;

  std::vector<PendingOutput> pending_outputs_;
  /// Ordinal of the next output within the current state interval; reset at
  /// every delivery so replay reproduces identities.
  std::uint64_t outputs_in_state_ = 0;
  /// (delivered_count, output_idx) of every output committed by this
  /// incarnation that replay could still regenerate; cleared on crash (a
  /// new incarnation re-commits, so outputs are at-least-once across real
  /// failures — clients dedup by sequence).
  std::set<std::pair<std::uint64_t, std::uint64_t>> committed_output_ids_;
  OutputListener output_listener_;

  std::unique_ptr<ContextShim> ctx_;
};

}  // namespace optrec
