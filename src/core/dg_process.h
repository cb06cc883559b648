// The Damani-Garg optimistic asynchronous recovery protocol (paper Fig. 4).
//
// On top of ProcessBase this class implements:
//  * message receive: obsolete filter (Lemma 4), duplicate filter,
//    deliverability postponement (Section 6.1), FTVC merge and history
//    update;
//  * restart after a failure (Section 6.2): restore the last checkpoint,
//    replay the stable log, re-apply logged tokens, broadcast the failure
//    token, bump the version, take the protecting checkpoint — all without
//    waiting on any other process;
//  * token receipt (Section 6.3): synchronous token logging, orphan check
//    (Lemma 3), at most one rollback per failure, release of postponed
//    messages;
//  * rollback (Section 6.4): maximum consistent checkpoint + partial replay;
//    the non-obsolete logged suffix is re-enqueued (or discarded in
//    literal-TR mode);
//  * optional Remark-1 retransmission and Remark-2 output commit / GC via
//    the stability tracker, whose vector is broadcast after every log
//    flush that made a sent state stable, and on a backstop timer.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/clocks/ftvc.h"
#include "src/core/output_commit.h"
#include "src/core/retransmitter.h"
#include "src/history/history.h"
#include "src/runtime/process_base.h"

namespace optrec {

class DamaniGargProcess : public ProcessBase {
 public:
  DamaniGargProcess(RuntimeEnv env, ProcessId pid, std::size_t n,
                    std::unique_ptr<App> app, ProcessConfig config,
                    Metrics& metrics, CausalityOracle* oracle = nullptr);

  const Ftvc& clock() const { return clock_; }
  const History& history() const { return history_; }
  std::size_t held_count() const { return held_.size(); }
  const StabilityTracker& stability() const { return stability_; }

  /// Observer invoked after every fresh (non-replay) delivery: the process
  /// is in its post-handler state, and `delivery_clock` is the FTVC at the
  /// START of the state interval (after the merge+tick, before the
  /// handler's sends) — the timestamp at which Theorem 1 holds exactly at
  /// interval granularity, and the one predicate detection should use.
  using DeliveryObserver =
      std::function<void(const DamaniGargProcess&, const Ftvc& delivery_clock)>;
  void set_delivery_observer(DeliveryObserver observer) {
    delivery_observer_ = std::move(observer);
  }

  std::string describe() const override;
  std::size_t pending_count() const override { return held_.size(); }

 protected:
  void handle_message(const Message& msg) override;
  void handle_token(const Token& token) override;
  void handle_restart() override;
  void take_checkpoint() override;
  void stamp_outgoing(Message& msg) override;
  void on_crash_wipe() override;
  void on_started() override;
  bool output_commit_gated() const override {
    return config().enable_stability_tracking;
  }
  const Ftvc* output_clock() const override { return &clock_; }
  void on_flushed() override;
  FtvcEntry trace_clock_entry() const override { return clock_.self(); }

 private:
  /// Full receive path for an application message (Fig. 4 "Receive
  /// message"); also re-entered by released-held and re-enqueued messages.
  void receive_app_message(const Message& msg);

  /// Deliver one message: update history, merge FTVC, run the app handler.
  /// Shared between fresh delivery and replay.
  void apply_delivery(const Message& msg, bool replay);

  /// Fig. 4 "Rollback (due to token (v,t) from Pj)".
  void rollback(ProcessId from, FtvcEntry failed);

  /// Restore process state from a checkpoint (app bytes, clock, history,
  /// counters, oracle cursor).
  void restore_from(const Checkpoint& checkpoint);

  /// Re-apply the synchronously logged tokens to the (restored) history.
  void reapply_token_log();

  void release_held_for(ProcessId from, Version ver);

  // Stability / output-commit / GC machinery (all optional).
  void handle_control(const Message& msg);
  void broadcast_stability_gossip();
  void gossip_timer_fired();
  void update_own_stability();
  void after_stability_change();

  Ftvc clock_;
  History history_;

  /// Postponed messages, keyed by the (process, version) token they await.
  std::multimap<std::pair<ProcessId, Version>, Message> held_;

  Retransmitter retransmitter_;
  StabilityTracker stability_;
  /// Held-interval count this process last contributed to the shared
  /// gc_held_intervals gauge (processes share one Metrics object in the
  /// simulation, so each GC pass must replace its own contribution, not the
  /// fleet total).
  std::uint64_t gc_held_reported_ = 0;
  /// The highest own entry stamp_outgoing put on an app message, and the
  /// own stable entry carried by the last stability broadcast. A flush
  /// broadcasts when the first is ahead: a receiver may be holding outputs
  /// on a sent state whose stability it has not heard of yet.
  FtvcEntry last_sent_;
  FtvcEntry last_advertised_;
  EventId gossip_timer_ = 0;
  DeliveryObserver delivery_observer_;
};

}  // namespace optrec
