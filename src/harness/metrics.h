// Run-level metrics shared by every process of a simulation.
//
// Counters are incremented by the protocol implementations and read by the
// experiment harness, the Table-1 bench, and the overhead benches. One
// Metrics object per run; processes hold a non-owning pointer.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/time.h"
#include "src/util/counter_fields.h"
#include "src/util/ids.h"
#include "src/util/stats.h"

namespace optrec {

/// Identifies one failure event: (process, version that failed).
using FailureId = std::pair<ProcessId, Version>;

/// Fold one more word into a quiescence progress signature.
inline std::uint64_t signature_mix(std::uint64_t sig, std::uint64_t v) {
  return sig * 1000003u + v;
}

struct Metrics {
  // --- message path
  std::uint64_t app_messages_sent = 0;
  /// Protocol control sends: the baselines' coordination messages and
  /// DG's stability gossip (zero for DG unless stability tracking is on).
  std::uint64_t control_messages_sent = 0;
  /// Control messages dropped because their payload did not decode (an
  /// unknown tag, a truncated or over-long vector, a pid outside the
  /// fleet): a peer's bytes must never abort the receiver.
  std::uint64_t control_messages_malformed = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_discarded_obsolete = 0;
  std::uint64_t messages_discarded_duplicate = 0;
  std::uint64_t messages_postponed = 0;
  std::uint64_t postponed_released = 0;
  std::uint64_t piggyback_bytes = 0;  // exact wire-frame bytes beyond payload
  std::uint64_t payload_bytes = 0;

  // --- logging / checkpointing
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t log_flushes = 0;
  std::uint64_t messages_lost_in_crash = 0;  // unlogged receipts wiped
  std::uint64_t sync_log_writes = 0;         // pessimistic baseline + tokens

  // --- recovery path
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t tokens_processed = 0;
  std::uint64_t messages_replayed = 0;
  std::uint64_t sends_suppressed_in_replay = 0;
  std::uint64_t messages_requeued_after_rollback = 0;
  std::uint64_t retransmissions = 0;  // Remark-1 resends
  std::uint64_t states_rolled_back = 0;

  // --- blocking behaviour (Table 1 "asynchronous recovery" column)
  /// Simulated time a recovering process spent waiting on other processes
  /// before resuming computation. Damani-Garg keeps this at zero.
  SimTime recovery_blocked_time = 0;
  /// Time processes spent holding deliveries for checkpoint coordination
  /// (coordinated-checkpointing baseline only).
  SimTime checkpoint_blocked_time = 0;
  RunningStats restart_latency;   // crash -> computing again
  RunningStats rollback_depth;    // delivered states undone per rollback

  // --- output commit / GC
  std::uint64_t outputs_requested = 0;
  std::uint64_t outputs_committed = 0;
  /// Replay re-ran a handler whose output this incarnation had already
  /// committed; the duplicate was suppressed (output analogue of
  /// sends_suppressed_in_replay).
  std::uint64_t outputs_replay_suppressed = 0;
  RunningStats output_commit_latency;
  /// DG stability broadcasts sent right after a log flush because an app
  /// message left a state not yet advertised (the periodic gossip timer's
  /// rounds are not counted here).
  std::uint64_t stability_rounds_on_flush = 0;
  std::uint64_t gc_checkpoints_reclaimed = 0;
  std::uint64_t gc_log_entries_reclaimed = 0;
  std::uint64_t gc_reclaimed_bytes = 0;   // exact stable-footprint freed
  /// State intervals (log entries) still held after the last GC pass: a
  /// level gauge, not an accumulator (merge_from takes the sum across
  /// processes, which is the fleet's total held history).
  std::uint64_t gc_held_intervals = 0;

  /// Every counter with its --metrics-json key, in output order
  /// (src/util/counter_fields.h). Rows with a /metrics family are mirrored
  /// per process as {pid="K"} counters by telemetry::ProcessGauges, so they
  /// must be monotonic. merge_from and the JSON writer iterate this table.
  static constexpr std::array<CounterField<Metrics>, 33> kFields{{
      {"app_messages_sent", &Metrics::app_messages_sent,
       "optrec_app_messages_sent_total", "Application messages sent"},
      {"control_messages_sent", &Metrics::control_messages_sent},
      {"control_messages_malformed", &Metrics::control_messages_malformed,
       "optrec_control_messages_malformed_total",
       "Control messages dropped because their payload did not decode"},
      {"messages_delivered", &Metrics::messages_delivered,
       "optrec_messages_delivered_total", "Messages delivered to the app"},
      {"messages_discarded_obsolete", &Metrics::messages_discarded_obsolete,
       "optrec_messages_orphaned_total",
       "Messages discarded by the Lemma-4 obsolete filter"},
      {"messages_discarded_duplicate", &Metrics::messages_discarded_duplicate,
       "optrec_messages_duplicate_total", "Messages discarded as duplicates"},
      {"messages_postponed", &Metrics::messages_postponed,
       "optrec_messages_postponed_total",
       "Deliveries held for a predecessor token"},
      {"postponed_released", &Metrics::postponed_released},
      {"piggyback_bytes", &Metrics::piggyback_bytes,
       "optrec_piggyback_bytes_total",
       "Wire bytes of piggybacked protocol headers"},
      {"payload_bytes", &Metrics::payload_bytes},
      {"checkpoints_taken", &Metrics::checkpoints_taken,
       "optrec_checkpoints_total", "Checkpoints written"},
      {"log_flushes", &Metrics::log_flushes,
       "optrec_log_flushes_total", "Receiver-log flushes"},
      {"messages_lost_in_crash", &Metrics::messages_lost_in_crash},
      {"sync_log_writes", &Metrics::sync_log_writes},
      {"crashes", &Metrics::crashes,
       "optrec_crashes_total", "Failures suffered"},
      {"restarts", &Metrics::restarts,
       "optrec_restarts_total", "Restarts completed"},
      {"rollbacks", &Metrics::rollbacks,
       "optrec_rollbacks_total", "Rollbacks performed"},
      {"tokens_processed", &Metrics::tokens_processed,
       "optrec_tokens_processed_total", "Failure/rollback tokens processed"},
      {"messages_replayed", &Metrics::messages_replayed,
       "optrec_messages_replayed_total",
       "Messages replayed from the stable log"},
      {"sends_suppressed_in_replay", &Metrics::sends_suppressed_in_replay},
      {"messages_requeued_after_rollback",
       &Metrics::messages_requeued_after_rollback},
      {"retransmissions", &Metrics::retransmissions,
       "optrec_retransmissions_total", "Remark-1 retransmissions sent"},
      {"states_rolled_back", &Metrics::states_rolled_back,
       "optrec_states_rolled_back_total",
       "Delivered states undone by rollbacks"},
      {"recovery_blocked_time_us", &Metrics::recovery_blocked_time},
      {"checkpoint_blocked_time_us", &Metrics::checkpoint_blocked_time},
      {"outputs_requested", &Metrics::outputs_requested},
      {"outputs_committed", &Metrics::outputs_committed},
      {"outputs_replay_suppressed", &Metrics::outputs_replay_suppressed},
      {"stability_rounds_on_flush", &Metrics::stability_rounds_on_flush,
       "optrec_stability_rounds_on_flush_total",
       "Stability broadcasts triggered by a log flush after an app send"},
      {"gc_checkpoints_reclaimed", &Metrics::gc_checkpoints_reclaimed},
      {"gc_log_entries_reclaimed", &Metrics::gc_log_entries_reclaimed,
       "optrec_gc_reclaimed_intervals_total",
       "Stable-log state intervals reclaimed by Remark-2 GC"},
      {"gc_reclaimed_bytes", &Metrics::gc_reclaimed_bytes},
      {"gc_held_intervals", &Metrics::gc_held_intervals, nullptr, "",
       CounterKind::kGauge},
  }};

  /// Rollbacks attributed to each failure; the paper's "number of rollbacks
  /// per failure" (Table 1) requires max over failures of per-process count.
  std::map<FailureId, std::map<ProcessId, std::uint64_t>> rollbacks_by_failure;

  void count_rollback(FailureId failure, ProcessId who) {
    ++rollbacks;
    ++rollbacks_by_failure[failure][who];
  }

  /// Max rollbacks any single process performed for any single failure
  /// (the paper guarantees <= 1 for Damani-Garg).
  std::uint64_t max_rollbacks_per_process_per_failure() const;

  /// Mean piggyback bytes per application message sent.
  double piggyback_per_message() const;

  /// Mix of the application-relevant counters: any progress a run can make
  /// changes it. Every backend's quiescence detector waits for it (folded
  /// with the transport's drop count) to hold still across a settle window.
  std::uint64_t progress_signature() const;

  /// Fold another Metrics object into this one (kFields rows add, stats
  /// merge, attribution maps union). WorkerHost gives each worker
  /// thread a private Metrics and merges them post-join, so the hot path
  /// never takes a lock on a shared counter block.
  void merge_from(const Metrics& other);

  std::string summary() const;
};

}  // namespace optrec
