#include "src/harness/metrics.h"

#include <algorithm>
#include <sstream>

namespace optrec {

std::uint64_t Metrics::max_rollbacks_per_process_per_failure() const {
  std::uint64_t worst = 0;
  for (const auto& [failure, per_process] : rollbacks_by_failure) {
    for (const auto& [pid, count] : per_process) {
      worst = std::max(worst, count);
    }
  }
  return worst;
}

double Metrics::piggyback_per_message() const {
  if (app_messages_sent == 0) return 0.0;
  return static_cast<double>(piggyback_bytes) /
         static_cast<double>(app_messages_sent);
}

std::uint64_t Metrics::progress_signature() const {
  std::uint64_t sig = 0;
  for (const std::uint64_t v :
       {app_messages_sent, messages_delivered, messages_discarded_obsolete,
        messages_discarded_duplicate, messages_postponed, postponed_released,
        messages_replayed, messages_requeued_after_rollback, crashes, restarts,
        rollbacks, tokens_processed, retransmissions}) {
    sig = signature_mix(sig, v);
  }
  return sig;
}

void Metrics::merge_from(const Metrics& other) {
  app_messages_sent += other.app_messages_sent;
  control_messages_sent += other.control_messages_sent;
  messages_delivered += other.messages_delivered;
  messages_discarded_obsolete += other.messages_discarded_obsolete;
  messages_discarded_duplicate += other.messages_discarded_duplicate;
  messages_postponed += other.messages_postponed;
  postponed_released += other.postponed_released;
  piggyback_bytes += other.piggyback_bytes;
  payload_bytes += other.payload_bytes;
  checkpoints_taken += other.checkpoints_taken;
  log_flushes += other.log_flushes;
  messages_lost_in_crash += other.messages_lost_in_crash;
  sync_log_writes += other.sync_log_writes;
  crashes += other.crashes;
  restarts += other.restarts;
  rollbacks += other.rollbacks;
  tokens_processed += other.tokens_processed;
  messages_replayed += other.messages_replayed;
  sends_suppressed_in_replay += other.sends_suppressed_in_replay;
  messages_requeued_after_rollback += other.messages_requeued_after_rollback;
  retransmissions += other.retransmissions;
  states_rolled_back += other.states_rolled_back;
  recovery_blocked_time += other.recovery_blocked_time;
  checkpoint_blocked_time += other.checkpoint_blocked_time;
  restart_latency.merge_from(other.restart_latency);
  rollback_depth.merge_from(other.rollback_depth);
  outputs_requested += other.outputs_requested;
  outputs_committed += other.outputs_committed;
  outputs_replay_suppressed += other.outputs_replay_suppressed;
  output_commit_latency.merge_from(other.output_commit_latency);
  gc_checkpoints_reclaimed += other.gc_checkpoints_reclaimed;
  gc_log_entries_reclaimed += other.gc_log_entries_reclaimed;
  gc_tokens_compacted += other.gc_tokens_compacted;
  gc_reclaimed_bytes += other.gc_reclaimed_bytes;
  gc_held_intervals += other.gc_held_intervals;
  for (const auto& [failure, per_process] : other.rollbacks_by_failure) {
    for (const auto& [pid, count] : per_process) {
      rollbacks_by_failure[failure][pid] += count;
    }
  }
}

std::string Metrics::summary() const {
  std::ostringstream os;
  os << "sent=" << app_messages_sent << " delivered=" << messages_delivered
     << " obsolete=" << messages_discarded_obsolete
     << " postponed=" << messages_postponed << " crashes=" << crashes
     << " rollbacks=" << rollbacks << " replayed=" << messages_replayed
     << " ckpts=" << checkpoints_taken
     << " piggyback/msg=" << piggyback_per_message();
  return os.str();
}

}  // namespace optrec
