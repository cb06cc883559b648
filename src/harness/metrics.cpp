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
  add_counters(*this, other);
  restart_latency.merge_from(other.restart_latency);
  rollback_depth.merge_from(other.rollback_depth);
  output_commit_latency.merge_from(other.output_commit_latency);
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
