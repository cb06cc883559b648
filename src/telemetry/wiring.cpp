#include "src/telemetry/wiring.h"

#include <string>

namespace optrec::telemetry {

namespace {

Labels pid_labels(ProcessId pid) { return {{"pid", std::to_string(pid)}}; }

}  // namespace

ProcessGauges::ProcessGauges(MetricsRegistry& r, ProcessId pid)
    : sent_(r.counter("optrec_app_messages_sent_total",
                      "Application messages sent", pid_labels(pid))),
      delivered_(r.counter("optrec_messages_delivered_total",
                           "Messages delivered to the app", pid_labels(pid))),
      orphaned_(r.counter("optrec_messages_orphaned_total",
                          "Messages discarded by the Lemma-4 obsolete filter",
                          pid_labels(pid))),
      duplicates_(r.counter("optrec_messages_duplicate_total",
                            "Messages discarded as duplicates",
                            pid_labels(pid))),
      postponed_(r.counter("optrec_messages_postponed_total",
                           "Deliveries held for a predecessor token",
                           pid_labels(pid))),
      rollbacks_(r.counter("optrec_rollbacks_total",
                           "Rollbacks performed", pid_labels(pid))),
      states_rolled_back_(r.counter("optrec_states_rolled_back_total",
                                    "Delivered states undone by rollbacks",
                                    pid_labels(pid))),
      checkpoints_(r.counter("optrec_checkpoints_total",
                             "Checkpoints written", pid_labels(pid))),
      log_flushes_(r.counter("optrec_log_flushes_total",
                             "Receiver-log flushes", pid_labels(pid))),
      crashes_(r.counter("optrec_crashes_total", "Failures suffered",
                         pid_labels(pid))),
      restarts_(r.counter("optrec_restarts_total", "Restarts completed",
                          pid_labels(pid))),
      tokens_processed_(r.counter("optrec_tokens_processed_total",
                                  "Failure/rollback tokens processed",
                                  pid_labels(pid))),
      replayed_(r.counter("optrec_messages_replayed_total",
                          "Messages replayed from the stable log",
                          pid_labels(pid))),
      retransmissions_(r.counter("optrec_retransmissions_total",
                                 "Remark-1 retransmissions sent",
                                 pid_labels(pid))),
      piggyback_bytes_(r.counter("optrec_piggyback_bytes_total",
                                 "Wire bytes of piggybacked protocol headers",
                                 pid_labels(pid))),
      gc_reclaimed_intervals_(
          r.counter("optrec_gc_reclaimed_intervals_total",
                    "Stable-log state intervals reclaimed by Remark-2 GC",
                    pid_labels(pid))),
      up_(r.gauge("optrec_process_up", "1 while the process is computing",
                  pid_labels(pid))) {}

void ProcessGauges::update(const Metrics& m) {
  sent_.store(m.app_messages_sent);
  delivered_.store(m.messages_delivered);
  orphaned_.store(m.messages_discarded_obsolete);
  duplicates_.store(m.messages_discarded_duplicate);
  postponed_.store(m.messages_postponed);
  rollbacks_.store(m.rollbacks);
  states_rolled_back_.store(m.states_rolled_back);
  checkpoints_.store(m.checkpoints_taken);
  log_flushes_.store(m.log_flushes);
  crashes_.store(m.crashes);
  restarts_.store(m.restarts);
  tokens_processed_.store(m.tokens_processed);
  replayed_.store(m.messages_replayed);
  retransmissions_.store(m.retransmissions);
  piggyback_bytes_.store(m.piggyback_bytes);
  gc_reclaimed_intervals_.store(m.gc_log_entries_reclaimed);
}

void ProcessGauges::set_up(bool up) { up_.set(up ? 1 : 0); }

void register_network_stats(MetricsRegistry& registry,
                            std::function<Network::Stats()> snap) {
  registry.add_collector([snap = std::move(snap)](std::vector<Sample>& out) {
    const Network::Stats s = snap();
    for (const auto& [name, field] : Network::Stats::kFields) {
      out.push_back(scalar_sample(std::string("optrec_net_") + name + "_total",
                                  SampleKind::kCounter, s.*field));
    }
  });
}

}  // namespace optrec::telemetry
