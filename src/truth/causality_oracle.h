// Ground-truth causality oracle.
//
// The simulator (not the protocol) records every state transition, message
// send/delivery, crash, and rollback into an explicit happened-before graph.
// Property tests then check the protocol's *distributed* decisions — which
// messages it discarded as obsolete, which states it rolled back as orphans,
// what FTVC comparisons claim — against this *omniscient* graph, using the
// paper's own definitions of lost, orphan, obsolete, and useful (Section 5).
//
// State granularity: one state per handler execution (delivery of one
// message, including all sends it performs). Crashes happen between
// handlers, so lost/orphan boundaries align exactly with states.
//
// The oracle is deliberately outside the failure model: it is never wiped by
// a crash, and protocols must never read it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/util/ids.h"

namespace optrec {

/// Thread-safety contract: the run-time mutators (state creation, record_*,
/// mark_*, set_frontier) take an internal lock so live-runtime workers can
/// share one oracle. The query side is NOT synchronized — it is meant for
/// post-run validation, after the simulator quiesces or the live workers are
/// joined.
class CausalityOracle {
 public:
  /// Create the initial state of a process (before any delivery).
  StateId initial_state(ProcessId pid);

  /// Create the state reached by delivering a message: edges from the
  /// process's previous state and from the sender state of the message.
  StateId delivery_state(ProcessId pid, StateId prev, StateId sender_state);

  /// Create the state reached after restart/rollback recovery actions: edge
  /// from the restored state only (paper happened-before rule 2).
  StateId recovery_state(ProcessId pid, StateId restored);

  /// Record message metadata at send time (sender_state = state whose
  /// handler performed the send).
  void record_send(MsgId msg, StateId sender_state);
  void record_delivery(MsgId msg, StateId receiver_state);
  void record_discard(MsgId msg);

  /// Failure bookkeeping: the given states were wiped by a crash (they are
  /// *lost*, paper Section 5).
  void mark_lost(const std::vector<StateId>& states);
  /// The given states were undone by a protocol rollback.
  void mark_rolled_back(const std::vector<StateId>& states);

  /// An output produced by state `s` was committed to the environment
  /// (paper Remark 2): `s` must never turn out lost, orphan or rolled back.
  void record_output_commit(StateId s);
  const std::set<StateId>& output_states() const { return output_states_; }

  /// Update the surviving frontier of a process (its newest live state).
  void set_frontier(ProcessId pid, StateId s);
  StateId frontier(ProcessId pid) const;

  // --- Paper-definition queries (computed on the graph, no protocol state).

  bool happens_before(StateId a, StateId b) const;
  bool is_lost(StateId s) const { return lost_.count(s) > 0; }
  /// orphan(s): s is not lost and depends on some lost state (Section 5;
  /// equivalent to the paper's formulation, see DESIGN.md).
  bool is_orphan(StateId s) const;
  bool is_useful(StateId s) const { return !is_lost(s) && !is_orphan(s); }
  bool was_rolled_back(StateId s) const { return rolled_back_.count(s) > 0; }
  const std::unordered_set<StateId>& lost_states() const { return lost_; }
  const std::unordered_set<StateId>& rolled_back_states() const {
    return rolled_back_;
  }

  /// obsolete(m): sender state lost or orphan.
  bool is_message_obsolete(MsgId msg) const;
  std::optional<StateId> sender_state(MsgId msg) const;

  struct MessageFate {
    StateId sender_state = 0;
    bool delivered = false;  // delivered at least once and never undone?
    bool discarded = false;
    std::vector<StateId> receiver_states;
  };
  const std::unordered_map<MsgId, MessageFate>& messages() const {
    return messages_;
  }

  /// All states of a process in creation order.
  const std::vector<StateId>& states_of(ProcessId pid) const;
  ProcessId process_of(StateId s) const;
  /// Position of s within states_of(process_of(s)).
  std::size_t index_of(StateId s) const;
  /// Direct happened-before predecessors of s.
  const std::vector<StateId>& deps(StateId s) const { return in_edges_.at(s); }
  std::size_t state_count() const { return process_of_.size(); }
  std::size_t process_count() const { return per_process_.size(); }

  /// Check the global surviving frontier for consistency: no frontier state
  /// may be lost or orphan, and no committed output may come from a state
  /// that is lost, orphan or rolled back. Returns human-readable violations
  /// (empty == OK).
  std::vector<std::string> check_consistency() const;

  /// Recompute and cache the orphan set (forward closure of lost states).
  /// Queries call this lazily; invalidated by any mutation.
  void refresh() const;

 private:
  StateId new_state(ProcessId pid);

  /// Guards all mutation; public mutators lock it, queries do not (see the
  /// class comment for the contract).
  std::mutex mu_;
  std::vector<std::vector<StateId>> per_process_;
  std::vector<ProcessId> process_of_;          // indexed by StateId
  std::vector<std::size_t> index_of_;          // position within its process
  std::vector<std::vector<StateId>> out_edges_;  // forward adjacency
  std::vector<std::vector<StateId>> in_edges_;   // backward adjacency
  std::unordered_set<StateId> lost_;
  std::unordered_set<StateId> rolled_back_;
  std::vector<StateId> frontier_;
  std::unordered_map<MsgId, MessageFate> messages_;
  std::set<StateId> output_states_;  // producers of committed outputs

  mutable bool orphans_valid_ = false;
  mutable std::unordered_set<StateId> orphans_;
};

}  // namespace optrec
