#include "src/truth/causality_oracle.h"

#include <deque>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace optrec {

StateId CausalityOracle::new_state(ProcessId pid) {
  const StateId id = process_of_.size();
  process_of_.push_back(pid);
  out_edges_.emplace_back();
  in_edges_.emplace_back();
  if (pid >= per_process_.size()) {
    per_process_.resize(pid + 1);
    frontier_.resize(pid + 1, 0);
  }
  index_of_.push_back(per_process_[pid].size());
  per_process_[pid].push_back(id);
  orphans_valid_ = false;
  return id;
}

StateId CausalityOracle::initial_state(ProcessId pid) {
  std::lock_guard<std::mutex> lock(mu_);
  const StateId s = new_state(pid);
  frontier_.at(pid) = s;
  return s;
}

StateId CausalityOracle::delivery_state(ProcessId pid, StateId prev,
                                        StateId sender_state) {
  std::lock_guard<std::mutex> lock(mu_);
  const StateId s = new_state(pid);
  out_edges_.at(prev).push_back(s);
  in_edges_.at(s).push_back(prev);
  out_edges_.at(sender_state).push_back(s);
  in_edges_.at(s).push_back(sender_state);
  frontier_.at(pid) = s;
  return s;
}

StateId CausalityOracle::recovery_state(ProcessId pid, StateId restored) {
  std::lock_guard<std::mutex> lock(mu_);
  const StateId s = new_state(pid);
  out_edges_.at(restored).push_back(s);
  in_edges_.at(s).push_back(restored);
  frontier_.at(pid) = s;
  return s;
}

void CausalityOracle::record_send(MsgId msg, StateId sender_state) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& fate = messages_[msg];
  fate.sender_state = sender_state;
}

void CausalityOracle::record_delivery(MsgId msg, StateId receiver_state) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& fate = messages_[msg];
  fate.delivered = true;
  fate.receiver_states.push_back(receiver_state);
}

void CausalityOracle::record_discard(MsgId msg) {
  std::lock_guard<std::mutex> lock(mu_);
  messages_[msg].discarded = true;
}

void CausalityOracle::mark_lost(const std::vector<StateId>& states) {
  std::lock_guard<std::mutex> lock(mu_);
  for (StateId s : states) lost_.insert(s);
  orphans_valid_ = false;
}

void CausalityOracle::mark_rolled_back(const std::vector<StateId>& states) {
  std::lock_guard<std::mutex> lock(mu_);
  for (StateId s : states) rolled_back_.insert(s);
}

void CausalityOracle::record_output_commit(StateId s) {
  std::lock_guard<std::mutex> lock(mu_);
  output_states_.insert(s);
}

void CausalityOracle::set_frontier(ProcessId pid, StateId s) {
  std::lock_guard<std::mutex> lock(mu_);
  frontier_.at(pid) = s;
}

StateId CausalityOracle::frontier(ProcessId pid) const {
  return frontier_.at(pid);
}

bool CausalityOracle::happens_before(StateId a, StateId b) const {
  if (a == b) return false;
  std::deque<StateId> queue{a};
  std::unordered_set<StateId> seen{a};
  while (!queue.empty()) {
    const StateId cur = queue.front();
    queue.pop_front();
    for (StateId next : out_edges_.at(cur)) {
      if (next == b) return true;
      if (seen.insert(next).second) queue.push_back(next);
    }
  }
  return false;
}

void CausalityOracle::refresh() const {
  if (orphans_valid_) return;
  orphans_.clear();
  std::deque<StateId> queue(lost_.begin(), lost_.end());
  std::unordered_set<StateId> seen(lost_.begin(), lost_.end());
  while (!queue.empty()) {
    const StateId cur = queue.front();
    queue.pop_front();
    for (StateId next : out_edges_.at(cur)) {
      if (seen.insert(next).second) {
        if (lost_.count(next) == 0) orphans_.insert(next);
        queue.push_back(next);
      }
    }
  }
  // orphans_ now holds the non-lost forward closure of the lost set: states
  // reached through a lost or orphan ancestor. Lost states themselves are
  // excluded (they are "lost", never "orphan").
  orphans_valid_ = true;
}

bool CausalityOracle::is_orphan(StateId s) const {
  if (lost_.count(s) > 0) return false;
  refresh();
  return orphans_.count(s) > 0;
}

bool CausalityOracle::is_message_obsolete(MsgId msg) const {
  auto it = messages_.find(msg);
  if (it == messages_.end()) {
    throw std::invalid_argument("oracle: unknown message");
  }
  const StateId s = it->second.sender_state;
  return is_lost(s) || is_orphan(s);
}

std::optional<StateId> CausalityOracle::sender_state(MsgId msg) const {
  auto it = messages_.find(msg);
  if (it == messages_.end()) return std::nullopt;
  return it->second.sender_state;
}

const std::vector<StateId>& CausalityOracle::states_of(ProcessId pid) const {
  return per_process_.at(pid);
}

ProcessId CausalityOracle::process_of(StateId s) const {
  return process_of_.at(s);
}

std::size_t CausalityOracle::index_of(StateId s) const {
  return index_of_.at(s);
}

std::vector<std::string> CausalityOracle::check_consistency() const {
  std::vector<std::string> violations;
  refresh();
  for (ProcessId pid = 0; pid < frontier_.size(); ++pid) {
    if (per_process_[pid].empty()) continue;
    const StateId f = frontier_[pid];
    if (is_lost(f)) {
      std::ostringstream os;
      os << "frontier of P" << pid << " (state " << f << ") is lost";
      violations.push_back(os.str());
    }
    if (is_orphan(f)) {
      std::ostringstream os;
      os << "frontier of P" << pid << " (state " << f
         << ") is an orphan: it depends on a lost state";
      violations.push_back(os.str());
    }
  }
  for (const StateId s : output_states_) {
    const char* fate = is_lost(s)           ? "lost"
                       : is_orphan(s)       ? "an orphan"
                       : was_rolled_back(s) ? "rolled back"
                                            : nullptr;
    if (fate == nullptr) continue;
    std::ostringstream os;
    os << "P" << process_of(s) << " committed an output from state " << s
       << ", which is " << fate;
    violations.push_back(os.str());
  }
  return violations;
}

}  // namespace optrec
