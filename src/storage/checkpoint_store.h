// Checkpoints and the per-process stable checkpoint store.
//
// A checkpoint captures everything needed to reconstruct a process state:
// serialized application state, the FTVC, the history, the count of messages
// delivered so far (the replay cursor into the message log), and the send
// sequence counter. Checkpoints live in simulated stable storage: they
// survive crashes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "src/clocks/ftvc.h"
#include "src/history/history.h"
#include "src/sim/time.h"
#include "src/util/bytes.h"
#include "src/util/ids.h"

namespace optrec {

class StableSink;

struct Checkpoint {
  Version version = 0;
  /// Global count of messages this process had delivered when the checkpoint
  /// was taken; doubles as the replay start index into the message log.
  std::uint64_t delivered_count = 0;
  std::uint64_t send_seq = 0;
  Ftvc clock;
  History history;
  Bytes app_state;
  /// Protocol-specific durable extras (e.g. the DG retransmitter's send
  /// history when Remark-1 retransmission is enabled). Empty otherwise.
  Bytes extra;
  /// The duplicate filter's keys of every delivery from a fleet process up
  /// to delivered_count (ProcessBase::delivered_keys_snapshot). Recorded
  /// when GC may reclaim the log prefix the keys would otherwise be rebuilt
  /// from; empty otherwise.
  Bytes delivered_keys;
  SimTime taken_at = 0;

  void encode(Writer& w) const;
  static Checkpoint decode(Reader& r);
  std::size_t byte_size() const;
};

class CheckpointStore {
 public:
  /// Append a new checkpoint (they are taken in causal order, so the store
  /// is ordered by delivered_count within a version).
  void append(Checkpoint checkpoint);

  bool empty() const { return checkpoints_.empty(); }
  std::size_t count() const { return checkpoints_.size(); }

  const Checkpoint& latest() const { return checkpoints_.back(); }

  /// Index (into the current window) of the newest checkpoint satisfying
  /// `pred`, scanning from the newest backwards; nullopt if none does.
  /// Used by rollback: find the maximum checkpoint consistent with a token.
  std::optional<std::size_t> latest_matching(
      const std::function<bool(const Checkpoint&)>& pred) const;

  const Checkpoint& at(std::size_t idx) const { return checkpoints_.at(idx); }

  /// Rollback: discard checkpoints after index `idx` ("discard the
  /// checkpoints that follow", Fig. 4).
  void truncate_after(std::size_t idx);

  /// Garbage collection: drop checkpoints strictly older than the first one
  /// whose delivered_count >= `stable_delivered`, keeping at least one.
  /// Returns the number reclaimed.
  std::size_t reclaim_before_delivered(std::uint64_t stable_delivered);

  std::uint64_t total_appended() const { return total_appended_; }
  std::size_t stable_bytes() const { return stable_bytes_; }

  /// Mirror mutations to a persistence backend (nullptr detaches).
  void attach_sink(StableSink* sink) { sink_ = sink; }

  /// Recovery: load checkpoints recovered from a durable backend. Only valid
  /// on an empty store. `total_appended` restores the lifetime counter so
  /// durable sequence numbers keep advancing across incarnations.
  void restore(std::deque<Checkpoint> checkpoints, std::uint64_t total_appended);

 private:
  std::deque<Checkpoint> checkpoints_;
  std::deque<std::size_t> byte_sizes_;  // parallel to checkpoints_
  std::uint64_t total_appended_ = 0;
  std::size_t stable_bytes_ = 0;
  StableSink* sink_ = nullptr;
};

}  // namespace optrec
