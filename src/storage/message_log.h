// Receiver-side message log (paper Section 3).
//
// Delivered messages are appended to a volatile tail and flushed to the
// stable prefix asynchronously (optimistic logging) or immediately
// (pessimistic baselines). A crash discards the volatile tail — that is the
// *only* source of information loss in the whole system, and it is what
// creates lost states and orphans.
//
// Entries are addressed by a global delivery index that never restarts:
// checkpoint.delivered_count is a cursor into this log.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "src/net/message.h"

namespace optrec {

class StableSink;

class MessageLog {
 public:
  /// Append a delivered message to the volatile tail.
  void append(Message msg);

  /// Flush the volatile tail to stable storage (paper: "asynchronously logs
  /// ... at infrequent intervals"; also forced at checkpoint time and before
  /// a rollback).
  void flush();

  /// Crash: the volatile tail is lost. Returns how many entries were lost.
  std::size_t on_crash();

  /// Total entries ever appended and still addressable (reclaimed prefix
  /// included in the numbering, excluded from access).
  std::uint64_t total_count() const { return base_ + entries_.size(); }
  /// Entries safely on stable storage (global index bound).
  std::uint64_t stable_count() const { return stable_; }
  std::uint64_t volatile_count() const { return total_count() - stable_; }

  /// Access entry by global index (must be >= reclaimed base, < total).
  const Message& entry(std::uint64_t index) const;

  /// Rollback support: copy out entries [from, total) ...
  std::vector<Message> suffix_from(std::uint64_t from) const;
  /// ... and discard them ("discard the logged messages that follow").
  void truncate_from(std::uint64_t from);

  /// Garbage collection: drop entries with index < `before` (they precede
  /// the global recovery line and can never be replayed again). Returns the
  /// number reclaimed.
  std::size_t reclaim_before(std::uint64_t before);
  std::uint64_t base() const { return base_; }

  std::uint64_t flush_count() const { return flushes_; }
  /// Wire bytes of the entries currently in the stable prefix: flush and
  /// restore add, reclaim and truncation subtract.
  std::size_t stable_bytes() const { return stable_bytes_; }

  /// Mirror every stability-relevant mutation to a persistence backend
  /// (nullptr detaches). Restore-time loading does not echo to the sink.
  void attach_sink(StableSink* sink) { sink_ = sink; }

  /// Recovery: load the stable prefix recovered from a durable backend.
  /// `base` is the global index of `entries.front()` (reclaimed prefix
  /// excluded); everything loaded is stable by construction. Only valid on
  /// an empty log.
  void restore(std::vector<Message> entries, std::uint64_t base);

 private:
  std::deque<Message> entries_;  // [base_, base_+size) global indices
  std::uint64_t base_ = 0;       // global index of entries_[0]
  std::uint64_t stable_ = 0;     // global index bound of the stable prefix
  std::uint64_t flushes_ = 0;
  std::size_t stable_bytes_ = 0;
  StableSink* sink_ = nullptr;
};

}  // namespace optrec
