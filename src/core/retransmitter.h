// Remark-1 send history and retransmission (paper Section 6.5, item 1).
//
// Without this, messages received-but-unlogged by a crashed process vanish:
// the computation stays *consistent* but loses work (and, in value-carrying
// apps like BankApp, value). When enabled, a restarting process broadcasts
// its restored FTVC with its token; on that token, peers retransmit every
// message they sent to it that is not obsolete. Remark 1 would skip sends
// the restored clock dominates, but dominance does not imply receipt
// (DESIGN.md §3), so none is skipped: receivers deduplicate via (sender,
// sender-version, send-seq).
//
// The send history lives in volatile memory: it is rebuilt by the sender's
// own replay, and the messages it would lose in a crash are obsolete anyway.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "src/history/history.h"
#include "src/net/message.h"
#include "src/util/ids.h"

namespace optrec {

class Retransmitter {
 public:
  /// Record one outgoing application message (keyed by destination,
  /// sender-version, send-seq; replayed re-sends overwrite identically).
  void record(const Message& msg);

  /// Messages to resend to `failed`: every recorded send destined to it
  /// that is not obsolete under the caller's current history.
  std::vector<Message> collect_for(ProcessId failed,
                                   const History& history) const;

  /// Serialize the whole send history (for inclusion in checkpoints: the
  /// history must survive the sender's OWN crash, since replay only re-runs
  /// handlers after the restored checkpoint).
  Bytes snapshot() const;
  /// Replace contents from a snapshot; empty input clears.
  void restore(const Bytes& bytes);

  void clear() { sent_.clear(); }
  std::size_t size() const { return sent_.size(); }

 private:
  using Key = std::tuple<ProcessId, Version, std::uint64_t>;
  std::map<Key, Message> sent_;
};

}  // namespace optrec
