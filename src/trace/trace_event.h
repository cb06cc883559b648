// Typed protocol event records: the unit of the observability layer.
//
// One TraceEvent is emitted at every protocol-relevant transition — sends,
// deliveries, filters, failures, recovery actions, storage activity — each
// stamped with the simulated time, the acting process, and that process's
// current FTVC self entry (version, timestamp). A recorded run is a complete
// causal story: the sinks (src/trace/trace_sink.h) render it as JSONL,
// Chrome trace-event JSON (Perfetto), or a Graphviz space-time diagram, and
// the TraceAuditor (src/trace/trace_auditor.h) replays it to independently
// verify the paper's correctness claims.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/clocks/ftvc.h"
#include "src/net/message.h"
#include "src/sim/time.h"
#include "src/util/ids.h"

namespace optrec {

enum class TraceEventType : std::uint8_t {
  kSend = 0,             // message accepted by the network
  kDeliver,              // fresh delivery to the app
  kReplay,               // redelivery from the stable log during recovery
  kPostpone,             // held awaiting a predecessor token (Section 6.1)
  kDiscardObsolete,      // dropped by the Lemma-4 obsolete filter
  kDiscardDuplicate,     // dropped by the duplicate filter
  kCrash,                // failure injection wiped volatile state
  kRestart,              // restart processing finished; process is up
  kRollback,             // surviving process undid orphan states
  kTokenBroadcast,       // failure/rollback announcement entered the network
  kTokenProcess,         // a process synchronously logged + acted on a token
  kCheckpoint,           // checkpoint written to stable storage
  kLogFlush,             // volatile message-log tail flushed
  kOutputCommit,         // an external output became irrevocable
  kGc,                   // storage garbage collection reclaimed entries
};

/// Stable wire name ("send", "deliver", ...), used by every sink.
const char* trace_event_type_name(TraceEventType type);
/// Inverse of trace_event_type_name; throws on unknown names.
TraceEventType trace_event_type_from_name(const std::string& name);

/// "No node" marker for TraceEvent::node (single-address-space runs).
inline constexpr std::uint32_t kNoTraceNode = 0xffffffffu;

/// One recorded event. Field semantics vary slightly by type; the unused
/// fields of a type keep their defaults (and are omitted by the JSONL sink):
///
///   kSend            pid=sender  peer=dst   msg_id/send_seq/msg_version set,
///                    mclock = piggybacked FTVC, detail bit0 = control
///                    message, bit1 = retransmission
///   kDeliver/kReplay pid=receiver peer=src  count = delivered_total after
///                    the delivery, mclock = message FTVC
///   kPostpone        pid=receiver peer=src  origin/origin_ver = the awaited
///                    (process, version) token
///   kDiscard*        pid=receiver peer=src
///   kCrash           count = recoverable deliveries (stable-log prefix);
///                    detail = deliveries lost with volatile state
///   kRestart         count = delivered_total after replay
///   kRollback        peer = announcer of the triggering token, ref = the
///                    announced (failed version, restored ts),
///                    origin/origin_ver = originating failure attribution,
///                    count = surviving delivered_total, detail = states
///                    undone
///   kTokenBroadcast  pid=announcer, ref = announced entry,
///                    origin/origin_ver = originating failure
///   kTokenProcess    pid=receiver peer=token.from ref=token.failed,
///                    origin/origin_ver = originating failure
///   kCheckpoint      count = delivered_total covered by the checkpoint
///   kLogFlush        count = entries made stable by this flush
///   kOutputCommit    count = outputs committed by this event,
///                    detail = commit latency (us) of the oldest
///   kGc              count = checkpoints reclaimed, detail = log entries
///                    reclaimed
struct TraceEvent {
  std::uint64_t seq = 0;  // total order, assigned by the recorder
  SimTime at = 0;
  TraceEventType type = TraceEventType::kSend;
  ProcessId pid = kNoProcess;     // acting process
  FtvcEntry clock{};              // actor's own (version, timestamp)

  /// Recording TCP node (kNoTraceNode for simulator/live runs) and the
  /// CLOCK_REALTIME microsecond instant of the event. Together they make
  /// per-node JSONL files mergeable: multi-node runs no longer collide on
  /// per-process ids alone, and optrec_trace_merge rebases every file onto
  /// one wall-clock axis. Both are stamped by the recorder (set_origin) and
  /// excluded from trace_digest — wall time is nondeterministic.
  std::uint32_t node = kNoTraceNode;
  std::uint64_t wall_us = 0;

  ProcessId peer = kNoProcess;    // counterparty (see table above)
  MsgId msg_id = 0;
  std::uint64_t send_seq = 0;
  Version msg_version = 0;        // sender incarnation stamped on the message

  FtvcEntry ref{};                // referenced (version, timestamp) entry
  ProcessId origin = kNoProcess;  // failure attribution / awaited process
  Version origin_ver = 0;

  std::uint64_t count = 0;
  std::uint64_t detail = 0;

  /// Full piggybacked message clock for send/deliver/replay/postpone/discard
  /// events (empty when the protocol does not piggyback an FTVC).
  std::vector<FtvcEntry> mclock;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;

  std::string describe() const;
};

// kSend detail bits.
inline constexpr std::uint64_t kTraceSendControl = 1;
inline constexpr std::uint64_t kTraceSendRetransmission = 2;

/// The kSend event every transport records for an accepted send at `at`.
TraceEvent send_event(SimTime at, const Message& msg);
/// The kTokenBroadcast event every transport records for a failure
/// announcement, attributed to the failure that originated it.
TraceEvent token_broadcast_event(SimTime at, const Token& token);

/// Order-sensitive 64-bit digest over every field of every event. Two runs
/// with equal digests executed the same causal story; the determinism
/// regression and the exploration engine's repro artifacts both key off it.
std::uint64_t trace_digest(const std::vector<TraceEvent>& events);

/// In-memory event collector. One recorder per run; every process and the
/// network hold a non-owning pointer (null when tracing is disabled, which
/// keeps the hot path allocation- and branch-cheap: a single pointer test).
///
/// emit() is thread-safe so the worker threads of a fleet can share one
/// recorder; the seq stamped under the lock gives the total order the
/// auditor replays. The read accessors are NOT synchronized — call them only
/// after the run (single-threaded simulator, or post-join on the live
/// runtime).
class TraceRecorder {
 public:
  /// Stamp events with the recording node's identity and its wall-clock
  /// origin (CLOCK_REALTIME micros at runtime-clock zero), so every event
  /// carries a mergeable absolute timestamp. Call before the run starts.
  void set_origin(std::uint32_t node, std::uint64_t wall0_us) {
    node_ = node;
    wall0_us_ = wall0_us;
  }

  /// Stamp the total-order sequence number and store the event.
  void emit(TraceEvent e) {
    std::lock_guard<std::mutex> lock(mu_);
    e.seq = events_.size();
    if (e.node == kNoTraceNode) e.node = node_;
    if (e.wall_us == 0 && wall0_us_ != 0) e.wall_us = wall0_us_ + e.at;
    events_.push_back(std::move(e));
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }
  std::vector<TraceEvent> take() { return std::move(events_); }

 private:
  std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::uint32_t node_ = kNoTraceNode;
  std::uint64_t wall0_us_ = 0;
};

}  // namespace optrec
