// Node-to-node stream protocol for the TCP transport.
//
// A connection carries length-delimited envelopes: [len u32-LE][body],
// where the body is a varint-encoded record tagged with an EnvelopeKind.
// Application traffic (kWire) nests one message frame — the connection's
// delta codec output (src/scale/delta_codec.h) or the flat src/wire/
// wire_codec frame the in-process backends use — and the TCP layer adds
// only addressing (source node/pid, destination pid) plus the
// injected-delay and latency timestamps. A failure token travels in one
// kToken envelope per remote node, re-sent until that node's kTokenAck.
//
// The codec is hardened the same way decode_frame is: every decode failure
// is a FrameError (never UB, never an assert), the length prefix is checked
// against kMaxEnvelopeBytes before any buffering, and EnvelopeReader
// consumes arbitrary byte streams incrementally, so a hostile or corrupt
// peer can at worst get its connection dropped.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "src/harness/metrics.h"
#include "src/util/bytes.h"
#include "src/wire/wire_codec.h"

namespace optrec {

enum class EnvelopeKind : std::uint8_t {
  kHello = 1,        // first envelope on every connection: who is calling
  kWire = 2,         // one message frame
  kStatus = 3,       // node -> coordinator quiescence report
  kShutdown = 4,     // coordinator -> node: stop with exit_code
  kShutdownAck = 5,  // node -> coordinator: shutdown order received
  kToken = 6,        // one failure token, re-sent until acked
  kTokenAck = 7,     // receiver -> token sender: kToken received
};

struct NodeStatsBlock;

/// One NodeStatsBlock field: its /cluster key and, for the protocol
/// counters, the exported Metrics row it sums over the node's processes.
struct NodeStatsField {
  const char* key;
  std::uint64_t NodeStatsBlock::*member;
  std::uint64_t Metrics::*metric = nullptr;
};

/// Protocol/transport counters piggybacked on the status gossip, so the
/// coordinator can render a live cluster table (`optrec_node --stats`, the
/// /cluster telemetry route) without scraping every node itself. Sums over
/// the node's local processes; latencies are histogram quantiles.
struct NodeStatsBlock {
  std::uint64_t app_sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t orphaned = 0;   // obsolete-filter discards
  std::uint64_t rollbacks = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t tokens = 0;     // tokens processed
  std::uint64_t replayed = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t bytes_tx = 0;   // socket bytes written
  std::uint64_t latency_p50_us = 0;
  std::uint64_t latency_p99_us = 0;

  /// Every field in wire order (src/util/counter_fields.h style).
  static constexpr std::array<NodeStatsField, 12> kFields{{
      {"app_sent", &NodeStatsBlock::app_sent, &Metrics::app_messages_sent},
      {"delivered", &NodeStatsBlock::delivered, &Metrics::messages_delivered},
      {"orphaned", &NodeStatsBlock::orphaned,
       &Metrics::messages_discarded_obsolete},
      {"rollbacks", &NodeStatsBlock::rollbacks, &Metrics::rollbacks},
      {"crashes", &NodeStatsBlock::crashes, &Metrics::crashes},
      {"restarts", &NodeStatsBlock::restarts, &Metrics::restarts},
      {"tokens", &NodeStatsBlock::tokens, &Metrics::tokens_processed},
      {"replayed", &NodeStatsBlock::replayed, &Metrics::messages_replayed},
      {"checkpoints", &NodeStatsBlock::checkpoints,
       &Metrics::checkpoints_taken},
      {"bytes_tx", &NodeStatsBlock::bytes_tx},
      {"latency_p50_us", &NodeStatsBlock::latency_p50_us},
      {"latency_p99_us", &NodeStatsBlock::latency_p99_us},
  }};
};

/// One node's quiescence report, sent to the coordinator every status tick.
/// `quiet` folds every local condition (workers up, nothing pending, no
/// local frames in flight, outbound queues drained, no unacked tokens);
/// `signature` is the node's progress signature, so the coordinator can
/// require cluster-wide stability on top of everyone claiming quiet.
struct NodeStatusReport {
  std::uint32_t node = 0;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  bool quiet = false;
  std::uint64_t signature = 0;
  NodeStatsBlock stats;
};

struct Envelope {
  EnvelopeKind kind = EnvelopeKind::kWire;
  /// Sender node, on every kind (kShutdown uses the coordinator's id).
  std::uint32_t src_node = 0;

  // kHello (kTokenAck echoes the token sender's epoch)
  std::uint64_t epoch = 0;  // sender incarnation (wall micros at node start)
  std::string cluster;      // topology name; mismatch = config error

  // kWire
  std::uint32_t src_pid = 0;
  std::uint32_t dst_pid = 0;
  bool app = false;
  /// CLOCK_REALTIME micros at send, for cross-node latency accounting.
  std::uint64_t sent_unix_us = 0;
  /// Injected delivery delay, applied at the receiver on top of the real
  /// network latency.
  std::uint64_t delay_us = 0;
  Bytes wire;  // the nested frame

  // kToken (reuses src_pid = failed process, wire = the nested token
  // frame) and kTokenAck.
  /// Sender-unique broadcast seq; the receiver dedupes on it under the
  /// connection's hello epoch, and kTokenAck echoes both.
  std::uint64_t token_seq = 0;

  // kStatus
  NodeStatusReport status;

  // kShutdown
  std::uint8_t exit_code = 0;
};

/// Ceiling on one envelope body: a max-size wire frame plus headers. The
/// length prefix is validated against this before a reader buffers
/// anything.
constexpr std::size_t kMaxEnvelopeBytes = kMaxFrameBytes + 256;

/// Body only (no length prefix).
Bytes encode_envelope(const Envelope& e);
/// Throws FrameError on malformed bodies (unknown kind, truncation,
/// trailing bytes, nested frame oversize).
Envelope decode_envelope(const Bytes& body);

/// Full stream image: [len u32-LE][body]. Throws FrameError(kOversized) if
/// the body exceeds kMaxEnvelopeBytes (cannot happen for envelopes built
/// from checked wire frames).
Bytes frame_envelope(const Envelope& e);

/// Zero-copy split encoding for kWire envelopes. The nested wire frame is
/// the LAST field of the body, so the stream image factors into a small
/// per-destination prefix — [len u32-LE][body fields][wire-length varint]
/// — followed by the raw wire bytes verbatim. This returns the prefix for
/// an envelope whose nested frame is `wire_size` bytes long; the sender
/// emits the shared wire buffer right after it, and the receiver sees a
/// stream byte-identical to frame_envelope. `e.wire` is ignored. Throws
/// FrameError(kOversized) if the total body would exceed kMaxEnvelopeBytes.
Bytes frame_wire_envelope_prefix(const Envelope& e, std::size_t wire_size);

/// Incremental de-framer for one TCP stream. feed() raw socket bytes, then
/// drain next() until it returns nullopt. next() throws
/// FrameError(kOversized) as soon as a length prefix exceeds the cap —
/// before buffering the body — so a hostile peer cannot balloon memory.
class EnvelopeReader {
 public:
  void feed(const std::uint8_t* data, std::size_t len);
  /// Next complete envelope body, or nullopt when more bytes are needed.
  std::optional<Bytes> next();
  /// Bytes buffered but not yet returned (diagnostics).
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  Bytes buf_;
  std::size_t pos_ = 0;
};

}  // namespace optrec
