// Fleet-scale stateful delta piggyback codec: the repo's one clock-delta
// codec.
//
// Sending only the FTVC entries that changed since the previous frame
// shrinks the piggyback toward the paper's single-timestamp ideal (§7), but
// a naive diff stream silently applies a diff to the wrong base after a
// single reordered or dropped frame. This codec makes the idea safe on a
// real transport by making every frame *self-describing about its base*:
//
//   * every stateful frame carries a per-stream sequence number `seq`;
//   * a delta frame names the exact base it was computed against
//     (`base_seq`) plus a 32-bit checksum of the base entries folded with
//     the sender epoch — a stale or aliased base can never be applied
//     silently, it fails the checksum and surfaces as DeltaResyncRequired;
//   * full frames carry the sender `epoch`; an epoch change hard-resets the
//     receiver stream, so a SIGKILL+respawn sender that reuses sequence
//     numbers (the known send-seq-reuse hazard) can at worst force a resync,
//     never corrupt a clock.
//
// Two operating modes:
//   * kFifo — for reliable in-order byte streams (one codec per TCP
//     connection session). The base is simply the previous frame on the
//     stream, giving the tightest diffs. Both sides reset their state when
//     the connection (session) is torn down, so frames staged into a dying
//     socket can never leave the encoder ahead of the decoder.
//   * kAcked — for unreliable channels (drops, dups, reorders). The encoder
//     only diffs against frames the receiver has explicitly acknowledged
//     (last-acked base + a bounded in-flight window), so any subset of
//     in-flight frames may be lost or reordered and every delivered frame
//     still decodes exactly.
//
// The unit of encoding is a whole message frame: all Message fields are
// serialized verbatim and only the clock field is delta-compressed, so
// `decode_from(encode_for(msg))` reproduces a Message whose stateless
// re-encoding is byte-identical to encode_message_frame(msg).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/clocks/ftvc.h"
#include "src/net/message.h"
#include "src/util/bytes.h"
#include "src/util/ids.h"
#include "src/util/serialization.h"

namespace optrec::scale {

/// Frame tag for delta message frames. Distinct from FrameType::kMessage
/// (1) and kToken (2); the TCP layer uses the tag byte to route a nested
/// frame to the delta decoder.
constexpr std::uint8_t kDeltaMessageTag = 4;

/// Base-advance discipline; see file comment.
enum class DeltaMode : std::uint8_t { kFifo = 0, kAcked = 1 };

/// Decode failure meaning "I cannot reconstruct this clock from my state":
/// missing base, checksum mismatch, or a delta before any full frame. The
/// caller resets/NAKs and the encoder falls back to a full frame. This is
/// the designed recovery path, not a protocol error.
class DeltaResyncRequired : public DecodeError {
 public:
  explicit DeltaResyncRequired(const std::string& what) : DecodeError(what) {}
};

/// Receipt the decoder hands back on every stateful decode; the transport
/// returns it to the encoder (kAcked mode) or ignores it (kFifo). seq == 0
/// means the frame was stateless (empty clock) and needs no ack.
struct DeltaAck {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
};

/// Byte accounting, updated by the encoder: what the delta frames cost vs
/// what the stateless flat frames they replace would have cost.
struct DeltaCodecStats {
  std::uint64_t frames = 0;       // stateful frames encoded
  std::uint64_t full_frames = 0;  // of which carried the full vector
  std::uint64_t delta_bytes = 0;  // bytes actually emitted
  std::uint64_t flat_bytes = 0;   // encode_message_frame() equivalent bytes
  std::uint64_t resets = 0;       // reset()/reset_all() calls
};

/// Checksum binding a delta frame to its base: FNV-1a of
/// (epoch, base_seq, base entries) folded to 32 bits.
std::uint32_t delta_base_checksum(std::uint64_t epoch, std::uint64_t base_seq,
                                  const std::vector<FtvcEntry>& entries);

/// Sender side: one independent stream per destination key. Keys are local
/// names (the TCP layer uses the source pid on a per-connection codec; the
/// simulated fleet uses the destination pid) — they never travel on the
/// wire, only (epoch, seq, base_seq) do.
class DeltaWireEncoder {
 public:
  DeltaWireEncoder(std::size_t streams, std::uint64_t epoch, DeltaMode mode,
                   std::size_t window = 32);

  /// Encode `msg` on stream `dst`. Emits a full frame when no safe base
  /// exists (first frame, after reset, window overrun, clock size change);
  /// a delta frame otherwise. Messages with an empty clock encode stateless.
  /// `flat_size_hint`, when nonzero, is the caller-known size of the
  /// stateless flat frame (saves re-encoding it just for the stats).
  Bytes encode_for(std::size_t dst, const Message& msg,
                   std::size_t flat_size_hint = 0);

  /// kAcked: the receiver acknowledged frame `seq` on stream `dst`; it
  /// becomes the new diff base. Stale or unknown seqs are ignored.
  void on_ack(std::size_t dst, std::uint64_t seq);

  /// Drop the base for one stream / all streams: the next frame is full.
  /// Called after a resync request, a rollback, or a connection loss.
  void reset(std::size_t dst);
  void reset_all();
  /// reset_all + adopt a new epoch (respawn: the decoder must be able to
  /// tell the incarnations apart even if seqs repeat).
  void rebirth(std::uint64_t new_epoch);

  std::uint64_t epoch() const { return epoch_; }
  DeltaMode mode() const { return mode_; }
  const DeltaCodecStats& stats() const { return stats_; }

 private:
  struct Stream {
    std::uint64_t next_seq = 1;
    bool have_base = false;
    std::uint64_t base_seq = 0;
    std::vector<FtvcEntry> base;
    /// kAcked: seq -> entry snapshot awaiting acknowledgement.
    std::map<std::uint64_t, std::vector<FtvcEntry>> in_flight;
  };

  std::vector<Stream> streams_;
  std::uint64_t epoch_;
  DeltaMode mode_;
  std::size_t window_;
  DeltaCodecStats stats_;
};

/// Receiver side: one independent stream per source key. Caches the last
/// `window` decoded entry vectors by seq so kAcked deltas can reference any
/// recently acknowledged base.
class DeltaWireDecoder {
 public:
  explicit DeltaWireDecoder(std::size_t streams, std::size_t window = 128);

  /// Reconstruct the Message of a delta frame from stream `src`. Fills
  /// `*ack` (may be null) with the receipt to return to the encoder.
  /// Throws DeltaResyncRequired when the named base is missing or fails its
  /// checksum (recoverable: caller NAKs, encoder goes full);
  /// DecodeError/TruncatedError on malformed bytes (not recoverable).
  Message decode_from(std::size_t src, const Bytes& wire,
                      DeltaAck* ack = nullptr);

  /// Drop cached state for one stream / all streams (sender incarnation or
  /// connection changed).
  void reset(std::size_t src);
  void reset_all();

 private:
  struct Stream {
    bool active = false;
    std::uint64_t epoch = 0;
    ProcessId owner = kNoProcess;
    std::map<std::uint64_t, std::vector<FtvcEntry>> cache;  // by seq
  };

  std::vector<Stream> streams_;
  std::size_t window_;
};

}  // namespace optrec::scale
