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
// Streams are FIFO: one codec pair per reliable in-order byte stream (a TCP
// connection session), and the base is the stream's last stateful frame.
// Both sides reset their state when the connection (session) is torn down,
// so frames staged into a dying socket can never leave the encoder ahead of
// the decoder. Under drops, duplicates or reorders a frame either decodes
// exactly or throws DeltaResyncRequired; it never yields a wrong clock.
//
// The encoder never costs more than the stateless frame it replaces,
// except for one full frame per stream: whenever a delta would not be
// smaller, it emits the flat encode_message_frame() image instead. Flat
// frames leave the stream base untouched, so the next delta still decodes
// against the last stateful frame. Messages with an empty clock always go
// flat.
//
// The unit of encoding is a whole message frame: all Message fields are
// serialized verbatim and only the clock field is delta-compressed, so
// `decode_from(encode_for(msg))` reproduces a Message whose stateless
// re-encoding is byte-identical to encode_message_frame(msg).
#pragma once

#include <cstdint>
#include <vector>

#include "src/clocks/ftvc.h"
#include "src/net/message.h"
#include "src/util/bytes.h"
#include "src/util/ids.h"
#include "src/util/serialization.h"

namespace optrec::scale {

/// Frame tag for delta message frames. Distinct from FrameType::kMessage
/// (1) and kToken (2), so a stateful frame and a flat fallback frame can
/// share one stream.
constexpr std::uint8_t kDeltaMessageTag = 4;

/// Decode failure meaning "I cannot reconstruct this clock from my state":
/// missing base, checksum mismatch, or a delta before any full frame. The
/// caller resets both ends and the next frame goes full. This is the
/// designed recovery path, not a protocol error.
class DeltaResyncRequired : public DecodeError {
 public:
  explicit DeltaResyncRequired(const std::string& what) : DecodeError(what) {}
};

/// Byte accounting, updated by the encoder for every frame with a clock:
/// what the emitted frames cost vs the stateless flat frames they replace.
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
  DeltaWireEncoder(std::size_t streams, std::uint64_t epoch);

  /// Encode `msg` on stream `dst`: a full frame when the stream has no
  /// base (first frame, after reset, clock size change), else a delta, or
  /// the flat frame when the delta would not be smaller. `*flat_size`, when
  /// non-null, receives the size of the flat frame.
  Bytes encode_for(std::size_t dst, const Message& msg,
                   std::size_t* flat_size = nullptr);

  /// Drop the base for one stream / all streams: the next frame is full.
  /// Called after a resync request, a rollback, or a connection loss.
  void reset(std::size_t dst);
  void reset_all();
  /// reset_all + adopt a new epoch (respawn: the decoder must be able to
  /// tell the incarnations apart even if seqs repeat).
  void rebirth(std::uint64_t new_epoch);

  std::uint64_t epoch() const { return epoch_; }
  const DeltaCodecStats& stats() const { return stats_; }

 private:
  struct Stream {
    std::uint64_t next_seq = 1;
    bool have_base = false;
    std::uint64_t base_seq = 0;
    std::vector<FtvcEntry> base;
  };

  std::vector<Stream> streams_;
  std::uint64_t epoch_;
  DeltaCodecStats stats_;
};

/// Receiver side: one independent stream per source key, holding the
/// stream's last stateful frame as the only base.
class DeltaWireDecoder {
 public:
  explicit DeltaWireDecoder(std::size_t streams);

  /// Reconstruct the Message of a frame encode_for produced on stream
  /// `src`: a stateful frame, or a flat message frame (decoded statelessly).
  /// Throws DeltaResyncRequired when the named base is missing or fails its
  /// checksum (recoverable: reset both ends, the next frame goes full);
  /// DecodeError/TruncatedError on malformed bytes or any frame that is not
  /// a message (not recoverable).
  Message decode_from(std::size_t src, const Bytes& wire);

  /// Drop the base for one stream / all streams (sender incarnation or
  /// connection changed).
  void reset(std::size_t src);
  void reset_all();

 private:
  struct Stream {
    bool active = false;
    std::uint64_t epoch = 0;
    ProcessId owner = kNoProcess;
    std::uint64_t base_seq = 0;
    std::vector<FtvcEntry> base;
  };

  std::vector<Stream> streams_;
};

}  // namespace optrec::scale
