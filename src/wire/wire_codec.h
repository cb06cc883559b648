// Binary wire codec: the exact byte image of protocol traffic.
//
// Frames what the simulator passes around as structs into self-describing
// varint-encoded byte strings, so piggyback overhead is measured in real
// serialized bytes and worker threads (src/live/) can move traffic through
// channels as flat buffers, the same bytes a socket carries.
//
// Frame layout:   [type u8] [body] [telemetry trailer]
//   kMessage body = Message::encode  (headers, optional FTVC, payload);
//                   the trailer is the oracle's sender_state (already the
//                   last field of Message::encode) plus the substrate msg id.
//   kToken body   = Token::encode    (from, failed entry, optional restored
//                   clock, attribution trailer).
// Telemetry trailers ride along so post-hoc validation (causality oracle,
// trace auditor) works on live runs, but are excluded from the byte
// accounting — message_wire_bytes/token_wire_bytes report what a production
// transport would actually put on the wire.
//
// Stateless by design: every frame decodes on its own, which is what a
// non-FIFO transport needs. Per-connection streams can swap the full FTVC
// for a delta against the previous frame (src/scale/delta_codec.h),
// approaching the paper's single-timestamp ideal (Section 7).
#pragma once

#include <cstddef>
#include <memory>

#include "src/net/message.h"
#include "src/util/bytes.h"

namespace optrec {

enum class FrameType : std::uint8_t { kMessage = 1, kToken = 2 };

/// Hard ceiling on one encoded frame. Anything larger is rejected before
/// decoding begins (and before a stream reader would buffer it), so a
/// hostile or corrupt length field cannot force an unbounded allocation.
/// Generous: a 4096-process FTVC plus payload fits with room to spare.
constexpr std::size_t kMaxFrameBytes = 1u << 20;

/// Typed decode failure for frames read off an untrusted byte stream.
/// Everything decode_frame can object to lands here, tagged with why, so a
/// socket transport can distinguish "wait for more bytes" (truncated, only
/// meaningful mid-stream) from "drop the connection" (the rest).
class FrameError : public DecodeError {
 public:
  enum class Kind {
    kTruncated,  // input ended mid-value
    kOversized,  // exceeds kMaxFrameBytes
    kCorrupt,    // malformed varint, bad tag, impossible count
    kTrailing,   // well-formed frame followed by garbage
  };

  FrameError(Kind kind, const std::string& what)
      : DecodeError(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// One decoded frame; `type` says which member is meaningful.
struct Frame {
  FrameType type = FrameType::kMessage;
  Message message;
  Token token;
};

Bytes encode_message_frame(const Message& msg);
Bytes encode_token_frame(const Token& token);

/// An encoded frame shared by reference and never mutated after it is
/// built: token fan-out, duplicate copies, retries and socket segments
/// clone the pointer, never the bytes.
using FrameBytes = std::shared_ptr<const Bytes>;

/// Decode either frame kind. Throws FrameError on malformed, truncated,
/// oversized, or trailing-garbage input; never asserts or reads out of
/// bounds, so it is safe to point at bytes from a socket.
Frame decode_frame(const Bytes& wire);

/// Exact on-the-wire size of a message/token frame, excluding the telemetry
/// trailer (oracle state id, substrate message id, token attribution).
std::size_t message_wire_bytes(const Message& msg);
std::size_t token_wire_bytes(const Token& token);

/// Exact piggyback cost of a message: everything the protocol adds on top of
/// the raw application payload (frame header, ids, flags, FTVC). This is the
/// number the paper's O(n) overhead claim is about, and what
/// Metrics::piggyback_bytes accumulates.
std::size_t message_piggyback_bytes(const Message& msg);

}  // namespace optrec
