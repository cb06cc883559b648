#include "src/wire/wire_codec.h"

#include "src/util/serialization.h"

namespace optrec {

Bytes encode_message_frame(const Message& msg) {
  Writer w;
  w.put_u8(static_cast<std::uint8_t>(FrameType::kMessage));
  msg.encode(w);      // ends with the sender_state telemetry trailer
  w.put_u64(msg.id);  // substrate id, also telemetry
  return w.take();
}

Bytes encode_token_frame(const Token& token) {
  Writer w;
  w.put_u8(static_cast<std::uint8_t>(FrameType::kToken));
  token.encode(w);  // ends with the attribution telemetry trailer
  return w.take();
}

Frame decode_frame(const Bytes& wire) {
  if (wire.empty()) {
    throw FrameError(FrameError::Kind::kTruncated, "empty frame");
  }
  if (wire.size() > kMaxFrameBytes) {
    throw FrameError(FrameError::Kind::kOversized,
                     "frame exceeds kMaxFrameBytes");
  }
  Reader r(wire);
  Frame f;
  try {
    const std::uint8_t tag = r.get_u8();
    switch (tag) {
      case static_cast<std::uint8_t>(FrameType::kMessage):
        f.type = FrameType::kMessage;
        f.message = Message::decode(r);
        f.message.id = r.get_u64();
        break;
      case static_cast<std::uint8_t>(FrameType::kToken):
        f.type = FrameType::kToken;
        f.token = Token::decode(r);
        break;
      default:
        throw FrameError(FrameError::Kind::kCorrupt, "unknown frame type tag");
    }
  } catch (const FrameError&) {
    throw;
  } catch (const TruncatedError& e) {
    throw FrameError(FrameError::Kind::kTruncated, e.what());
  } catch (const DecodeError& e) {
    throw FrameError(FrameError::Kind::kCorrupt, e.what());
  }
  if (!r.at_end()) {
    throw FrameError(FrameError::Kind::kTrailing, "trailing bytes after frame");
  }
  return f;
}

std::size_t message_wire_bytes(const Message& msg) {
  return 1 + msg.wire_size();  // frame tag + body sans telemetry
}

std::size_t token_wire_bytes(const Token& token) {
  return 1 + token.wire_size();
}

std::size_t message_piggyback_bytes(const Message& msg) {
  return message_wire_bytes(msg) - msg.payload.size();
}

}  // namespace optrec
