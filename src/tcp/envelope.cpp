#include "src/tcp/envelope.h"

#include <cstring>

#include "src/util/serialization.h"

namespace optrec {

namespace {

void encode_status(Writer& w, const NodeStatusReport& s) {
  w.put_u32(s.node);
  w.put_u64(s.epoch);
  w.put_u64(s.seq);
  w.put_bool(s.quiet);
  w.put_u64(s.signature);
  for (const auto& f : NodeStatsBlock::kFields) w.put_u64(s.stats.*f.member);
}

NodeStatusReport decode_status(Reader& r) {
  NodeStatusReport s;
  s.node = r.get_u32();
  s.epoch = r.get_u64();
  s.seq = r.get_u64();
  s.quiet = r.get_bool();
  s.signature = r.get_u64();
  for (const auto& f : NodeStatsBlock::kFields) s.stats.*f.member = r.get_u64();
  return s;
}

}  // namespace

Bytes encode_envelope(const Envelope& e) {
  Writer w;
  w.put_u8(static_cast<std::uint8_t>(e.kind));
  w.put_u32(e.src_node);
  switch (e.kind) {
    case EnvelopeKind::kHello:
      w.put_u64(e.epoch);
      w.put_string(e.cluster);
      break;
    case EnvelopeKind::kWire:
      w.put_u32(e.src_pid);
      w.put_u32(e.dst_pid);
      w.put_bool(e.app);
      w.put_u64(e.sent_unix_us);
      w.put_u64(e.delay_us);
      w.put_bytes(e.wire);
      break;
    case EnvelopeKind::kStatus:
      encode_status(w, e.status);
      break;
    case EnvelopeKind::kShutdown:
      w.put_u8(e.exit_code);
      break;
    case EnvelopeKind::kShutdownAck:
      break;
    case EnvelopeKind::kToken:
      w.put_u64(e.token_seq);
      w.put_u32(e.src_pid);  // the failed process (token.from)
      w.put_bytes(e.wire);
      break;
    case EnvelopeKind::kTokenAck:
      w.put_u64(e.epoch);  // echo of the token sender's incarnation
      w.put_u64(e.token_seq);
      break;
  }
  return w.take();
}

Envelope decode_envelope(const Bytes& body) {
  if (body.size() > kMaxEnvelopeBytes) {
    throw FrameError(FrameError::Kind::kOversized,
                     "envelope exceeds kMaxEnvelopeBytes");
  }
  try {
    Reader r(body);
    Envelope e;
    const std::uint8_t kind = r.get_u8();
    if (kind < 1 || kind > 7) {
      throw FrameError(FrameError::Kind::kCorrupt,
                       "unknown envelope kind " + std::to_string(kind));
    }
    e.kind = static_cast<EnvelopeKind>(kind);
    e.src_node = r.get_u32();
    switch (e.kind) {
      case EnvelopeKind::kHello:
        e.epoch = r.get_u64();
        e.cluster = r.get_string();
        break;
      case EnvelopeKind::kWire:
        e.src_pid = r.get_u32();
        e.dst_pid = r.get_u32();
        e.app = r.get_bool();
        e.sent_unix_us = r.get_u64();
        e.delay_us = r.get_u64();
        e.wire = r.get_bytes();
        if (e.wire.size() > kMaxFrameBytes) {
          throw FrameError(FrameError::Kind::kOversized,
                           "nested wire frame exceeds kMaxFrameBytes");
        }
        break;
      case EnvelopeKind::kStatus:
        e.status = decode_status(r);
        break;
      case EnvelopeKind::kShutdown:
        e.exit_code = r.get_u8();
        break;
      case EnvelopeKind::kShutdownAck:
        break;
      case EnvelopeKind::kToken:
        e.token_seq = r.get_u64();
        e.src_pid = r.get_u32();
        e.wire = r.get_bytes();
        if (e.wire.size() > kMaxFrameBytes) {
          throw FrameError(FrameError::Kind::kOversized,
                           "nested wire frame exceeds kMaxFrameBytes");
        }
        break;
      case EnvelopeKind::kTokenAck:
        e.epoch = r.get_u64();
        e.token_seq = r.get_u64();
        break;
    }
    if (!r.at_end()) {
      throw FrameError(FrameError::Kind::kTrailing,
                       "trailing bytes after envelope");
    }
    return e;
  } catch (const FrameError&) {
    throw;
  } catch (const TruncatedError& e) {
    throw FrameError(FrameError::Kind::kTruncated, e.what());
  } catch (const DecodeError& e) {
    throw FrameError(FrameError::Kind::kCorrupt, e.what());
  }
}

Bytes frame_envelope(const Envelope& e) {
  Bytes body = encode_envelope(e);
  if (body.size() > kMaxEnvelopeBytes) {
    throw FrameError(FrameError::Kind::kOversized,
                     "envelope exceeds kMaxEnvelopeBytes");
  }
  Bytes out;
  out.reserve(4 + body.size());
  const std::uint32_t len = static_cast<std::uint32_t>(body.size());
  out.push_back(static_cast<std::uint8_t>(len & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 24) & 0xff));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Bytes frame_wire_envelope_prefix(const Envelope& e, std::size_t wire_size) {
  if (wire_size > kMaxFrameBytes) {
    throw FrameError(FrameError::Kind::kOversized,
                     "nested wire frame exceeds kMaxFrameBytes");
  }
  Writer w;
  w.put_u8(static_cast<std::uint8_t>(EnvelopeKind::kWire));
  w.put_u32(e.src_node);
  w.put_u32(e.src_pid);
  w.put_u32(e.dst_pid);
  w.put_bool(e.app);
  w.put_u64(e.sent_unix_us);
  w.put_u64(e.delay_us);
  // The length varint put_bytes would have written; the raw wire bytes
  // follow on the stream instead of living in this buffer.
  w.put_u64(wire_size);
  Bytes body = w.take();
  const std::size_t total = body.size() + wire_size;
  if (total > kMaxEnvelopeBytes) {
    throw FrameError(FrameError::Kind::kOversized,
                     "envelope exceeds kMaxEnvelopeBytes");
  }
  Bytes out;
  out.reserve(4 + body.size());
  const std::uint32_t len = static_cast<std::uint32_t>(total);
  out.push_back(static_cast<std::uint8_t>(len & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 24) & 0xff));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

void EnvelopeReader::feed(const std::uint8_t* data, std::size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

std::optional<Bytes> EnvelopeReader::next() {
  // Compact once consumed bytes dominate, so long-lived connections do not
  // grow the buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  if (buf_.size() - pos_ < 4) return std::nullopt;
  const std::uint32_t len = static_cast<std::uint32_t>(buf_[pos_]) |
                            (static_cast<std::uint32_t>(buf_[pos_ + 1]) << 8) |
                            (static_cast<std::uint32_t>(buf_[pos_ + 2]) << 16) |
                            (static_cast<std::uint32_t>(buf_[pos_ + 3]) << 24);
  if (len > kMaxEnvelopeBytes) {
    throw FrameError(FrameError::Kind::kOversized,
                     "stream length prefix exceeds kMaxEnvelopeBytes");
  }
  if (buf_.size() - pos_ < 4 + static_cast<std::size_t>(len)) {
    return std::nullopt;
  }
  Bytes body(buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4),
             buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4 + len));
  pos_ += 4 + len;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return body;
}

}  // namespace optrec
