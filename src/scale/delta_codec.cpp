#include "src/scale/delta_codec.h"

#include "src/wire/wire_codec.h"

namespace optrec::scale {

namespace {

/// Clock body tags inside a kDeltaMessageTag frame.
constexpr std::uint8_t kClockDelta = 0;
constexpr std::uint8_t kClockFull = 1;

void write_message_tail(Writer& w, const Message& msg) {
  w.put_u8(static_cast<std::uint8_t>(msg.kind));
  w.put_u32(msg.src);
  w.put_u32(msg.dst);
  w.put_u32(msg.src_version);
  w.put_u64(msg.send_seq);
  w.put_bool(msg.retransmission);
  w.put_bytes(msg.payload);
  w.put_u64(msg.sender_state);
  w.put_u64(msg.id);
}

void read_message_tail(Reader& r, Message& m) {
  m.kind = static_cast<MessageKind>(r.get_u8());
  m.src = r.get_u32();
  m.dst = r.get_u32();
  m.src_version = r.get_u32();
  m.send_seq = r.get_u64();
  m.retransmission = r.get_bool();
  m.payload = r.get_bytes();
  m.sender_state = r.get_u64();
  m.id = r.get_u64();
}

/// The clock section of the flat frame: Message::encode's has-clock flag
/// plus Ftvc::encode.
std::size_t flat_clock_bytes(const Ftvc& clock) {
  std::size_t n = 1 + varint_size(clock.owner()) + varint_size(clock.size());
  for (const FtvcEntry& e : clock.entries()) {
    n += varint_size(e.ver) + varint_size(e.ts);
  }
  return n;
}

}  // namespace

std::uint32_t delta_base_checksum(std::uint64_t epoch, std::uint64_t base_seq,
                                  const std::vector<FtvcEntry>& entries) {
  Writer w;
  w.put_u64(epoch);
  w.put_u64(base_seq);
  for (const FtvcEntry& e : entries) e.encode(w);
  const std::uint64_t h = fnv1a(w.buffer());
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------

DeltaWireEncoder::DeltaWireEncoder(std::size_t streams, std::uint64_t epoch)
    : streams_(streams), epoch_(epoch) {}

Bytes DeltaWireEncoder::encode_for(std::size_t dst, const Message& msg,
                                   std::size_t* flat_size) {
  const auto account = [&](std::size_t emitted, std::size_t flat) {
    stats_.delta_bytes += emitted;
    stats_.flat_bytes += flat;
    if (flat_size != nullptr) *flat_size = flat;
  };
  const auto& entries = msg.clock.entries();
  if (entries.empty()) {
    Bytes flat = encode_message_frame(msg);
    if (flat_size != nullptr) *flat_size = flat.size();
    return flat;
  }

  Stream& s = streams_.at(dst);
  const std::uint64_t seq = s.next_seq;
  const bool full = !s.have_base || s.base.size() != entries.size();
  Writer w;
  w.put_u8(kDeltaMessageTag);
  if (full) {
    w.put_u8(kClockFull);
    w.put_u64(seq);
    w.put_u64(epoch_);
    w.put_u32(msg.clock.owner());
    w.put_u32(static_cast<std::uint32_t>(entries.size()));
    for (const FtvcEntry& e : entries) e.encode(w);
  } else {
    w.put_u8(kClockDelta);
    w.put_u64(seq);
    w.put_u64(s.base_seq);
    w.put_u32(delta_base_checksum(epoch_, s.base_seq, s.base));
    std::uint32_t changed = 0;
    for (std::size_t j = 0; j < entries.size(); ++j) {
      if (entries[j] != s.base[j]) ++changed;
    }
    w.put_u32(changed);
    for (std::size_t j = 0; j < entries.size(); ++j) {
      if (entries[j] != s.base[j]) {
        w.put_u32(static_cast<std::uint32_t>(j));
        entries[j].encode(w);
      }
    }
  }
  // Both frames lead with a one-byte tag and carry the same non-clock
  // fields, so the clock sections alone decide which one is smaller.
  const std::size_t clock_bytes = w.size() - 1;
  const std::size_t flat_clock = flat_clock_bytes(msg.clock);
  if (!full && clock_bytes >= flat_clock) {
    // The delta would not save anything: send the stateless frame and keep
    // the base, so the next delta still decodes against it.
    Bytes flat = encode_message_frame(msg);
    account(flat.size(), flat.size());
    return flat;
  }
  write_message_tail(w, msg);
  account(w.size(), w.size() - clock_bytes + flat_clock);

  // Reliable in-order stream: the stateful frame just emitted is the base.
  ++s.next_seq;
  s.base = entries;
  s.base_seq = seq;
  s.have_base = true;
  ++stats_.frames;
  if (full) ++stats_.full_frames;
  return w.take();
}

void DeltaWireEncoder::reset(std::size_t dst) {
  Stream& s = streams_.at(dst);
  s.have_base = false;
  s.base.clear();
  ++stats_.resets;
}

void DeltaWireEncoder::reset_all() {
  for (std::size_t i = 0; i < streams_.size(); ++i) reset(i);
}

void DeltaWireEncoder::rebirth(std::uint64_t new_epoch) {
  epoch_ = new_epoch;
  for (Stream& s : streams_) {
    s.have_base = false;
    s.base.clear();
    // seqs deliberately NOT reset: a respawned sender that reuses seqs is
    // exactly the hazard the epoch+checksum binding exists to survive, and
    // the regression test drives this path with reused seqs on purpose.
  }
  ++stats_.resets;
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

DeltaWireDecoder::DeltaWireDecoder(std::size_t streams) : streams_(streams) {}

Message DeltaWireDecoder::decode_from(std::size_t src, const Bytes& wire) {
  if (wire.empty() || wire[0] != kDeltaMessageTag) {
    // A flat fallback frame: stateless, the stream base is untouched.
    Frame f = decode_frame(wire);
    if (f.type != FrameType::kMessage) {
      throw DecodeError("delta stream: not a message frame");
    }
    return std::move(f.message);
  }
  Reader r(wire);
  r.get_u8();  // kDeltaMessageTag
  const std::uint8_t clock_tag = r.get_u8();
  Stream& s = streams_.at(src);
  const std::uint64_t seq = r.get_u64();
  std::uint64_t epoch = s.epoch;
  ProcessId owner = s.owner;
  std::vector<FtvcEntry> entries;
  if (clock_tag == kClockFull) {
    // Self-contained: a new sender incarnation (or first contact) simply
    // replaces the base, so a respawned sender reusing seqs lands here
    // before any of its deltas can touch the stale one.
    epoch = r.get_u64();
    owner = r.get_u32();
    const std::uint32_t n = r.get_u32();
    if (n > wire.size()) throw DecodeError("delta frame: impossible count");
    entries.resize(n);
    for (auto& e : entries) e = FtvcEntry::decode(r);
  } else if (clock_tag == kClockDelta) {
    if (!s.active) {
      throw DeltaResyncRequired("delta frame before any full frame");
    }
    const std::uint64_t base_seq = r.get_u64();
    const std::uint32_t base_check = r.get_u32();
    if (base_seq != s.base_seq) {
      throw DeltaResyncRequired("delta names a base the stream does not hold");
    }
    if (delta_base_checksum(s.epoch, base_seq, s.base) != base_check) {
      throw DeltaResyncRequired("delta base checksum mismatch");
    }
    entries = s.base;
    const std::uint32_t changed = r.get_u32();
    if (changed > entries.size()) {
      throw DecodeError("delta frame: impossible changed count");
    }
    for (std::uint32_t k = 0; k < changed; ++k) {
      const std::uint32_t index = r.get_u32();
      if (index >= entries.size()) {
        throw DecodeError("delta frame: index out of range");
      }
      entries[index] = FtvcEntry::decode(r);
    }
  } else {
    throw DecodeError("delta frame: unknown clock tag");
  }

  Message m;
  m.clock = Ftvc::with_entries(owner, entries);
  read_message_tail(r, m);
  if (!r.at_end()) throw DecodeError("trailing bytes after delta frame");

  // Adopt the new base only AFTER the whole frame parsed clean, so
  // malformed tails cannot poison the stream state.
  s.active = true;
  s.epoch = epoch;
  s.owner = owner;
  s.base_seq = seq;
  s.base = std::move(entries);
  return m;
}

void DeltaWireDecoder::reset(std::size_t src) {
  streams_.at(src) = Stream{};
}

void DeltaWireDecoder::reset_all() {
  for (std::size_t i = 0; i < streams_.size(); ++i) reset(i);
}

}  // namespace optrec::scale
