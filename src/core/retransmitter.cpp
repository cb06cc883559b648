#include "src/core/retransmitter.h"

namespace optrec {

void Retransmitter::record(const Message& msg) {
  sent_.insert_or_assign(Key{msg.dst, msg.src_version, msg.send_seq}, msg);
}

std::vector<Message> Retransmitter::collect_for(ProcessId failed,
                                                const History& history) const {
  // NOTE on the paper's filter: Remark 1 suggests resending only sends
  // "concurrent with the token's state". But clock dominance does not imply
  // receipt — the restored state can depend on a send transitively through
  // other messages while the message itself was still undelivered (e.g.
  // wiped from the hold queue). Skipping such sends silently loses them, so
  // we resend every non-obsolete recorded send to the failed process and
  // rely on the receiver's (sender, version, seq) duplicate filter, which is
  // rebuilt from its restored checkpoint's keys plus its stable log and
  // therefore knows exactly what survived, GC'd log prefix included.
  std::vector<Message> out;
  for (const auto& [key, msg] : sent_) {
    if (msg.dst != failed) continue;
    // Sent by a lost or orphan state: must not be reintroduced.
    if (history.is_obsolete(msg.clock)) continue;
    out.push_back(msg);
  }
  return out;
}

Bytes Retransmitter::snapshot() const {
  Writer w;
  w.put_u32(static_cast<std::uint32_t>(sent_.size()));
  for (const auto& [key, msg] : sent_) {
    msg.encode(w);
  }
  return w.take();
}

void Retransmitter::restore(const Bytes& bytes) {
  sent_.clear();
  if (bytes.empty()) return;
  Reader r(bytes);
  const std::uint32_t count = r.get_u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    Message m = Message::decode(r);
    sent_.emplace(Key{m.dst, m.src_version, m.send_seq}, std::move(m));
  }
}

}  // namespace optrec
