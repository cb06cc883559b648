#include "src/trace/trace_event.h"

#include <array>
#include <sstream>
#include <stdexcept>

namespace optrec {

namespace {
constexpr std::array<const char*, 15> kTypeNames = {
    "send",           "deliver",       "replay",
    "postpone",       "discard_obsolete", "discard_duplicate",
    "crash",          "restart",       "rollback",
    "token_broadcast", "token_process", "checkpoint",
    "log_flush",      "output_commit", "gc",
};
}  // namespace

const char* trace_event_type_name(TraceEventType type) {
  const auto i = static_cast<std::size_t>(type);
  if (i >= kTypeNames.size()) return "?";
  return kTypeNames[i];
}

TraceEventType trace_event_type_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kTypeNames.size(); ++i) {
    if (name == kTypeNames[i]) return static_cast<TraceEventType>(i);
  }
  throw std::invalid_argument("unknown trace event type '" + name + "'");
}

std::uint64_t trace_digest(const std::vector<TraceEvent>& events) {
  // FNV-1a over the full field content, in seq order. Not cryptographic;
  // collision resistance only needs to beat "two different runs of the same
  // scenario", which field-level mixing handles comfortably.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const TraceEvent& e : events) {
    mix(e.seq);
    mix(e.at);
    mix(static_cast<std::uint64_t>(e.type));
    mix(e.pid);
    mix(e.clock.ver);
    mix(e.clock.ts);
    mix(e.peer);
    mix(e.msg_id);
    mix(e.send_seq);
    mix(e.msg_version);
    mix(e.ref.ver);
    mix(e.ref.ts);
    mix(e.origin);
    mix(e.origin_ver);
    mix(e.count);
    mix(e.detail);
    for (const FtvcEntry& entry : e.mclock) {
      mix(entry.ver);
      mix(entry.ts);
    }
  }
  return h;
}

std::string TraceEvent::describe() const {
  std::ostringstream os;
  os << '#' << seq << " t=" << at << " P" << pid << ' '
     << trace_event_type_name(type) << ' ' << clock.to_string();
  if (node != kNoTraceNode) os << " node=" << node;
  if (peer != kNoProcess) os << " peer=P" << peer;
  if (msg_id != 0) os << " msg=" << msg_id;
  if (origin != kNoProcess) os << " origin=P" << origin << "v" << origin_ver;
  return os.str();
}

TraceEvent send_event(SimTime at, const Message& msg) {
  TraceEvent e;
  e.at = at;
  e.type = TraceEventType::kSend;
  e.pid = msg.src;
  // The sender's identity at the send: its own entry of the piggybacked
  // clock (protocols without an FTVC expose only the incarnation number).
  e.clock = msg.clock.size() > msg.src ? msg.clock.entry(msg.src)
                                       : FtvcEntry{msg.src_version, 0};
  e.peer = msg.dst;
  e.msg_id = msg.id;
  e.send_seq = msg.send_seq;
  e.msg_version = msg.src_version;
  if (msg.kind == MessageKind::kControl) e.detail |= kTraceSendControl;
  if (msg.retransmission) e.detail |= kTraceSendRetransmission;
  e.mclock = msg.clock.entries();
  return e;
}

TraceEvent token_broadcast_event(SimTime at, const Token& token) {
  TraceEvent e;
  e.at = at;
  e.type = TraceEventType::kTokenBroadcast;
  e.pid = token.from;
  e.clock = token.failed;
  e.ref = token.failed;
  const bool relayed = token.origin_pid != kNoProcess;
  e.origin = relayed ? token.origin_pid : token.from;
  e.origin_ver = relayed ? token.origin_ver : token.failed.ver;
  return e;
}

}  // namespace optrec
