#include "src/live/live_transport.h"

#include <stdexcept>
#include <utility>

#include "src/wire/wire_codec.h"

namespace optrec {

LiveTransport::LiveTransport(const LiveClock& clock, std::size_t n,
                             std::uint64_t seed, LiveFaultConfig faults)
    : clock_(clock), faults_(faults), endpoints_(n, nullptr) {
  channels_.reserve(n);
  send_rng_.reserve(n);
  Rng base(seed);
  for (std::size_t i = 0; i < n; ++i) {
    channels_.push_back(std::make_unique<LiveChannel>());
    send_rng_.push_back(base.fork());
  }
}

void LiveTransport::attach(ProcessId pid, Endpoint* endpoint) {
  if (endpoint == nullptr) throw std::invalid_argument("attach: null endpoint");
  endpoints_.at(pid) = endpoint;
}

SimTime LiveTransport::draw_delay(Rng& rng) {
  return rng.uniform_range(faults_.min_delay, faults_.max_delay);
}

SimTime LiveTransport::link_clear_at(ProcessId src, ProcessId dst,
                                     SimTime t) const {
  // Mirror Network::connected: unlisted processes share group 0, traffic
  // crossing groups is held until the heal. Windows may overlap, so iterate
  // to a fixpoint (the schedule is tiny — scripted events, not traffic).
  bool moved = true;
  while (moved) {
    moved = false;
    for (const PartitionEvent& event : faults_.partitions) {
      if (t < event.at || t >= event.heal_at) continue;
      std::uint32_t src_group = 0;
      std::uint32_t dst_group = 0;
      std::uint32_t group_id = 1;
      for (const auto& group : event.groups) {
        for (ProcessId pid : group) {
          if (pid == src) src_group = group_id;
          if (pid == dst) dst_group = group_id;
        }
        ++group_id;
      }
      if (src_group != dst_group) {
        t = event.heal_at;
        moved = true;
      }
    }
  }
  return t;
}

void LiveTransport::push_wire(ProcessId src, ProcessId dst, FrameRef wire,
                              bool app, bool token, SimTime delay) {
  LiveFrame f;
  f.kind = LiveFrame::Kind::kWire;
  f.src = src;
  f.wire = std::move(wire);
  f.app = app;
  f.token = token;
  f.sent_at = clock_.now();
  f.not_before = link_clear_at(src, dst, f.sent_at + delay);
  counters_.note_pushed();
  channels_.at(dst)->push(std::move(f));
}

MsgId LiveTransport::send(Message msg) {
  if (msg.src == msg.dst) throw std::invalid_argument("send: src == dst");
  if (msg.dst >= endpoints_.size() || endpoints_[msg.dst] == nullptr) {
    throw std::out_of_range("send: unknown destination");
  }
  msg.id = next_msg_id_.fetch_add(1, std::memory_order_relaxed);
  counters_.net.add<&Network::Stats::messages_sent>();
  counters_.net.add<&Network::Stats::message_bytes>(message_wire_bytes(msg));
  if (trace_) trace_->emit(send_event(clock_.now(), msg));
  Rng& rng = send_rng_.at(msg.src);
  const bool app = msg.kind == MessageKind::kApp;
  if (app) {
    counters_.net.add<&Network::Stats::app_messages_sent>();
    if (rng.chance(faults_.drop_prob)) {
      counters_.net.add<&Network::Stats::messages_dropped>();
      return msg.id;
    }
  }
  // Encode once into a pooled buffer; a duplicate delivery shares the ref.
  FrameRef wire = FramePool::global().wrap(encode_message_frame(msg));
  if (app && rng.chance(faults_.duplicate_prob)) {
    counters_.net.add<&Network::Stats::messages_duplicated>();
    push_wire(msg.src, msg.dst, wire, app, /*token=*/false, draw_delay(rng));
  }
  const SimTime delay = draw_delay(rng);
  push_wire(msg.src, msg.dst, std::move(wire), app, /*token=*/false, delay);
  return msg.id;
}

void LiveTransport::broadcast_token(const Token& token) {
  counters_.net.add<&Network::Stats::token_broadcasts>();
  if (trace_) trace_->emit(token_broadcast_event(clock_.now(), token));
  // Encode once: every destination's channel frame is a clone of this ref
  // (one atomic increment, zero byte copies).
  FrameRef wire = FramePool::global().wrap(encode_token_frame(token));
  Rng& rng = send_rng_.at(token.from);
  const std::size_t bytes = token_wire_bytes(token);
  for (ProcessId dst = 0; dst < endpoints_.size(); ++dst) {
    if (dst == token.from || endpoints_[dst] == nullptr) continue;
    counters_.net.add<&Network::Stats::tokens_sent>();
    counters_.net.add<&Network::Stats::token_bytes>(bytes);
    push_wire(token.from, dst, wire, /*app=*/false, /*token=*/true,
              draw_delay(rng));
  }
}

}  // namespace optrec
