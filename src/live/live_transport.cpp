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
  fanout_thread_ = std::thread([this] { fanout_main(); });
}

LiveTransport::~LiveTransport() {
  {
    std::lock_guard<std::mutex> lock(fanout_mu_);
    fanout_stop_ = true;
  }
  fanout_cv_.notify_all();
  fanout_thread_.join();
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

void LiveTransport::fanout_main() {
  std::unique_lock<std::mutex> lock(fanout_mu_);
  for (;;) {
    fanout_cv_.wait(lock,
                    [this] { return fanout_stop_ || !fanout_queue_.empty(); });
    if (fanout_queue_.empty()) {
      if (fanout_stop_) return;
      continue;
    }
    PendingBroadcast b = std::move(fanout_queue_.front());
    fanout_queue_.pop_front();
    lock.unlock();
    for (std::size_t i = 0; i < b.dst_delays.size(); ++i) {
      const auto& [dst, delay] = b.dst_delays[i];
      // Shared ref: every destination's channel frame points at the same
      // encoded token image (one atomic inc per clone, zero byte copies).
      FrameRef wire =
          i + 1 == b.dst_delays.size() ? std::move(b.wire) : b.wire;
      push_wire(b.src, dst, std::move(wire), /*app=*/false, /*token=*/true,
                delay);
    }
    lock.lock();
  }
}

MsgId LiveTransport::send(Message msg) {
  if (msg.src == msg.dst) throw std::invalid_argument("send: src == dst");
  if (msg.dst >= endpoints_.size() || endpoints_[msg.dst] == nullptr) {
    throw std::out_of_range("send: unknown destination");
  }
  msg.id = next_msg_id_.fetch_add(1, std::memory_order_relaxed);
  DeliveryCounters::add(counters_.messages_sent);
  DeliveryCounters::add(counters_.message_bytes, message_wire_bytes(msg));
  if (trace_) trace_->emit(send_event(clock_.now(), msg));
  Rng& rng = send_rng_.at(msg.src);
  const bool app = msg.kind == MessageKind::kApp;
  if (app) {
    DeliveryCounters::add(counters_.app_messages_sent);
    if (rng.chance(faults_.drop_prob)) {
      DeliveryCounters::add(counters_.messages_dropped);
      return msg.id;
    }
  }
  // Encode once into a pooled buffer; a duplicate delivery shares the ref.
  FrameRef wire = FramePool::global().wrap(encode_message_frame(msg));
  if (app && rng.chance(faults_.duplicate_prob)) {
    DeliveryCounters::add(counters_.messages_duplicated);
    push_wire(msg.src, msg.dst, wire, app, /*token=*/false, draw_delay(rng));
  }
  const SimTime delay = draw_delay(rng);
  push_wire(msg.src, msg.dst, std::move(wire), app, /*token=*/false, delay);
  return msg.id;
}

void LiveTransport::broadcast_token(const Token& token) {
  DeliveryCounters::add(counters_.token_broadcasts);
  if (trace_) trace_->emit(token_broadcast_event(clock_.now(), token));
  // Account + draw everything on the announcing worker (cheap), then let
  // the fan-out thread do the O(n) encode-once pushes. tokens_sent is
  // bumped here, before the handoff, so tokens_in_flight() covers frames
  // that are queued for fan-out but not yet pushed.
  PendingBroadcast b;
  b.src = token.from;
  Rng& rng = send_rng_.at(token.from);
  const std::size_t bytes = token_wire_bytes(token);
  for (ProcessId dst = 0; dst < endpoints_.size(); ++dst) {
    if (dst == token.from || endpoints_[dst] == nullptr) continue;
    DeliveryCounters::add(counters_.tokens_sent);
    DeliveryCounters::add(counters_.token_bytes, bytes);
    b.dst_delays.emplace_back(dst, draw_delay(rng));
  }
  if (b.dst_delays.empty()) return;
  b.wire = FramePool::global().wrap(encode_token_frame(token));
  {
    std::lock_guard<std::mutex> lock(fanout_mu_);
    fanout_queue_.push_back(std::move(b));
  }
  fanout_cv_.notify_one();
}

void LiveTransport::send_token(ProcessId dst, const Token& token) {
  DeliveryCounters::add(counters_.tokens_sent);
  DeliveryCounters::add(counters_.token_bytes, token_wire_bytes(token));
  Rng& rng = send_rng_.at(token.from);
  push_wire(token.from, dst, FramePool::global().wrap(encode_token_frame(token)),
            /*app=*/false, /*token=*/true, draw_delay(rng));
}

}  // namespace optrec
