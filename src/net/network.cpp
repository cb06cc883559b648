#include "src/net/network.h"

#include <stdexcept>

#include "src/util/log.h"
#include "src/wire/wire_codec.h"

namespace optrec {

Network::Network(Simulation& sim, NetworkConfig config)
    : sim_(sim), config_(config), rng_(sim.rng().fork()) {}

void Network::attach(ProcessId pid, Endpoint* endpoint) {
  if (endpoint == nullptr) throw std::invalid_argument("attach: null endpoint");
  if (pid >= endpoints_.size()) {
    endpoints_.resize(pid + 1, nullptr);
    group_of_.resize(pid + 1, 0);
    fifo_last_.assign(endpoints_.size() * endpoints_.size(), 0);
  }
  endpoints_[pid] = endpoint;
}

SimTime Network::draw_delay(ProcessId src, ProcessId dst, bool token) {
  if (hook_ != nullptr) {
    return hook_->delivery_delay(src, dst, token, config_.min_delay,
                                 config_.max_delay);
  }
  return rng_.uniform_range(config_.min_delay, config_.max_delay);
}

SimTime Network::fifo_floor(ProcessId src, ProcessId dst, SimTime proposed) {
  if (!config_.fifo) return proposed;
  const std::size_t n = endpoints_.size();
  auto& last = fifo_last_.at(src * n + dst);
  if (proposed < last) proposed = last;
  last = proposed;
  return proposed;
}

MsgId Network::send(Message msg) {
  if (msg.src == msg.dst) throw std::invalid_argument("send: src == dst");
  if (msg.dst >= endpoints_.size() || endpoints_[msg.dst] == nullptr) {
    throw std::out_of_range("send: unknown destination");
  }
  msg.id = next_msg_id_++;
  ++stats_.messages_sent;
  stats_.message_bytes += message_wire_bytes(msg);
  if (message_tap_) message_tap_(msg);
  if (trace_) trace_->emit(send_event(sim_.now(), msg));
  if (msg.kind == MessageKind::kApp) {
    ++stats_.app_messages_sent;
    // Loss injection targets application traffic only; control traffic and
    // tokens stay reliable.
    const bool drop = hook_ != nullptr ? hook_->drop_app_message(msg.src, msg.dst)
                                       : rng_.chance(config_.drop_prob);
    if (drop) {
      ++stats_.messages_dropped;
      OPTREC_LOG(kTrace) << "net: dropped " << msg.describe();
      return msg.id;
    }
    // Duplicate injection (explorer only): a second copy with its own delay,
    // exercising the receiver-side duplicate filter under real interleaving.
    if (hook_ != nullptr && hook_->duplicate_app_message(msg.src, msg.dst)) {
      ++stats_.messages_duplicated;
      const SimTime dup_at = fifo_floor(
          msg.src, msg.dst,
          sim_.now() + draw_delay(msg.src, msg.dst, /*token=*/false));
      sim_.schedule_at(dup_at, [this, m = msg]() mutable {
        deliver_message(std::move(m));
      });
    }
  }
  const MsgId id = msg.id;
  const SimTime at =
      fifo_floor(msg.src, msg.dst,
                 sim_.now() + draw_delay(msg.src, msg.dst, /*token=*/false));
  sim_.schedule_at(at, [this, m = std::move(msg)]() mutable {
    deliver_message(std::move(m));
  });
  return id;
}

void Network::deliver_message(Message msg) {
  Endpoint* ep = endpoints_.at(msg.dst);
  // Hold across partitions and receiver downtime: retry later. This models a
  // reliable transport; the protocol's "lost messages" are the ones whose
  // receipt was wiped from volatile memory by a crash, not transport losses.
  if (!connected(msg.src, msg.dst) || !ep->is_up()) {
    ++stats_.messages_retried;
    sim_.schedule_after(config_.retry_interval,
                        [this, m = std::move(msg)]() mutable {
                          deliver_message(std::move(m));
                        });
    return;
  }
  ++stats_.messages_delivered;
  if (msg.kind == MessageKind::kApp) ++stats_.app_messages_delivered;
  ep->on_message(msg);
}

void Network::broadcast_token(const Token& token) {
  ++stats_.token_broadcasts;
  if (token_tap_) token_tap_(token);
  if (trace_) trace_->emit(token_broadcast_event(sim_.now(), token));
  const std::size_t bytes = token_wire_bytes(token);
  for (ProcessId dst = 0; dst < endpoints_.size(); ++dst) {
    if (dst == token.from || endpoints_[dst] == nullptr) continue;
    ++stats_.tokens_sent;
    stats_.token_bytes += bytes;
    const SimTime at =
        sim_.now() + draw_delay(token.from, dst, /*token=*/true);
    sim_.schedule_at(at, [this, dst, token]() { deliver_token(dst, token); });
  }
}

void Network::deliver_token(ProcessId dst, Token token) {
  Endpoint* ep = endpoints_.at(dst);
  if (!connected(token.from, dst) || !ep->is_up()) {
    // Tokens are delivered reliably (paper Section 5): retry forever.
    sim_.schedule_after(config_.retry_interval, [this, dst, token]() {
      deliver_token(dst, token);
    });
    return;
  }
  ++stats_.tokens_delivered;
  ep->on_token(token);
}

void Network::set_partition(const std::vector<std::vector<ProcessId>>& groups) {
  partitioned_ = true;
  std::uint32_t group_id = 1;
  // Unlisted processes keep group 0; each listed group gets a distinct id.
  for (auto& g : group_of_) g = 0;
  for (const auto& group : groups) {
    for (ProcessId pid : group) group_of_.at(pid) = group_id;
    ++group_id;
  }
}

void Network::heal_partition() { partitioned_ = false; }

bool Network::connected(ProcessId a, ProcessId b) const {
  if (!partitioned_) return true;
  return group_of_.at(a) == group_of_.at(b);
}

}  // namespace optrec
