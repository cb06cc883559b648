// Simulated network substrate.
//
// Point-to-point channels with uniformly random delay. By default channels
// are NOT FIFO — the protocol makes no ordering assumptions (a headline
// property in Table 1) — but FIFO can be enabled per-config for baselines
// that require it. Tokens are delivered reliably (the paper's one liveness
// assumption): they survive partitions and receiver downtime via retry.
// Application messages are also retried while the receiver is down, so the
// transport is reliable; *information loss* in this system comes only from
// volatile state wiped by a crash, which is exactly the paper's model.
// Explicit loss injection is available through drop_prob.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/net/message.h"
#include "src/runtime/env.h"
#include "src/sim/schedule_hook.h"
#include "src/sim/simulation.h"
#include "src/trace/trace_event.h"
#include "src/util/ids.h"

namespace optrec {

/// Interface a process exposes to the network.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void on_message(const Message& msg) = 0;
  virtual void on_token(const Token& token) = 0;
  /// False while crashed (between failure and restart completion); the
  /// network retries deliveries until true.
  virtual bool is_up() const = 0;
};

struct NetworkConfig {
  SimTime min_delay = micros(100);
  SimTime max_delay = millis(5);
  /// Deliver in send order per (src,dst) pair. Off by default: the protocol
  /// under test must tolerate arbitrary reordering.
  bool fifo = false;
  /// Probability an application message is silently dropped (loss
  /// injection). Tokens are never dropped.
  double drop_prob = 0.0;
  /// Retry interval when the destination is down or partitioned away.
  SimTime retry_interval = millis(20);
};

class Network : public Transport {
 public:
  Network(Simulation& sim, NetworkConfig config);

  /// Register endpoint for `pid`. Endpoints must cover 0..n-1 before
  /// traffic starts; re-attaching replaces (used by restart-in-place tests).
  void attach(ProcessId pid, Endpoint* endpoint) override;
  std::size_t size() const { return endpoints_.size(); }

  /// Send an application or control message; assigns Message::id.
  /// src != dst required.
  MsgId send(Message msg) override;

  /// Reliably deliver `token` to every process except `token.from`.
  void broadcast_token(const Token& token) override;
  /// Reliably deliver `token` to one process (used by retransmission tests).
  void send_token(ProcessId dst, const Token& token) override;

  /// Test taps: observe every accepted send (post-stamp, with assigned id)
  /// and every token broadcast. Used by scenario tests that hand-deliver
  /// traffic in a controlled order; no effect on delivery.
  using MessageTap = std::function<void(const Message&)>;
  using TokenTap = std::function<void(const Token&)>;
  void set_message_tap(MessageTap tap) { message_tap_ = std::move(tap); }
  void set_token_tap(TokenTap tap) { token_tap_ = std::move(tap); }

  /// Attach a trace recorder: every accepted send and token broadcast is
  /// recorded (null detaches; disabled costs one pointer test per send).
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Install a schedule-decision hook (null reverts to the internal PRNG).
  /// With a hook installed the network consumes no randomness of its own:
  /// delays, drops and duplicate injection are all externally driven, which
  /// is what makes explorer runs replayable from a schedule seed.
  void set_schedule_hook(ScheduleHook* hook) { hook_ = hook; }

  /// Partition the network into groups; traffic crossing group boundaries is
  /// held (messages) or retried (tokens) until heal_partition().
  void set_partition(const std::vector<std::vector<ProcessId>>& groups);
  void heal_partition();
  bool partitioned() const { return partitioned_; }
  bool connected(ProcessId a, ProcessId b) const;

  struct Stats {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t app_messages_sent = 0;       // kApp only
    std::uint64_t app_messages_delivered = 0;  // kApp only
    std::uint64_t messages_dropped = 0;   // drop_prob losses
    std::uint64_t messages_duplicated = 0;  // hook-injected app duplicates
    std::uint64_t messages_retried = 0;   // receiver down / partitioned
    std::uint64_t tokens_sent = 0;        // per-destination copies
    std::uint64_t tokens_delivered = 0;
    std::uint64_t token_broadcasts = 0;
    std::uint64_t message_bytes = 0;      // wire bytes of app+control sends
    std::uint64_t token_bytes = 0;

    /// Every counter with its name, in declaration order: the one list the
    /// JSON writer, the /metrics exporter and cluster sums iterate.
    using Field = std::pair<const char*, std::uint64_t Stats::*>;
    static constexpr std::array<Field, 12> kFields{{
        {"messages_sent", &Stats::messages_sent},
        {"messages_delivered", &Stats::messages_delivered},
        {"app_messages_sent", &Stats::app_messages_sent},
        {"app_messages_delivered", &Stats::app_messages_delivered},
        {"messages_dropped", &Stats::messages_dropped},
        {"messages_duplicated", &Stats::messages_duplicated},
        {"messages_retried", &Stats::messages_retried},
        {"tokens_sent", &Stats::tokens_sent},
        {"tokens_delivered", &Stats::tokens_delivered},
        {"token_broadcasts", &Stats::token_broadcasts},
        {"message_bytes", &Stats::message_bytes},
        {"token_bytes", &Stats::token_bytes},
    }};
  };
  const Stats& stats() const { return stats_; }

  /// Application messages accepted for delivery but not yet handed to an
  /// endpoint (includes partition-held and retrying ones). Zero is a
  /// necessary condition for application quiescence.
  std::uint64_t app_messages_in_flight() const {
    return stats_.app_messages_sent + stats_.messages_duplicated -
           stats_.app_messages_delivered - stats_.messages_dropped;
  }
  std::uint64_t tokens_in_flight() const {
    return stats_.tokens_sent - stats_.tokens_delivered;
  }

 private:
  SimTime draw_delay(ProcessId src, ProcessId dst, bool token);
  void deliver_message(Message msg);
  void deliver_token(ProcessId dst, Token token);
  /// FIFO mode: the earliest time a new (src,dst) delivery may fire.
  SimTime fifo_floor(ProcessId src, ProcessId dst, SimTime proposed);

  Simulation& sim_;
  NetworkConfig config_;
  Rng rng_;
  std::vector<Endpoint*> endpoints_;
  MsgId next_msg_id_ = 1;
  Stats stats_;

  bool partitioned_ = false;
  std::vector<std::uint32_t> group_of_;  // pid -> partition group id

  // FIFO bookkeeping: last scheduled delivery time per directed pair.
  std::vector<SimTime> fifo_last_;  // indexed src * n + dst (lazily sized)

  MessageTap message_tap_;
  TokenTap token_tap_;
  TraceRecorder* trace_ = nullptr;
  ScheduleHook* hook_ = nullptr;
};

}  // namespace optrec
