// Delivery accounting of the thread-backed transports.
//
// LiveTransport and TcpTransport each own one DeliveryCounters: senders
// bump the Network::Stats counters as they accept traffic, every push into
// a local channel counts a frame, and the worker host notes each frame it
// hands to a process. All counters are atomics, so the quiescence reads
// and stats() run on any thread at any time.
#pragma once

#include <atomic>
#include <cstdint>

#include "src/net/network.h"
#include "src/util/counter_fields.h"

namespace optrec {

struct DeliveryCounters {
  using Stats = Network::Stats;

  /// Network::Stats, row for row; senders count with relaxed adds.
  AtomicCounters<Stats> net;
  /// Wire frames pushed into local channels / handed to a process.
  std::atomic<std::uint64_t> frames_pushed{0};
  std::atomic<std::uint64_t> frames_handled{0};

  void note_pushed() { frames_pushed.fetch_add(1, std::memory_order_acq_rel); }

  // --- worker-side delivery accounting
  void note_delivered_message(bool app) {
    net.add<&Stats::messages_delivered>();
    if (app) net.add<&Stats::app_messages_delivered>();
    frames_handled.fetch_add(1, std::memory_order_acq_rel);
  }
  void note_delivered_token() {
    net.add<&Stats::tokens_delivered>();
    frames_handled.fetch_add(1, std::memory_order_acq_rel);
  }
  /// Receiver was down; the frame went back into the channel. Mirrors the
  /// simulator: message retries are counted, token retries are silent.
  void note_retry(bool token) {
    if (!token) net.add<&Stats::messages_retried>();
  }

  /// Wire frames pushed but not yet handed to a process (includes frames
  /// parked for a down receiver).
  std::uint64_t frames_in_flight() const {
    return frames_pushed.load(std::memory_order_acquire) -
           frames_handled.load(std::memory_order_acquire);
  }
  /// Application messages accepted but not yet handed to a process; zero is
  /// a necessary condition for quiescence (Network has the same query).
  /// Loads delivered/dropped before sent/duplicated so a racing snapshot
  /// errs toward "still in flight", never toward a false zero.
  std::uint64_t app_messages_in_flight() const {
    const std::uint64_t delivered =
        net.at<&Stats::app_messages_delivered>().load(
            std::memory_order_acquire);
    const std::uint64_t dropped =
        net.at<&Stats::messages_dropped>().load(std::memory_order_acquire);
    const std::uint64_t sent =
        net.at<&Stats::app_messages_sent>().load(std::memory_order_acquire);
    const std::uint64_t dup =
        net.at<&Stats::messages_duplicated>().load(std::memory_order_acquire);
    return sent + dup - delivered - dropped;
  }
  std::uint64_t tokens_in_flight() const {
    const std::uint64_t delivered =
        net.at<&Stats::tokens_delivered>().load(std::memory_order_acquire);
    return net.at<&Stats::tokens_sent>().load(std::memory_order_acquire) -
           delivered;
  }

  /// Counter snapshot, shaped like Network::Stats so reporting code treats
  /// every backend alike.
  Network::Stats stats() const { return net.load(); }
};

}  // namespace optrec
