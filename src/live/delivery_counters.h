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

namespace optrec {

struct DeliveryCounters {
  // Network::Stats, field for field (relaxed).
  std::atomic<std::uint64_t> messages_sent{0};
  std::atomic<std::uint64_t> messages_delivered{0};
  std::atomic<std::uint64_t> app_messages_sent{0};
  std::atomic<std::uint64_t> app_messages_delivered{0};
  std::atomic<std::uint64_t> messages_dropped{0};
  std::atomic<std::uint64_t> messages_duplicated{0};
  std::atomic<std::uint64_t> messages_retried{0};
  std::atomic<std::uint64_t> tokens_sent{0};
  std::atomic<std::uint64_t> tokens_delivered{0};
  std::atomic<std::uint64_t> token_broadcasts{0};
  std::atomic<std::uint64_t> message_bytes{0};
  std::atomic<std::uint64_t> token_bytes{0};
  /// Wire frames pushed into local channels / handed to a process.
  std::atomic<std::uint64_t> frames_pushed{0};
  std::atomic<std::uint64_t> frames_handled{0};

  static void add(std::atomic<std::uint64_t>& counter, std::uint64_t by = 1) {
    counter.fetch_add(by, std::memory_order_relaxed);
  }
  void note_pushed() { frames_pushed.fetch_add(1, std::memory_order_acq_rel); }

  // --- worker-side delivery accounting
  void note_delivered_message(bool app) {
    add(messages_delivered);
    if (app) add(app_messages_delivered);
    frames_handled.fetch_add(1, std::memory_order_acq_rel);
  }
  void note_delivered_token() {
    add(tokens_delivered);
    frames_handled.fetch_add(1, std::memory_order_acq_rel);
  }
  /// Receiver was down; the frame went back into the channel. Mirrors the
  /// simulator: message retries are counted, token retries are silent.
  void note_retry(bool token) {
    if (!token) add(messages_retried);
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
        app_messages_delivered.load(std::memory_order_acquire);
    const std::uint64_t dropped =
        messages_dropped.load(std::memory_order_acquire);
    const std::uint64_t sent =
        app_messages_sent.load(std::memory_order_acquire);
    const std::uint64_t dup =
        messages_duplicated.load(std::memory_order_acquire);
    return sent + dup - delivered - dropped;
  }
  std::uint64_t tokens_in_flight() const {
    const std::uint64_t delivered =
        tokens_delivered.load(std::memory_order_acquire);
    return tokens_sent.load(std::memory_order_acquire) - delivered;
  }

  /// Counter snapshot, shaped like Network::Stats so reporting code treats
  /// every backend alike.
  Network::Stats stats() const {
    const auto get = [](const std::atomic<std::uint64_t>& c) {
      return c.load(std::memory_order_relaxed);
    };
    Network::Stats s;
    s.messages_sent = get(messages_sent);
    s.messages_delivered = get(messages_delivered);
    s.app_messages_sent = get(app_messages_sent);
    s.app_messages_delivered = get(app_messages_delivered);
    s.messages_dropped = get(messages_dropped);
    s.messages_duplicated = get(messages_duplicated);
    s.messages_retried = get(messages_retried);
    s.tokens_sent = get(tokens_sent);
    s.tokens_delivered = get(tokens_delivered);
    s.token_broadcasts = get(token_broadcasts);
    s.message_bytes = get(message_bytes);
    s.token_bytes = get(token_bytes);
    return s;
  }
};

}  // namespace optrec
