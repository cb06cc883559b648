// Delivery accounting of one TcpTransport (one node).
//
// Senders bump the Network::Stats counters as they accept traffic, every
// app message or token pushed into a local channel counts a frame, and the
// worker host notes each one it hands to a process. Control messages
// (checkpoint markers, stability vectors) are not counted: like
// Scenario::run, a node's quiet claim waits only on application traffic
// and tokens. All counters are atomics, so the quiescence reads and stats()
// run on any thread at any time.
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
  /// App-message and token frames pushed into local channels / handed to
  /// a process.
  std::atomic<std::uint64_t> frames_pushed{0};
  std::atomic<std::uint64_t> frames_handled{0};

  void note_pushed(bool app, bool token) {
    if (app || token) frames_pushed.fetch_add(1, std::memory_order_acq_rel);
  }

  // --- worker-side delivery accounting
  void note_delivered_message(bool app) {
    net.add<&Stats::messages_delivered>();
    if (!app) return;
    net.add<&Stats::app_messages_delivered>();
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

  /// App messages and tokens pushed but not yet handed to a process
  /// (includes frames parked for a down receiver).
  std::uint64_t frames_in_flight() const {
    return frames_pushed.load(std::memory_order_acquire) -
           frames_handled.load(std::memory_order_acquire);
  }
  /// Counter snapshot, shaped like Network::Stats so reporting code treats
  /// every backend alike.
  Network::Stats stats() const { return net.load(); }
};

}  // namespace optrec
