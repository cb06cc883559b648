// TCP Transport: the recovery fleet in real time, over real sockets.
//
// The real-time Transport backend (the simulator's is src/net/Network):
// one TcpTransport per NODE hosts the LiveChannel inboxes of its local
// processes and exchanges length-delimited envelopes (src/tcp/envelope.h)
// with every other node over nonblocking TCP. A single IO thread per node
// owns all sockets through a Poller (epoll on Linux, poll(2) elsewhere);
// worker threads only queue and poke the IO thread through a wake pipe.
// A one-node transport hosts every process and never opens a peer socket:
// every frame goes straight into a local channel, which makes a one-node
// fleet the threads backend.
//
// Topology: one connection per unordered node pair, dialed by the
// lower-numbered node ("initiator") and re-dialed by it with exponential
// backoff whenever it dies; both directions of traffic share the socket.
// Every connection opens with a kHello carrying node id, incarnation epoch
// and cluster name — a mismatched cluster or a non-hello first envelope is
// a protocol error and drops the connection.
//
// Reliability model, mirroring the paper's assumptions:
//   * A failure token goes straight to every remote node as one kToken,
//     re-sent until that node acks it; the receiver dedupes per sending
//     node incarnation. Token delivery therefore survives connection loss,
//     node kills and scripted partitions — the transport-level reliable
//     broadcast the protocol's liveness argument needs.
//   * Application frames queue per peer (never lost while queued, bounded
//     by outbound_cap_frames; overflow is dropped and counted). Frames
//     already staged into a dying connection's write buffer are lost, like
//     packets on the wire — information loss the protocols already face
//     from drop injection.
//   * Scripted partitions (node-id groups) mask the affected sockets
//     instead of closing them: no reads, no writes, no reconnects until
//     heal, so in-flight bytes are held exactly the way Network holds
//     cross-group traffic in the simulator.
//
// Outbound data plane (zero-copy, lock-free): workers push each outbound
// envelope onto the destination peer's lock-free ring. Control envelopes
// are framed once into pooled, refcounted buffers (src/wire/frame_buf.h);
// a message is encoded by the IO thread as it enters the connection's
// byte stream, through that connection's delta codec
// (src/scale/delta_codec.h), into a head prefix plus payload buffer. The
// IO thread drains each ring into a per-connection segment queue and
// writes with scatter-gather sendmsg (writev) straight out of the pooled
// buffers: no staging copy exists anywhere between encode and the socket.
//
// Thread contract:
//   * attach()/set_peer_port()/start() run before workers spawn; stop()
//     after they join (the destructor stops too).
//   * send()/broadcast_token() for local pid p run on p's worker thread
//     (per-sender fault RNGs stay lock-free); queue pushes are lock-free
//     ring pushes (tokens_mu_ guards only the unacked token sends).
//   * The IO thread owns all sockets, per-connection state (codecs
//     included), the staged segment queues and the received-token dedupe;
//     it shares only the peer rings, the unacked token sends (tokens_mu_),
//     the coordinator status table (status_mu_) and the atomic counters.
//   * The quiescence surface (send_status/peer_statuses/broadcast_shutdown/
//     shutdown_received) is for the node supervisor thread.
//   * queue_depths()/outbound_pending()/outbound_app_and_tokens()/
//     tcp_stats()/counters() read only atomics — the /metrics scrape path
//     never contends with senders or the IO thread.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/live/delivery_counters.h"
#include "src/live/live_channel.h"
#include "src/live/live_clock.h"
#include "src/net/message.h"
#include "src/runtime/env.h"
#include "src/scale/delta_codec.h"
#include "src/tcp/envelope.h"
#include "src/tcp/poller.h"
#include "src/tcp/socket_util.h"
#include "src/tcp/topology.h"
#include "src/telemetry/histogram.h"
#include "src/trace/trace_event.h"
#include "src/util/counter_fields.h"
#include "src/util/mpsc_ring.h"
#include "src/util/rng.h"
#include "src/wire/frame_buf.h"

namespace optrec {

class TcpTransport : public Transport {
 public:
  /// Socket-layer telemetry, kept as relaxed atomics.
  struct TcpStats {
    std::uint64_t connects = 0;          // outbound connections established
    std::uint64_t accepts = 0;           // inbound connections adopted
    std::uint64_t disconnects = 0;       // established connections lost
    std::uint64_t connect_failures = 0;  // dial attempts that failed
    std::uint64_t frames_tx = 0;         // envelopes written
    std::uint64_t frames_rx = 0;         // envelopes decoded
    std::uint64_t bytes_tx = 0;
    std::uint64_t bytes_rx = 0;
    std::uint64_t tokens_tx = 0;          // kToken envelopes queued
    std::uint64_t acks_tx = 0;            // kTokenAck envelopes
    std::uint64_t acks_rx = 0;
    std::uint64_t token_retries = 0;      // unacked kToken re-sends
    std::uint64_t dup_tokens_dropped = 0; // dedupe suppressions
    std::uint64_t backpressure_drops = 0; // app frames over the queue cap
    std::uint64_t protocol_errors = 0;    // FrameError / bad hello
    std::uint64_t writev_calls = 0;       // scatter-gather socket writes
    std::uint64_t ring_overflows = 0;     // peer-ring pushes that spilled
    // Wire codec (docs/SCALING.md).
    std::uint64_t delta_frames_tx = 0;    // message frames through a codec
    std::uint64_t delta_bytes_tx = 0;     // their on-wire frame bytes
    std::uint64_t delta_flat_bytes = 0;   // what flat encoding would cost
    std::uint64_t delta_resyncs = 0;      // codec resets forced by decode

    /// Every counter with its JSON key and /metrics family
    /// (src/util/counter_fields.h).
    static constexpr std::array<CounterField<TcpStats>, 21> kFields{{
        {"connects", &TcpStats::connects, "optrec_tcp_connects_total"},
        {"accepts", &TcpStats::accepts, "optrec_tcp_accepts_total"},
        {"disconnects", &TcpStats::disconnects, "optrec_tcp_disconnects_total"},
        {"connect_failures", &TcpStats::connect_failures,
         "optrec_tcp_connect_failures_total"},
        {"frames_tx", &TcpStats::frames_tx, "optrec_tcp_frames_tx_total"},
        {"frames_rx", &TcpStats::frames_rx, "optrec_tcp_frames_rx_total"},
        {"bytes_tx", &TcpStats::bytes_tx, "optrec_tcp_bytes_tx_total"},
        {"bytes_rx", &TcpStats::bytes_rx, "optrec_tcp_bytes_rx_total"},
        {"tokens_tx", &TcpStats::tokens_tx, "optrec_tcp_tokens_tx_total"},
        {"acks_tx", &TcpStats::acks_tx, "optrec_tcp_acks_tx_total"},
        {"acks_rx", &TcpStats::acks_rx, "optrec_tcp_acks_rx_total"},
        {"token_retries", &TcpStats::token_retries,
         "optrec_tcp_token_retries_total"},
        {"dup_tokens_dropped", &TcpStats::dup_tokens_dropped,
         "optrec_tcp_dup_tokens_dropped_total"},
        {"backpressure_drops", &TcpStats::backpressure_drops,
         "optrec_tcp_backpressure_drops_total"},
        {"protocol_errors", &TcpStats::protocol_errors,
         "optrec_tcp_protocol_errors_total"},
        {"writev_calls", &TcpStats::writev_calls,
         "optrec_tcp_writev_calls_total"},
        {"ring_overflows", &TcpStats::ring_overflows,
         "optrec_tcp_outbound_ring_overflows_total"},
        {"delta_frames_tx", &TcpStats::delta_frames_tx,
         "optrec_piggyback_delta_frames_total"},
        {"delta_bytes_tx", &TcpStats::delta_bytes_tx,
         "optrec_piggyback_delta_bytes_total"},
        {"delta_flat_bytes", &TcpStats::delta_flat_bytes,
         "optrec_piggyback_flat_bytes_total"},
        {"delta_resyncs", &TcpStats::delta_resyncs,
         "optrec_piggyback_delta_resyncs_total"},
    }};
  };

  /// Binds the listener (resolving port 0 immediately) but does not start
  /// the IO thread. `epoch` identifies this node incarnation; 0 derives it
  /// from the wall clock.
  TcpTransport(const LiveClock& clock, const TcpTopology& topo,
               std::uint32_t node_id, std::uint64_t seed,
               std::uint64_t epoch = 0);
  ~TcpTransport() override;

  std::uint16_t listen_port() const { return listen_port_; }
  /// Override a peer's dial port (in-process clusters bind ephemeral ports
  /// and exchange them before start()).
  void set_peer_port(std::uint32_t node, std::uint16_t port);

  /// Spawn the IO thread. Call after attach()/set_peer_port().
  void start();
  /// Join the IO thread and close every socket; idempotent.
  void stop();

  // --- Transport (worker threads; src must be a local pid) ------------
  void attach(ProcessId pid, Endpoint* endpoint) override;
  MsgId send(Message msg) override;
  void broadcast_token(const Token& token) override;

  /// Thread-safe trace recorder (null detaches); set before start().
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Optional IO-loop histograms (registry-owned; null = off). Set before
  /// start(). `writev_batch` observes iovec segments per socket write;
  /// `wake_frames` observes frames drained per IO wakeup.
  void set_io_histograms(telemetry::AtomicHistogram* writev_batch,
                         telemetry::AtomicHistogram* wake_frames) {
    writev_batch_hist_ = writev_batch;
    wake_frames_hist_ = wake_frames;
  }

  /// Auxiliary fd owner served from this node's IO thread — the telemetry
  /// HTTP endpoint rides the existing event loop instead of spawning one.
  class PollClient {
   public:
    virtual ~PollClient() = default;
    /// Register fds with the transport's poller (runs on the caller's
    /// thread, before start(); afterwards the IO thread owns them).
    virtual void attach(Poller& poller) = 0;
    /// Offered every poller event the transport does not recognise;
    /// return true when the fd belonged to this client.
    virtual bool handle(Poller& poller, const Poller::Event& ev) = 0;
  };
  /// Install `client` (attaches immediately). May be called repeatedly —
  /// each node runs several PollClients (telemetry HTTP, service frontend)
  /// off the one IO thread; events are offered in installation order. Call
  /// before start(); every client must outlive stop().
  void set_poll_client(PollClient* client);

  /// Inject an externally-originated application message into a LOCAL
  /// process's delivery stream (service frontends feeding client requests
  /// into the recovery runtime). Unlike send(), the source is a pseudo-pid
  /// outside the fleet (callers use pid == size()), no fault injection
  /// applies, and any thread may call it — including the IO thread itself.
  /// The frame counts toward frames_in_flight, so quiescence accounting
  /// holds. The caller stamps src/dst/send_seq/clock; the id is assigned
  /// here.
  MsgId inject_local(Message msg, SimTime delay = 0);

  std::uint32_t node_id() const { return node_id_; }
  std::uint64_t epoch() const { return epoch_; }
  std::size_t size() const { return topo_.n; }
  bool is_local(ProcessId pid) const { return channels_.at(pid) != nullptr; }
  /// Local pids only.
  LiveChannel& channel(ProcessId pid) { return *channels_.at(pid); }
  Endpoint* endpoint(ProcessId pid) const { return endpoints_.at(pid); }
  const TcpFaultConfig& faults() const { return topo_.faults; }

  /// Delivery accounting. Counts are local-view: sends initiated here,
  /// frames pushed into LOCAL channels (remote-received ones included) and
  /// deliveries handled here — summing every node's stats() yields cluster
  /// totals with nothing double-counted.
  DeliveryCounters& counters() { return counters_; }
  const DeliveryCounters& counters() const { return counters_; }

  /// Outbound work not yet on the wire: queued frames, staged write-buffer
  /// bytes, unacked token sends. The node drains it before closing sockets.
  std::uint64_t outbound_pending() const;
  /// The outbound share of this node's quiet claim: app frames queued for a
  /// peer plus unacked token sends. Control frames (checkpoint markers,
  /// stability vectors, statuses, acks) are left out, as they are from
  /// counters().frames_in_flight().
  std::uint64_t outbound_app_and_tokens() const;

  // --- quiescence protocol (node supervisor thread) -------------------
  /// Queue a status report to the coordinator (node 0). No-op on node 0.
  void send_status(const NodeStatusReport& s);
  /// Coordinator: latest report per node plus its local receive time
  /// (index = node id; the coordinator's own slot stays empty).
  std::vector<std::optional<std::pair<NodeStatusReport, SimTime>>>
  peer_statuses() const;
  /// Coordinator: (re-)queue kShutdown to every peer that has not acked
  /// yet, rate-limited by faults().token_retry. Call every supervisor tick
  /// until all_shutdowns_acked().
  void broadcast_shutdown(std::uint8_t exit_code);
  bool all_shutdowns_acked() const;
  /// True once a kShutdown arrived; *code receives its exit code.
  bool shutdown_received(std::uint8_t* code) const;

  TcpStats tcp_stats() const;
  /// Outbound frames queued per remote node. Lock-free: reads each peer
  /// ring's occupancy atomic, so the /metrics scrape never blocks senders.
  std::vector<std::pair<std::uint32_t, std::size_t>> queue_depths() const;
  /// High-water mark of each peer ring's occupancy (lock-free).
  std::vector<std::pair<std::uint32_t, std::size_t>> queue_high_waters() const;

 private:
  /// A cross-node message awaiting its encode: the IO thread encodes it
  /// against the connection's codec state AT STAGE TIME (flush_peer), so
  /// encode order is exactly stream order — the property the FIFO delta
  /// codec needs. Shared by duplicate copies of the same send.
  struct DeltaSend {
    Message msg;
    std::uint64_t sent_unix_us = 0;
  };

  /// One queued outbound envelope. Control envelopes are pre-framed into
  /// `head` ([len u32][body]); a message carries `delta` and gets `head`
  /// (the per-destination stream prefix: [len u32][body fields][wire-len
  /// varint]) and `payload` (the nested frame) when flush_peer stages it.
  /// The socket writes both back-to-back — byte-identical to
  /// frame_envelope, with zero copies after encode.
  struct OutMsg {
    FrameRef head;
    FrameRef payload;
    bool app = false;
    std::shared_ptr<const DeltaSend> delta;
    std::uint64_t delta_delay = 0;  // per-copy injected delay (micros)
  };

  /// One buffer segment staged for the socket (IO-thread-only). Segments
  /// in the sendq count as "on the wire": they are dropped, like in-flight
  /// packets, when the connection dies.
  struct SendSeg {
    FrameRef buf;
    std::size_t off = 0;
  };

  /// One remote node. Connection state is IO-thread-only; `outq`,
  /// `pending_app` and `shutdown_acked` are shared via lock-free atomics.
  struct Peer {
    std::uint32_t node = 0;
    std::string host;
    std::uint16_t port = 0;
    bool initiator = false;  // we dial iff our node id is lower

    // IO-thread-only.
    Fd fd;
    bool connecting = false;      // nonblocking connect pending
    bool connected = false;       // usable for traffic (our hello sent)
    bool hello_received = false;  // their hello arrived on this connection
    bool blocked = false;         // partition mask active
    EnvelopeReader reader;
    std::deque<SendSeg> sendq;    // staged segments, drained by writev
    std::size_t sendq_bytes = 0;
    SimTime retry_at = 0;   // next dial attempt (initiator)
    SimTime backoff = 0;    // current backoff step
    std::uint64_t peer_epoch = 0;
    /// Per-connection clock delta codecs. Created fresh on every
    /// established connection and destroyed with it — codec state lifetime
    /// IS connection lifetime, so the frames lost with a dying sendq can
    /// never desynchronise a surviving stream. IO-thread-only. Streams are
    /// keyed by source pid.
    std::unique_ptr<scale::DeltaWireEncoder> delta_enc;
    std::unique_ptr<scale::DeltaWireDecoder> delta_dec;

    // Shared, lock-free.
    MpscRing<OutMsg> outq;  // workers push, IO thread pops
    std::atomic<std::size_t> pending_app{0};  // app frames in outq
    SimTime shutdown_sent_at = 0;             // supervisor-thread-only
    std::atomic<bool> shutdown_acked{false};
  };

  /// One kToken awaiting its destination's kTokenAck (under tokens_mu_).
  struct TokenSend {
    OutMsg msg;  // prebuilt envelope frame; retries clone the refs
    SimTime next_retry = 0;
  };

  /// An accepted connection whose hello has not arrived yet.
  struct Accepted {
    Fd fd;
    EnvelopeReader reader;
  };

  SimTime draw_delay(Rng& rng);
  static std::uint64_t unix_micros();
  void wake();
  void push_local(ProcessId src, ProcessId dst, FrameRef wire, bool app,
                  bool token, SimTime delay);
  /// Queue one outbound envelope to `node` (lock-free ring push). App
  /// frames are subject to the backpressure cap; returns false when
  /// dropped.
  bool queue_to_peer(std::uint32_t node, OutMsg msg);
  /// Head-only OutMsg for a control envelope (hello/status/shutdown/token
  /// and their acks).
  static OutMsg control_msg(const Envelope& e);

  // IO-thread internals.
  void io_main();
  void io_step();
  void handle_listener();
  void handle_accepted(int fd, const Poller::Event& ev);
  void handle_peer(Peer& p, const Poller::Event& ev);
  void start_connect(Peer& p);
  void on_peer_established(Peer& p);
  void close_peer(Peer& p, bool was_protocol_error);
  void drain_reader(Peer& p);
  void process_envelope(Peer& p, Envelope& e);
  /// Drain the peer ring into the sendq (bounded by the high-water mark)
  /// and write staged segments with scatter-gather sendmsg. Returns the
  /// number of frames newly staged.
  std::size_t flush_peer(Peer& p);
  void update_partition_masks();
  /// Re-send every unacked token whose retry time has come.
  void retry_tokens();
  bool link_blocked_now(std::uint32_t peer_node) const;
  void update_interest(Peer& p);

  void process_token(Peer& p, Envelope& e);
  void process_token_ack(const Peer& p, const Envelope& e);
  /// Stage an OutMsg whose delta field is set: encode the message against
  /// the connection codec and build the head/payload refs in place.
  void materialize_delta(Peer& p, OutMsg& m);

  const LiveClock& clock_;
  TcpTopology topo_;
  const std::uint32_t node_id_;
  const std::uint64_t epoch_;
  TraceRecorder* trace_ = nullptr;
  std::vector<PollClient*> poll_clients_;

  Fd listener_;
  std::uint16_t listen_port_ = 0;
  Fd wake_rd_, wake_wr_;

  /// Local pids get a channel + fault RNG; remote slots stay null.
  std::vector<std::unique_ptr<LiveChannel>> channels_;
  std::vector<Endpoint*> endpoints_;
  std::vector<std::unique_ptr<Rng>> send_rng_;

  std::vector<std::unique_ptr<Peer>> peers_;  // index = node id; self null
  std::unordered_map<int, std::uint32_t> fd_to_node_;
  std::unordered_map<int, Accepted> accepted_;
  std::unique_ptr<Poller> poller_;

  std::thread io_thread_;
  std::atomic<bool> io_running_{false};
  std::atomic<bool> stop_{false};

  /// Unacked token sends: the ONLY shared state left behind a lock — it is
  /// touched a handful of times per failure, not per message; the hot path
  /// never takes tokens_mu_.
  std::mutex tokens_mu_;
  /// By (destination node, token seq).
  std::map<std::pair<std::uint32_t, std::uint64_t>, TokenSend> token_sends_;
  std::uint64_t next_token_seq_ = 1;  // tokens_mu_
  /// token_sends_.size() mirror for the lock-free quiescence read.
  std::atomic<std::uint64_t> tokens_pending_{0};
  /// Token seqs received, by (sending node, that connection's hello epoch)
  /// (IO-thread-only). The epoch is load-bearing: a SIGKILLed+respawned
  /// node restarts its seqs at 1, and without it the previous
  /// incarnation's set would swallow the new incarnation's first tokens.
  /// A node's older epochs are dropped once a newer one sends a token.
  std::map<std::pair<std::uint32_t, std::uint64_t>,
           std::unordered_set<std::uint64_t>> tokens_seen_;
  /// Fault-delay stream for the local copies of received tokens, where no
  /// sending worker's RNG is on the stack (IO-thread-only).
  Rng token_rng_;
  /// Bytes staged in connection sendqs (IO thread updates; pure gauge).
  std::atomic<std::uint64_t> outbuf_bytes_{0};

  telemetry::AtomicHistogram* writev_batch_hist_ = nullptr;
  telemetry::AtomicHistogram* wake_frames_hist_ = nullptr;

  mutable std::mutex status_mu_;
  std::vector<std::optional<std::pair<NodeStatusReport, SimTime>>> statuses_;

  std::atomic<bool> shutdown_flag_{false};
  std::atomic<std::uint8_t> shutdown_code_{0};

  std::atomic<MsgId> next_msg_id_{1};
  DeliveryCounters counters_;

  /// TcpStats rows but ring_overflows, which tcp_stats() reads from the
  /// peer rings.
  AtomicCounters<TcpStats> stats_;
};

}  // namespace optrec
