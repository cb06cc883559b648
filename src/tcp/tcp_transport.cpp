#include "src/tcp/tcp_transport.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "src/util/log.h"
#include "src/wire/wire_codec.h"

namespace optrec {

namespace {

/// Stop staging ring frames into a connection's sendq past this many
/// bytes; the rest stays in the (loss-free) ring until the socket drains.
constexpr std::size_t kOutbufHighWater = 1u << 20;

constexpr std::size_t kRecvChunk = 64 * 1024;

/// Segments per scatter-gather write. Well under IOV_MAX (1024); one
/// sendmsg rarely accepts more than a socket buffer anyway.
constexpr std::size_t kMaxIov = 64;

}  // namespace

TcpTransport::TcpTransport(const LiveClock& clock, const TcpTopology& topo,
                           std::uint32_t node_id, std::uint64_t seed,
                           std::uint64_t epoch)
    : clock_(clock),
      topo_(topo),
      node_id_(node_id),
      epoch_(epoch == 0 ? unix_micros() : epoch),
      // Independent per-node stream: relay delays must not perturb (or be
      // perturbed by) the per-sender fault streams.
      relay_rng_(seed ^ (0x9e3779b97f4a7c15ull * (node_id + 1))) {
  topo_.validate();
  if (node_id_ >= topo_.nodes.size()) {
    throw std::invalid_argument("TcpTransport: node id out of range");
  }
  channels_.resize(topo_.n);
  endpoints_.resize(topo_.n, nullptr);
  send_rng_.resize(topo_.n);
  // Per-sender streams seeded like LiveTransport: fork() in pid order from
  // one base RNG, so a process's fault stream is a function of (seed, pid),
  // not of which node hosts it.
  Rng base(seed);
  for (ProcessId pid = 0; pid < topo_.n; ++pid) {
    Rng forked = base.fork();
    if (topo_.node_of(pid) == node_id_) {
      channels_[pid] = std::make_unique<LiveChannel>();
      send_rng_[pid] = std::make_unique<Rng>(forked);
    }
  }

  const TcpNodeSpec& self = topo_.node(node_id_);
  listener_ = listen_on(self.host, self.port);
  listen_port_ = local_port(listener_.get());

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    throw std::system_error(errno, std::generic_category(), "pipe");
  }
  wake_rd_.reset(pipe_fds[0]);
  wake_wr_.reset(pipe_fds[1]);
  set_nonblocking(wake_rd_.get());
  set_nonblocking(wake_wr_.get());

  peers_.resize(topo_.nodes.size());
  for (std::uint32_t node = 0; node < topo_.nodes.size(); ++node) {
    if (node == node_id_) continue;
    auto p = std::make_unique<Peer>();
    p->node = node;
    p->host = topo_.node(node).host;
    p->port = topo_.node(node).port;
    p->initiator = node_id_ < node;
    peers_[node] = std::move(p);
  }
  statuses_.resize(topo_.nodes.size());

  poller_ = std::make_unique<Poller>();
  poller_->add(wake_rd_.get(), /*want_read=*/true, /*want_write=*/false);
  poller_->add(listener_.get(), /*want_read=*/true, /*want_write=*/false);
}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::set_peer_port(std::uint32_t node, std::uint16_t port) {
  if (io_running_.load(std::memory_order_acquire)) {
    throw std::logic_error("set_peer_port after start()");
  }
  if (node == node_id_) return;
  peers_.at(node)->port = port;
  topo_.nodes.at(node).port = port;
}

void TcpTransport::set_poll_client(PollClient* client) {
  if (io_running_.load(std::memory_order_acquire)) {
    throw std::logic_error("set_poll_client after start()");
  }
  if (client != nullptr) {
    poll_clients_.push_back(client);
    client->attach(*poller_);
  }
}

void TcpTransport::start() {
  if (io_running_.exchange(true, std::memory_order_acq_rel)) return;
  stop_.store(false, std::memory_order_release);
  io_thread_ = std::thread([this] { io_main(); });
}

void TcpTransport::stop() {
  if (io_thread_.joinable()) {
    stop_.store(true, std::memory_order_release);
    wake();
    io_thread_.join();
  }
  io_running_.store(false, std::memory_order_release);
  for (auto& p : peers_) {
    if (p != nullptr && p->fd.valid()) close_peer(*p, false);
  }
  accepted_.clear();
}

void TcpTransport::attach(ProcessId pid, Endpoint* endpoint) {
  if (endpoint == nullptr) throw std::invalid_argument("attach: null endpoint");
  if (!is_local(pid)) {
    throw std::invalid_argument("attach: pid not hosted on this node");
  }
  endpoints_.at(pid) = endpoint;
}

SimTime TcpTransport::draw_delay(Rng& rng) {
  return rng.uniform_range(topo_.faults.min_delay, topo_.faults.max_delay);
}

std::uint64_t TcpTransport::unix_micros() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ull;
}

void TcpTransport::wake() {
  const char b = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  [[maybe_unused]] const ssize_t rc = ::write(wake_wr_.get(), &b, 1);
}

void TcpTransport::push_local(ProcessId src, ProcessId dst, FrameRef wire,
                              bool app, bool token, SimTime delay) {
  LiveFrame f;
  f.kind = LiveFrame::Kind::kWire;
  f.src = src;
  f.wire = std::move(wire);
  f.app = app;
  f.token = token;
  f.sent_at = clock_.now();
  f.not_before = f.sent_at + delay;
  counters_.note_pushed();
  channels_.at(dst)->push(std::move(f));
}

Envelope TcpTransport::wire_envelope(ProcessId src, ProcessId dst, bool app,
                                     bool token, SimTime delay) {
  Envelope e;
  e.kind = EnvelopeKind::kWire;
  e.src_node = node_id_;
  e.src_pid = src;
  e.dst_pid = dst;
  e.app = app;
  e.token = token;
  e.sent_unix_us = unix_micros();
  e.delay_us = delay;
  return e;
}

TcpTransport::OutMsg TcpTransport::control_msg(const Envelope& e) {
  OutMsg m;
  m.head = FramePool::global().wrap(frame_envelope(e));
  return m;
}

TcpTransport::OutMsg TcpTransport::wire_msg(const Envelope& e,
                                            FrameRef payload, bool app) {
  OutMsg m;
  m.head =
      FramePool::global().wrap(frame_wire_envelope_prefix(e, payload.size()));
  m.payload = std::move(payload);
  m.app = app;
  return m;
}

bool TcpTransport::queue_to_peer(std::uint32_t node, OutMsg msg) {
  Peer& p = *peers_.at(node);
  if (msg.app) {
    // Claim-then-check keeps the cap exact without a lock: concurrent
    // senders that both land over the cap both back out.
    const std::size_t n =
        p.pending_app.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (n > topo_.faults.outbound_cap_frames) {
      p.pending_app.fetch_sub(1, std::memory_order_acq_rel);
      backpressure_drops_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  p.outq.push(std::move(msg));
  return true;
}

MsgId TcpTransport::inject_local(Message msg, SimTime delay) {
  if (msg.dst >= topo_.n || !is_local(msg.dst)) {
    throw std::invalid_argument("inject_local: dst not hosted on this node");
  }
  msg.id = (static_cast<MsgId>(node_id_ + 1) << 40) |
           next_msg_id_.fetch_add(1, std::memory_order_relaxed);
  DeliveryCounters::add(counters_.messages_sent);
  DeliveryCounters::add(counters_.app_messages_sent);
  DeliveryCounters::add(counters_.message_bytes, message_wire_bytes(msg));
  if (trace_) trace_->emit(send_event(clock_.now(), msg));
  FrameRef wire = FramePool::global().wrap(encode_message_frame(msg));
  push_local(msg.src, msg.dst, std::move(wire), /*app=*/true, /*token=*/false,
             delay);
  return msg.id;
}

MsgId TcpTransport::send(Message msg) {
  if (msg.src == msg.dst) throw std::invalid_argument("send: src == dst");
  if (msg.dst >= topo_.n) throw std::out_of_range("send: unknown destination");
  if (!is_local(msg.src)) {
    throw std::invalid_argument("send: src not hosted on this node");
  }
  // Node-unique id space: high bits are the node, low bits a local counter
  // (40 bits of messages per node before wrap — plenty).
  msg.id = (static_cast<MsgId>(node_id_ + 1) << 40) |
           next_msg_id_.fetch_add(1, std::memory_order_relaxed);
  DeliveryCounters::add(counters_.messages_sent);
  DeliveryCounters::add(counters_.message_bytes, message_wire_bytes(msg));
  if (trace_) trace_->emit(send_event(clock_.now(), msg));

  Rng& rng = *send_rng_.at(msg.src);
  const bool app = msg.kind == MessageKind::kApp;
  if (app) {
    DeliveryCounters::add(counters_.app_messages_sent);
    if (rng.chance(topo_.faults.drop_prob)) {
      DeliveryCounters::add(counters_.messages_dropped);
      return msg.id;
    }
  }
  const std::uint32_t dst_node = topo_.node_of(msg.dst);
  const bool local = dst_node == node_id_;

  if (!local && topo_.scale.delta_piggyback) {
    // Defer encoding to the IO thread: the frame must be delta-encoded in
    // exactly the order it enters the connection's stream, which only the
    // single stager (flush_peer) can guarantee. No flat encode happens at
    // all on this path.
    const MsgId id = msg.id;
    auto d = std::make_shared<DeltaSend>();
    d->src_pid = msg.src;
    d->dst_pid = msg.dst;
    d->sent_unix_us = unix_micros();
    d->flat_size = message_wire_bytes(msg);
    d->app = app;
    d->msg = std::move(msg);
    const auto queue_delta = [&](SimTime delay) {
      OutMsg m;
      m.app = app;
      m.delta = d;
      m.delta_delay = delay;
      if (!queue_to_peer(dst_node, std::move(m))) {
        DeliveryCounters::add(counters_.messages_dropped);
      }
    };
    if (app && rng.chance(topo_.faults.duplicate_prob)) {
      DeliveryCounters::add(counters_.messages_duplicated);
      queue_delta(draw_delay(rng));
    }
    queue_delta(draw_delay(rng));
    wake();
    return id;
  }

  // Encode once into a pooled buffer; duplicates and the remote head/
  // payload split all share it.
  FrameRef wire = FramePool::global().wrap(encode_message_frame(msg));

  const auto deliver = [&](FrameRef w, SimTime delay) {
    if (local) {
      push_local(msg.src, msg.dst, std::move(w), app, /*token=*/false, delay);
      return;
    }
    const Envelope e =
        wire_envelope(msg.src, msg.dst, app, /*token=*/false, delay);
    if (!queue_to_peer(dst_node, wire_msg(e, std::move(w), app))) {
      // Backpressure loss is transport loss: account it like a drop so
      // merged cluster stats still balance.
      DeliveryCounters::add(counters_.messages_dropped);
    }
  };

  if (app && rng.chance(topo_.faults.duplicate_prob)) {
    DeliveryCounters::add(counters_.messages_duplicated);
    deliver(wire, draw_delay(rng));
  }
  deliver(std::move(wire), draw_delay(rng));
  if (!local) wake();
  return msg.id;
}

void TcpTransport::send_token_tracked(std::uint32_t dst_node, Envelope e,
                                      FrameRef payload) {
  e.token_seq = next_token_seq_.fetch_add(1, std::memory_order_relaxed);
  OutMsg m = wire_msg(e, std::move(payload), /*app=*/false);
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    PendingTokenSend pending;
    pending.node = dst_node;
    pending.msg = m;  // ref clones; retries share the same buffers
    pending.next_retry = clock_.now() + topo_.faults.token_retry;
    unacked_tokens_.emplace(e.token_seq, std::move(pending));
  }
  unacked_count_.fetch_add(1, std::memory_order_acq_rel);
  queue_to_peer(dst_node, std::move(m));
}

void TcpTransport::broadcast_token(const Token& token) {
  DeliveryCounters::add(counters_.token_broadcasts);
  if (trace_) trace_->emit(token_broadcast_event(clock_.now(), token));
  Rng& rng = *send_rng_.at(token.from);
  const std::size_t bytes = token_wire_bytes(token);
  // One encode for the whole broadcast: every local channel frame and
  // every remote envelope payload is a clone of this ref.
  FrameRef wire = FramePool::global().wrap(encode_token_frame(token));
  if (topo_.scale.token_fanout >= 2 && topo_.nodes.size() > 1) {
    broadcast_token_hierarchical(token, wire, rng);
    return;
  }
  bool remote = false;
  for (ProcessId dst = 0; dst < topo_.n; ++dst) {
    if (dst == token.from) continue;
    DeliveryCounters::add(counters_.tokens_sent);
    DeliveryCounters::add(counters_.token_bytes, bytes);
    const SimTime delay = draw_delay(rng);
    const std::uint32_t dst_node = topo_.node_of(dst);
    if (dst_node == node_id_) {
      push_local(token.from, dst, wire, /*app=*/false, /*token=*/true, delay);
    } else {
      remote = true;
      send_token_tracked(dst_node,
                         wire_envelope(token.from, dst, /*app=*/false,
                                       /*token=*/true, delay),
                         wire);
    }
  }
  if (remote) wake();
}

void TcpTransport::broadcast_token_hierarchical(const Token& token,
                                                const FrameRef& wire,
                                                Rng& rng) {
  // The logical broadcast still addresses every remote pid — the counters
  // stay flat-mode-compatible so cluster-summed Network stats balance — but
  // the wire carries one relay per top-level subtree instead of one tracked
  // send per remote node.
  const std::size_t bytes = token_wire_bytes(token);
  bool remote = false;
  for (ProcessId dst = 0; dst < topo_.n; ++dst) {
    if (dst == token.from) continue;
    DeliveryCounters::add(counters_.tokens_sent);
    DeliveryCounters::add(counters_.token_bytes, bytes);
    const SimTime delay = draw_delay(rng);
    if (topo_.node_of(dst) == node_id_) {
      push_local(token.from, dst, wire, /*app=*/false, /*token=*/true, delay);
    } else {
      remote = true;
    }
  }
  if (!remote) return;
  const auto plan = scale::plan_broadcast(
      node_id_, static_cast<std::uint32_t>(topo_.nodes.size()),
      topo_.scale.token_fanout);
  Envelope tmpl;
  tmpl.kind = EnvelopeKind::kTokenRelay;
  tmpl.src_node = node_id_;
  tmpl.origin_node = node_id_;
  tmpl.epoch = epoch_;
  tmpl.token_seq = next_token_seq_.fetch_add(1, std::memory_order_relaxed);
  tmpl.fanout = topo_.scale.token_fanout;
  tmpl.src_pid = token.from;
  tmpl.wire = Bytes(wire.data(), wire.data() + wire.size());
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    const std::uint64_t agg_id = next_agg_id_++;
    RelayAgg agg;
    agg.pending = plan.size();
    relay_aggs_.emplace(agg_id, agg);
    for (const scale::RelayAssignment& chunk : plan) {
      start_relay_locked(chunk, tmpl, agg_id);
    }
  }
  wake();
}

void TcpTransport::start_relay_locked(const scale::RelayAssignment& chunk,
                                      const Envelope& tmpl,
                                      std::uint64_t agg_id) {
  RelayTask task;
  task.dst_node = chunk.head;
  task.env = tmpl;
  task.env.relay_id = next_relay_id_++;
  // Fresh fault delay per chunk (and, recursively, per relay level):
  // sharing one draw across the whole remote tree would collapse the
  // delivery-reordering variance the fault matrix relies on.
  task.env.delay_us = draw_delay(relay_rng_);
  task.env.subtree = chunk.subtree;
  task.subtree = chunk.subtree;
  task.agg = agg_id;
  task.next_retry = clock_.now() + topo_.faults.token_retry;
  task.msg = control_msg(task.env);
  relays_tx_.fetch_add(1, std::memory_order_relaxed);
  relay_pending_.fetch_add(1, std::memory_order_acq_rel);
  OutMsg first = task.msg;  // ref clone; retries share the same buffers
  const std::uint64_t id = task.env.relay_id;
  relay_tasks_.emplace(id, std::move(task));
  queue_to_peer(chunk.head, std::move(first));
}

void TcpTransport::send_token(ProcessId dst, const Token& token) {
  DeliveryCounters::add(counters_.tokens_sent);
  DeliveryCounters::add(counters_.token_bytes, token_wire_bytes(token));
  Rng& rng = *send_rng_.at(token.from);
  const SimTime delay = draw_delay(rng);
  FrameRef wire = FramePool::global().wrap(encode_token_frame(token));
  const std::uint32_t dst_node = topo_.node_of(dst);
  if (dst_node == node_id_) {
    push_local(token.from, dst, std::move(wire), /*app=*/false, /*token=*/true,
               delay);
    return;
  }
  send_token_tracked(dst_node,
                     wire_envelope(token.from, dst, /*app=*/false,
                                   /*token=*/true, delay),
                     std::move(wire));
  wake();
}

std::uint64_t TcpTransport::outbound_pending() const {
  // Lock-free: ring occupancy atomics + the unacked mirror + staged bytes.
  std::uint64_t pending = 0;
  for (const auto& p : peers_) {
    if (p != nullptr) pending += p->outq.size();
  }
  pending += unacked_count_.load(std::memory_order_acquire);
  pending += relay_pending_.load(std::memory_order_acquire);
  return pending + outbuf_bytes_.load(std::memory_order_acquire);
}

void TcpTransport::send_status(const NodeStatusReport& s) {
  if (node_id_ == 0) return;
  Envelope e;
  e.kind = EnvelopeKind::kStatus;
  e.src_node = node_id_;
  e.status = s;
  queue_to_peer(0, control_msg(e));
  wake();
}

std::vector<std::optional<std::pair<NodeStatusReport, SimTime>>>
TcpTransport::peer_statuses() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return statuses_;
}

void TcpTransport::broadcast_shutdown(std::uint8_t exit_code) {
  const SimTime now = clock_.now();
  bool queued = false;
  for (auto& p : peers_) {
    if (p == nullptr || p->shutdown_acked.load(std::memory_order_acquire)) {
      continue;
    }
    if (p->shutdown_sent_at != 0 &&
        now - p->shutdown_sent_at < topo_.faults.token_retry) {
      continue;
    }
    p->shutdown_sent_at = now;
    Envelope e;
    e.kind = EnvelopeKind::kShutdown;
    e.src_node = node_id_;
    e.exit_code = exit_code;
    queue_to_peer(p->node, control_msg(e));
    queued = true;
  }
  if (queued) wake();
}

bool TcpTransport::all_shutdowns_acked() const {
  for (const auto& p : peers_) {
    if (p != nullptr && !p->shutdown_acked.load(std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

bool TcpTransport::shutdown_received(std::uint8_t* code) const {
  if (!shutdown_flag_.load(std::memory_order_acquire)) return false;
  *code = shutdown_code_.load(std::memory_order_acquire);
  return true;
}

TcpTransport::TcpStats TcpTransport::tcp_stats() const {
  TcpStats s;
  s.connects = connects_.load(std::memory_order_relaxed);
  s.accepts = accepts_.load(std::memory_order_relaxed);
  s.disconnects = disconnects_.load(std::memory_order_relaxed);
  s.connect_failures = connect_failures_.load(std::memory_order_relaxed);
  s.frames_tx = frames_tx_.load(std::memory_order_relaxed);
  s.frames_rx = frames_rx_.load(std::memory_order_relaxed);
  s.bytes_tx = bytes_tx_.load(std::memory_order_relaxed);
  s.bytes_rx = bytes_rx_.load(std::memory_order_relaxed);
  s.acks_tx = acks_tx_.load(std::memory_order_relaxed);
  s.acks_rx = acks_rx_.load(std::memory_order_relaxed);
  s.token_retries = token_retries_.load(std::memory_order_relaxed);
  s.dup_tokens_dropped = dup_tokens_dropped_.load(std::memory_order_relaxed);
  s.backpressure_drops = backpressure_drops_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.writev_calls = writev_calls_.load(std::memory_order_relaxed);
  s.delta_frames_tx = delta_frames_tx_.load(std::memory_order_relaxed);
  s.delta_bytes_tx = delta_bytes_tx_.load(std::memory_order_relaxed);
  s.delta_flat_bytes = delta_flat_bytes_.load(std::memory_order_relaxed);
  s.delta_resyncs = delta_resyncs_.load(std::memory_order_relaxed);
  s.relays_tx = relays_tx_.load(std::memory_order_relaxed);
  s.relay_splits = relay_splits_.load(std::memory_order_relaxed);
  for (const auto& p : peers_) {
    if (p != nullptr) s.ring_overflows += p->outq.overflow_pushes();
  }
  return s;
}

std::vector<std::pair<std::uint32_t, std::size_t>>
TcpTransport::queue_depths() const {
  std::vector<std::pair<std::uint32_t, std::size_t>> out;
  for (const auto& p : peers_) {
    if (p != nullptr) out.emplace_back(p->node, p->outq.size());
  }
  return out;
}

std::vector<std::pair<std::uint32_t, std::size_t>>
TcpTransport::queue_high_waters() const {
  std::vector<std::pair<std::uint32_t, std::size_t>> out;
  for (const auto& p : peers_) {
    if (p != nullptr) out.emplace_back(p->node, p->outq.high_water());
  }
  return out;
}

// ---------------------------------------------------------------------
// IO thread
// ---------------------------------------------------------------------

void TcpTransport::io_main() {
  while (!stop_.load(std::memory_order_acquire)) {
    try {
      io_step();
    } catch (const std::exception& e) {
      // Keep the node alive on transient syscall failures; back off so a
      // persistent one cannot spin the thread hot.
      OPTREC_LOG(kWarn) << "tcp io: " << e.what();
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      ::usleep(10000);
    }
  }
}

void TcpTransport::io_step() {
  const auto& events = poller_->wait(5);
  for (const Poller::Event& ev : events) {
    if (ev.fd == wake_rd_.get()) {
      char buf[256];
      while (::read(wake_rd_.get(), buf, sizeof(buf)) > 0) {
      }
      continue;
    }
    if (ev.fd == listener_.get()) {
      handle_listener();
      continue;
    }
    if (accepted_.count(ev.fd) != 0) {
      handle_accepted(ev.fd, ev);
      continue;
    }
    bool claimed = false;
    for (PollClient* client : poll_clients_) {
      if (client->handle(*poller_, ev)) {
        claimed = true;
        break;
      }
    }
    if (claimed) continue;
    const auto it = fd_to_node_.find(ev.fd);
    if (it != fd_to_node_.end()) handle_peer(*peers_[it->second], ev);
  }

  update_partition_masks();
  const SimTime now = clock_.now();
  for (auto& p : peers_) {
    if (p == nullptr) continue;
    if (p->initiator && !p->fd.valid() && !p->blocked && now >= p->retry_at) {
      start_connect(*p);
    }
  }
  retry_unacked_tokens();
  std::size_t staged = 0;
  for (auto& p : peers_) {
    if (p != nullptr && p->connected) staged += flush_peer(*p);
  }
  if (staged != 0 && wake_frames_hist_ != nullptr) {
    wake_frames_hist_->observe(static_cast<double>(staged));
  }
}

void TcpTransport::handle_listener() {
  for (;;) {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      OPTREC_LOG(kWarn) << "tcp accept: " << std::strerror(errno);
      return;
    }
    try {
      set_nonblocking(fd);
      set_tcp_nodelay(fd);
    } catch (const std::exception&) {
      ::close(fd);
      continue;
    }
    Accepted acc;
    acc.fd.reset(fd);
    accepted_.emplace(fd, std::move(acc));
    poller_->add(fd, /*want_read=*/true, /*want_write=*/false);
  }
}

void TcpTransport::handle_accepted(int fd, const Poller::Event& ev) {
  Accepted& acc = accepted_.at(fd);
  const auto drop = [&] {
    poller_->remove(fd);
    accepted_.erase(fd);
  };
  if (ev.broken) {
    drop();
    return;
  }
  std::uint8_t buf[kRecvChunk];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_rx_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      acc.reader.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    drop();  // EOF or hard error before identification
    return;
  }
  std::optional<Bytes> body;
  try {
    body = acc.reader.next();
    if (!body) return;  // hello not complete yet
    const Envelope hello = decode_envelope(*body);
    if (hello.kind != EnvelopeKind::kHello ||
        hello.cluster != topo_.cluster || hello.src_node == node_id_ ||
        hello.src_node >= peers_.size()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      drop();
      return;
    }
    Peer& p = *peers_[hello.src_node];
    if (p.fd.valid()) close_peer(p, false);  // stale connection superseded
    // Adopt: the accepted fd (already read-registered) becomes the peer
    // connection, its reader keeps any bytes that followed the hello.
    p.fd = std::move(acc.fd);
    p.reader = std::move(acc.reader);
    accepted_.erase(fd);
    fd_to_node_[fd] = p.node;
    p.hello_received = true;
    p.peer_epoch = hello.epoch;
    accepts_.fetch_add(1, std::memory_order_relaxed);
    frames_rx_.fetch_add(1, std::memory_order_relaxed);
    on_peer_established(p);
    if (p.fd.valid()) drain_reader(p);
  } catch (const FrameError&) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    drop();
  }
}

void TcpTransport::start_connect(Peer& p) {
  bool in_progress = false;
  try {
    p.fd = connect_nonblocking(p.host, p.port, &in_progress);
  } catch (const std::exception&) {
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    p.backoff = p.backoff == 0
                    ? topo_.faults.reconnect_min
                    : std::min(topo_.faults.reconnect_max, p.backoff * 2);
    p.retry_at = clock_.now() + p.backoff;
    return;
  }
  fd_to_node_[p.fd.get()] = p.node;
  poller_->add(p.fd.get(), /*want_read=*/false, /*want_write=*/true);
  if (in_progress) {
    p.connecting = true;
  } else {
    connects_.fetch_add(1, std::memory_order_relaxed);
    on_peer_established(p);
  }
}

void TcpTransport::on_peer_established(Peer& p) {
  p.connecting = false;
  p.connected = true;
  p.backoff = 0;
  if (topo_.scale.delta_piggyback) {
    // Fresh codecs per connection session: the first frame of every stream
    // is a full clock, and anything that died staged in the old sendq is
    // forgotten by both ends symmetrically (the peer saw the same teardown).
    p.delta_enc = std::make_unique<scale::DeltaWireEncoder>(
        topo_.n, epoch_, scale::DeltaMode::kFifo);
    p.delta_dec = std::make_unique<scale::DeltaWireDecoder>(topo_.n);
  }
  // Hello first: a fresh connection has an empty sendq, so the hello is
  // guaranteed to precede any staged traffic.
  Envelope hello;
  hello.kind = EnvelopeKind::kHello;
  hello.src_node = node_id_;
  hello.epoch = epoch_;
  hello.cluster = topo_.cluster;
  FrameRef framed = FramePool::global().wrap(frame_envelope(hello));
  outbuf_bytes_.fetch_add(framed.size(), std::memory_order_relaxed);
  frames_tx_.fetch_add(1, std::memory_order_relaxed);
  p.sendq_bytes += framed.size();
  p.sendq.push_back({std::move(framed), 0});
  flush_peer(p);
}

void TcpTransport::close_peer(Peer& p, bool was_protocol_error) {
  if (was_protocol_error) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  if (p.fd.valid()) {
    poller_->remove(p.fd.get());
    fd_to_node_.erase(p.fd.get());
    p.fd.reset();
  }
  if (p.connected) disconnects_.fetch_add(1, std::memory_order_relaxed);
  // Staged segments are "on the wire": lost with the connection, exactly
  // like bytes the kernel had buffered. The ring survives untouched.
  if (p.sendq_bytes != 0) {
    outbuf_bytes_.fetch_sub(p.sendq_bytes, std::memory_order_relaxed);
  }
  p.connected = false;
  p.connecting = false;
  p.hello_received = false;
  p.reader = EnvelopeReader();
  p.sendq.clear();
  p.sendq_bytes = 0;
  p.delta_enc.reset();
  p.delta_dec.reset();
  if (p.initiator) {
    p.backoff = p.backoff == 0
                    ? topo_.faults.reconnect_min
                    : std::min(topo_.faults.reconnect_max, p.backoff * 2);
    p.retry_at = clock_.now() + p.backoff;
  }
}

void TcpTransport::handle_peer(Peer& p, const Poller::Event& ev) {
  if (p.connecting) {
    if (!ev.writable && !ev.broken) return;
    const int err = take_socket_error(p.fd.get());
    if (err != 0 || ev.broken) {
      connect_failures_.fetch_add(1, std::memory_order_relaxed);
      close_peer(p, false);
      return;
    }
    connects_.fetch_add(1, std::memory_order_relaxed);
    on_peer_established(p);
    return;
  }
  if (ev.readable && !p.blocked) {
    std::uint8_t buf[kRecvChunk];
    for (;;) {
      const ssize_t n = ::recv(p.fd.get(), buf, sizeof(buf), 0);
      if (n > 0) {
        bytes_rx_.fetch_add(static_cast<std::uint64_t>(n),
                            std::memory_order_relaxed);
        p.reader.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_peer(p, false);  // EOF or hard error
      return;
    }
    drain_reader(p);
    if (!p.fd.valid()) return;
  }
  if (ev.broken) {
    close_peer(p, false);
    return;
  }
  if (ev.writable) flush_peer(p);
}

void TcpTransport::drain_reader(Peer& p) {
  try {
    for (;;) {
      std::optional<Bytes> body = p.reader.next();
      if (!body) return;
      frames_rx_.fetch_add(1, std::memory_order_relaxed);
      Envelope e = decode_envelope(*body);
      process_envelope(p, e);
      if (!p.fd.valid()) return;  // process_envelope dropped the connection
    }
  } catch (const FrameError&) {
    close_peer(p, /*was_protocol_error=*/true);
  }
}

void TcpTransport::process_envelope(Peer& p, Envelope& e) {
  if (e.kind == EnvelopeKind::kHello) {
    if (e.cluster != topo_.cluster || e.src_node != p.node) {
      close_peer(p, /*was_protocol_error=*/true);
      return;
    }
    p.hello_received = true;
    p.peer_epoch = e.epoch;
    return;
  }
  if (!p.hello_received) {
    close_peer(p, /*was_protocol_error=*/true);
    return;
  }
  switch (e.kind) {
    case EnvelopeKind::kWire: {
      if (!e.wire.empty() && e.wire[0] == scale::kDeltaMessageTag) {
        // Delta-piggybacked message frame: reconstruct the flat frame here,
        // on the connection that defines the stream order, so workers only
        // ever see stateless frames.
        if (p.delta_dec == nullptr || e.src_pid >= topo_.n) {
          close_peer(p, /*was_protocol_error=*/true);
          return;
        }
        try {
          const Message m = p.delta_dec->decode_from(e.src_pid, e.wire);
          e.wire = encode_message_frame(m);
        } catch (const scale::DeltaResyncRequired&) {
          // Recoverable desync (e.g. we adopted a superseding connection the
          // peer was still staging onto): drop the connection; reconnecting
          // resets both codecs and the next frame per stream is full.
          delta_resyncs_.fetch_add(1, std::memory_order_relaxed);
          close_peer(p, /*was_protocol_error=*/false);
          return;
        } catch (const DecodeError&) {
          close_peer(p, /*was_protocol_error=*/true);
          return;
        }
      }
      if (e.token_seq != 0) {
        // Ack every copy (retries included); deliver only the first.
        Envelope ack;
        ack.kind = EnvelopeKind::kTokenAck;
        ack.src_node = node_id_;
        ack.epoch = p.peer_epoch;  // echo the sender incarnation
        ack.ack_seq = e.token_seq;
        acks_tx_.fetch_add(1, std::memory_order_relaxed);
        queue_to_peer(p.node, control_msg(ack));
        if (!p.seen_tokens[p.peer_epoch].insert(e.token_seq).second) {
          dup_tokens_dropped_.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      if (e.dst_pid >= topo_.n || !is_local(e.dst_pid)) {
        // Misrouted: a topology mismatch, not a stream corruption — count
        // it, drop the frame, keep the connection.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      LiveFrame f;
      f.kind = LiveFrame::Kind::kWire;
      f.src = e.src_pid;
      f.wire = FramePool::global().wrap(std::move(e.wire));
      f.app = e.app;
      f.token = e.token;
      const SimTime now = clock_.now();
      const std::uint64_t unix_now = unix_micros();
      const std::uint64_t elapsed =
          unix_now > e.sent_unix_us ? unix_now - e.sent_unix_us : 0;
      f.sent_at = now > elapsed ? now - elapsed : 0;
      f.not_before = now + e.delay_us;
      counters_.note_pushed();
      channels_[e.dst_pid]->push(std::move(f));
      return;
    }
    case EnvelopeKind::kTokenAck: {
      acks_rx_.fetch_add(1, std::memory_order_relaxed);
      if (e.epoch != epoch_) return;  // receipt for a previous incarnation
      std::lock_guard<std::mutex> lock(tokens_mu_);
      if (unacked_tokens_.erase(e.ack_seq) != 0) {
        unacked_count_.fetch_sub(1, std::memory_order_acq_rel);
      }
      return;
    }
    case EnvelopeKind::kStatus: {
      std::lock_guard<std::mutex> lock(status_mu_);
      if (e.status.node < statuses_.size()) {
        statuses_[e.status.node] = {e.status, clock_.now()};
      }
      return;
    }
    case EnvelopeKind::kShutdown: {
      shutdown_code_.store(e.exit_code, std::memory_order_release);
      shutdown_flag_.store(true, std::memory_order_release);
      Envelope ack;
      ack.kind = EnvelopeKind::kShutdownAck;
      ack.src_node = node_id_;
      queue_to_peer(p.node, control_msg(ack));
      return;
    }
    case EnvelopeKind::kShutdownAck: {
      p.shutdown_acked.store(true, std::memory_order_release);
      return;
    }
    case EnvelopeKind::kTokenRelay:
      process_token_relay(p, e);
      return;
    case EnvelopeKind::kRelayAck:
      process_relay_ack(p, e);
      return;
    case EnvelopeKind::kHello:
      return;  // handled above; unreachable
  }
}

void TcpTransport::process_token_relay(Peer& p, Envelope& e) {
  // Sanity before trusting the wire: this relay must name us as its head,
  // and every node it covers must exist.
  if (e.subtree.empty() || e.subtree.front() != node_id_) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  for (std::uint32_t node : e.subtree) {
    if (node >= peers_.size() ||
        (node != node_id_ && peers_[node] == nullptr)) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // Keyed by the requester INCARNATION, not just its node: a respawned
  // requester restarts relay ids at 1, and matching the dead incarnation's
  // entry would instantly re-ack without ever delivering the new token.
  const auto relay_key = std::make_tuple(p.node, p.peer_epoch, e.relay_id);
  const auto origin_key = std::make_pair(e.origin_node, e.epoch);
  bool deliver = false;
  bool ack_now = false;
  std::vector<SimTime> local_delays;
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    const auto done_it = relay_done_.find(relay_key);
    if (done_it != relay_done_.end()) {
      if (!done_it->second.done) {
        return;  // still covering; requester will retry
      }
      done_it->second.at = clock_.now();  // re-touched: keep until idle
      ack_now = true;                     // retried after our ack was lost
    } else {
      relay_done_[relay_key] = {false, clock_.now()};
      // A newer incarnation of the origin supersedes older delivery-dedupe
      // state: the dead epoch's seqs can only reappear as relay retries,
      // which relay_done_ above already absorbs.
      for (auto it = relay_delivered_.lower_bound({e.origin_node, 0});
           it != relay_delivered_.end() &&
           it->first.first == e.origin_node && it->first.second < e.epoch;) {
        it = relay_delivered_.erase(it);
      }
      // Local delivery exactly once per origin broadcast, however many
      // relays or retries carry it here.
      deliver = relay_delivered_[origin_key].insert(e.token_seq).second;
      if (!deliver) {
        dup_tokens_dropped_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Per-destination delay variance, exactly like flat mode: each
        // local copy draws its own injected delay rather than inheriting
        // the one value the relay happened to carry.
        for (ProcessId pid : topo_.node(node_id_).processes) {
          if (pid != e.src_pid) local_delays.push_back(draw_delay(relay_rng_));
        }
      }
      std::vector<std::uint32_t> rest(e.subtree.begin() + 1, e.subtree.end());
      if (rest.empty()) {
        relay_done_[relay_key] = {true, clock_.now()};  // leaf: subtree == us
        ack_now = true;
      } else {
        const auto chunks = scale::split_subtree(
            rest, std::max<std::uint32_t>(2, e.fanout));
        const std::uint64_t agg_id = next_agg_id_++;
        RelayAgg agg;
        agg.has_requester = true;
        agg.requester_node = p.node;
        agg.requester_epoch = p.peer_epoch;
        agg.requester_relay_id = e.relay_id;
        agg.pending = chunks.size();
        relay_aggs_.emplace(agg_id, agg);
        Envelope tmpl;
        tmpl.kind = EnvelopeKind::kTokenRelay;
        tmpl.src_node = node_id_;
        tmpl.origin_node = e.origin_node;
        tmpl.epoch = e.epoch;
        tmpl.token_seq = e.token_seq;
        tmpl.fanout = e.fanout;
        tmpl.src_pid = e.src_pid;
        tmpl.wire = e.wire;
        for (const scale::RelayAssignment& chunk : chunks) {
          start_relay_locked(chunk, tmpl, agg_id);
        }
      }
    }
  }
  if (deliver) {
    FrameRef wire = FramePool::global().wrap(Bytes(e.wire));
    std::size_t di = 0;
    for (ProcessId pid : topo_.node(node_id_).processes) {
      if (pid == e.src_pid) continue;
      push_local(e.src_pid, pid, wire, /*app=*/false, /*token=*/true,
                 local_delays.at(di++));
    }
  }
  if (ack_now) {
    Envelope ack;
    ack.kind = EnvelopeKind::kRelayAck;
    ack.src_node = node_id_;
    ack.epoch = p.peer_epoch;  // echo the requester incarnation
    ack.ack_seq = e.relay_id;
    acks_tx_.fetch_add(1, std::memory_order_relaxed);
    queue_to_peer(p.node, control_msg(ack));
  }
}

void TcpTransport::process_relay_ack(Peer& p, const Envelope& e) {
  acks_rx_.fetch_add(1, std::memory_order_relaxed);
  if (e.epoch != epoch_) return;  // receipt for a previous incarnation
  bool ack_up = false;
  std::uint32_t up_node = 0;
  std::uint64_t up_epoch = 0;
  std::uint64_t up_relay_id = 0;
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    const auto it = relay_tasks_.find(e.ack_seq);
    if (it == relay_tasks_.end()) return;  // dup ack
    const std::uint64_t agg_id = it->second.agg;
    relay_tasks_.erase(it);
    relay_pending_.fetch_sub(1, std::memory_order_acq_rel);
    const auto ag = relay_aggs_.find(agg_id);
    if (ag == relay_aggs_.end()) return;
    if (--ag->second.pending != 0) return;
    if (ag->second.has_requester) {
      // Whole delegated subtree covered: receipt flows one level up, under
      // the incarnation that asked for it.
      relay_done_[{ag->second.requester_node, ag->second.requester_epoch,
                   ag->second.requester_relay_id}] = {true, clock_.now()};
      ack_up = true;
      up_node = ag->second.requester_node;
      up_epoch = ag->second.requester_epoch;
      up_relay_id = ag->second.requester_relay_id;
    }
    relay_aggs_.erase(ag);
  }
  if (ack_up) {
    Envelope ack;
    ack.kind = EnvelopeKind::kRelayAck;
    ack.src_node = node_id_;
    // Echo the requester incarnation captured when the relay arrived, not
    // the peer's CURRENT epoch: if it respawned mid-coverage, this stale
    // receipt must not match one of the new incarnation's (reused) ids.
    ack.epoch = up_epoch;
    ack.ack_seq = up_relay_id;
    acks_tx_.fetch_add(1, std::memory_order_relaxed);
    queue_to_peer(up_node, control_msg(ack));
  }
}

std::size_t TcpTransport::flush_peer(Peer& p) {
  if (!p.connected || p.blocked || !p.fd.valid()) return 0;
  // Stage ring frames as segments — no copy, just ref moves. The ring
  // keeps anything past the high-water mark (loss-free backpressure).
  std::size_t staged = 0;
  OutMsg m;
  while (p.sendq_bytes < kOutbufHighWater && p.outq.try_pop(m)) {
    if (m.delta != nullptr) materialize_delta(p, m);
    if (m.app) p.pending_app.fetch_sub(1, std::memory_order_acq_rel);
    const std::size_t sz = m.head.size() + m.payload.size();
    outbuf_bytes_.fetch_add(sz, std::memory_order_relaxed);
    frames_tx_.fetch_add(1, std::memory_order_relaxed);
    p.sendq_bytes += sz;
    p.sendq.push_back({std::move(m.head), 0});
    if (m.payload.size() != 0) p.sendq.push_back({std::move(m.payload), 0});
    ++staged;
  }
  while (!p.sendq.empty()) {
    // Scatter-gather straight out of the pooled frame buffers.
    struct iovec iov[kMaxIov];
    std::size_t cnt = 0;
    for (const SendSeg& s : p.sendq) {
      if (cnt == kMaxIov) break;
      iov[cnt].iov_base =
          const_cast<std::uint8_t*>(s.buf.data()) + s.off;
      iov[cnt].iov_len = s.buf.size() - s.off;
      ++cnt;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = cnt;
    const ssize_t n = ::sendmsg(p.fd.get(), &mh, MSG_NOSIGNAL);
    if (n > 0) {
      writev_calls_.fetch_add(1, std::memory_order_relaxed);
      if (writev_batch_hist_ != nullptr) {
        writev_batch_hist_->observe(static_cast<double>(cnt));
      }
      bytes_tx_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      outbuf_bytes_.fetch_sub(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
      p.sendq_bytes -= static_cast<std::size_t>(n);
      std::size_t left = static_cast<std::size_t>(n);
      while (left != 0) {
        SendSeg& s = p.sendq.front();
        const std::size_t avail = s.buf.size() - s.off;
        if (left >= avail) {
          left -= avail;
          p.sendq.pop_front();
        } else {
          s.off += left;
          left = 0;
        }
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_peer(p, false);
    return staged;
  }
  update_interest(p);
  return staged;
}

void TcpTransport::materialize_delta(Peer& p, OutMsg& m) {
  // Deferred encode at stage time: this is the instant the frame's position
  // in the connection's byte stream is fixed, so it is the only instant the
  // FIFO delta base is known to match the decoder's.
  const DeltaSend& d = *m.delta;
  Envelope e;
  e.kind = EnvelopeKind::kWire;
  e.src_node = node_id_;
  e.src_pid = d.src_pid;
  e.dst_pid = d.dst_pid;
  e.app = d.app;
  e.sent_unix_us = d.sent_unix_us;
  e.delay_us = m.delta_delay;
  Bytes wire;
  if (p.delta_enc != nullptr) {
    wire = p.delta_enc->encode_for(d.src_pid, d.msg, d.flat_size);
    delta_frames_tx_.fetch_add(1, std::memory_order_relaxed);
    delta_bytes_tx_.fetch_add(wire.size(), std::memory_order_relaxed);
    delta_flat_bytes_.fetch_add(d.flat_size, std::memory_order_relaxed);
  } else {
    // Connection cycled between queue and stage; stateless flat frame is
    // always safe.
    wire = encode_message_frame(d.msg);
  }
  m.head =
      FramePool::global().wrap(frame_wire_envelope_prefix(e, wire.size()));
  m.payload = FramePool::global().wrap(std::move(wire));
  m.delta.reset();
}

void TcpTransport::update_interest(Peer& p) {
  if (!p.fd.valid()) return;
  if (p.connecting) {
    poller_->set(p.fd.get(), /*want_read=*/false, /*want_write=*/!p.blocked);
    return;
  }
  const bool want_write =
      !p.blocked && (!p.sendq.empty() || p.outq.size() != 0);
  poller_->set(p.fd.get(), /*want_read=*/!p.blocked, want_write);
}

bool TcpTransport::link_blocked_now(std::uint32_t peer_node) const {
  const SimTime now = clock_.now();
  for (const PartitionEvent& event : topo_.faults.partitions) {
    if (now < event.at || now >= event.heal_at) continue;
    std::uint32_t self_group = 0;
    std::uint32_t peer_group = 0;
    std::uint32_t group_id = 1;
    for (const auto& group : event.groups) {
      for (ProcessId id : group) {
        if (id == node_id_) self_group = group_id;
        if (id == peer_node) peer_group = group_id;
      }
      ++group_id;
    }
    if (self_group != peer_group) return true;
  }
  return false;
}

void TcpTransport::update_partition_masks() {
  if (topo_.faults.partitions.empty()) return;
  for (auto& p : peers_) {
    if (p == nullptr) continue;
    const bool blocked = link_blocked_now(p->node);
    if (blocked == p->blocked) continue;
    p->blocked = blocked;
    if (p->fd.valid()) update_interest(*p);
    if (!blocked) {
      if (p->connected) {
        flush_peer(*p);
      } else if (p->initiator && !p->fd.valid()) {
        p->retry_at = clock_.now();  // heal: dial again immediately
      }
    }
  }
}

void TcpTransport::retry_unacked_tokens() {
  const SimTime now = clock_.now();
  std::lock_guard<std::mutex> lock(tokens_mu_);
  // Sweep acked relay entries nobody has retried for a while — without it
  // the map grows with total failure-token traffic forever. The horizon
  // dwarfs the retry cadence, so a requester still retrying (lost acks)
  // keeps refreshing its entry; if one IS forgotten too early the worst
  // case is a re-covered subtree, which relay_delivered_ still dedupes.
  if (now >= relay_prune_at_) {
    const SimTime horizon =
        std::max<SimTime>(seconds(5), 64 * topo_.faults.token_retry);
    relay_prune_at_ = now + horizon / 2;
    for (auto it = relay_done_.begin(); it != relay_done_.end();) {
      if (it->second.done && now - it->second.at > horizon) {
        it = relay_done_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& [seq, pending] : unacked_tokens_) {
    if (now < pending.next_retry) continue;
    pending.next_retry = now + topo_.faults.token_retry;
    Peer& p = *peers_.at(pending.node);
    // Re-send only where the copy could actually have been lost: over an
    // established, unmasked connection. While disconnected or partitioned
    // the original still sits in the ring.
    if (!p.connected || p.blocked) continue;
    token_retries_.fetch_add(1, std::memory_order_relaxed);
    p.outq.push(OutMsg{pending.msg.head, pending.msg.payload, false});
  }
  // Relay retries ride the same cadence. After relay_fallback_retries
  // silent attempts we assume the head is down and route around it: its
  // subtree is re-split into fresh relays under the SAME aggregation, while
  // the original task shrinks to a singleton that keeps retrying forever —
  // per-node retry-until-acked semantics are preserved exactly as in flat
  // mode (a dead node keeps us non-quiet until it respawns and acks).
  for (auto& [id, task] : relay_tasks_) {
    if (now < task.next_retry) continue;
    task.next_retry = now + topo_.faults.token_retry;
    ++task.attempts;
    if (!task.fallback_done && task.subtree.size() > 1 &&
        task.attempts > topo_.scale.relay_fallback_retries) {
      relay_splits_.fetch_add(1, std::memory_order_relaxed);
      std::vector<std::uint32_t> rest(task.subtree.begin() + 1,
                                      task.subtree.end());
      const auto chunks = scale::split_subtree(
          rest, std::max<std::uint32_t>(2, topo_.scale.token_fanout));
      const auto ag = relay_aggs_.find(task.agg);
      if (ag != relay_aggs_.end()) ag->second.pending += chunks.size();
      task.subtree = {task.subtree.front()};
      task.env.subtree = task.subtree;
      task.msg = control_msg(task.env);
      task.fallback_done = true;
      // std::map: inserting new tasks does not invalidate this iteration.
      for (const scale::RelayAssignment& chunk : chunks) {
        start_relay_locked(chunk, task.env, task.agg);
      }
    }
    Peer& rp = *peers_.at(task.dst_node);
    if (!rp.connected || rp.blocked) continue;
    token_retries_.fetch_add(1, std::memory_order_relaxed);
    rp.outq.push(OutMsg{task.msg.head, task.msg.payload, false});
  }
}

}  // namespace optrec
