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
      // Independent per-node stream: received-token delays must not
      // perturb (or be perturbed by) the per-sender fault streams.
      token_rng_(seed ^ (0x9e3779b97f4a7c15ull * (node_id + 1))) {
  topo_.validate();
  if (node_id_ >= topo_.nodes.size()) {
    throw std::invalid_argument("TcpTransport: node id out of range");
  }
  channels_.resize(topo_.n);
  endpoints_.resize(topo_.n, nullptr);
  send_rng_.resize(topo_.n);
  // Per-sender streams: fork() in pid order from one base RNG, so a
  // process's fault stream is a function of (seed, pid), not of which node
  // hosts it.
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

void TcpTransport::push_local(ProcessId src, ProcessId dst, FrameBytes wire,
                              bool app, bool token, SimTime delay) {
  LiveFrame f;
  f.kind = LiveFrame::Kind::kWire;
  f.src = src;
  f.wire = std::move(wire);
  f.app = app;
  f.token = token;
  f.sent_at = clock_.now();
  f.not_before = f.sent_at + delay;
  counters_.note_pushed(app, token);
  channels_.at(dst)->push(std::move(f));
}

TcpTransport::OutMsg TcpTransport::control_msg(const Envelope& e) {
  OutMsg m;
  m.head = std::make_shared<const Bytes>(frame_envelope(e));
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
      stats_.add<&TcpStats::backpressure_drops>();
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
  counters_.net.add<&Network::Stats::messages_sent>();
  counters_.net.add<&Network::Stats::app_messages_sent>();
  counters_.net.add<&Network::Stats::message_bytes>(message_wire_bytes(msg));
  if (trace_) trace_->emit(send_event(clock_.now(), msg));
  push_local(msg.src, msg.dst,
             std::make_shared<const Bytes>(encode_message_frame(msg)),
             /*app=*/true, /*token=*/false, delay);
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
  counters_.net.add<&Network::Stats::messages_sent>();
  counters_.net.add<&Network::Stats::message_bytes>(message_wire_bytes(msg));
  if (trace_) trace_->emit(send_event(clock_.now(), msg));

  Rng& rng = *send_rng_.at(msg.src);
  const bool app = msg.kind == MessageKind::kApp;
  if (app) {
    counters_.net.add<&Network::Stats::app_messages_sent>();
    if (rng.chance(topo_.faults.drop_prob)) {
      counters_.net.add<&Network::Stats::messages_dropped>();
      return msg.id;
    }
  }
  const std::uint32_t dst_node = topo_.node_of(msg.dst);
  const bool dup = app && rng.chance(topo_.faults.duplicate_prob);
  if (dup) counters_.net.add<&Network::Stats::messages_duplicated>();

  if (dst_node == node_id_) {
    // Encode once; a duplicate shares the bytes.
    FrameBytes wire = std::make_shared<const Bytes>(encode_message_frame(msg));
    if (dup) {
      push_local(msg.src, msg.dst, wire, app, /*token=*/false,
                 draw_delay(rng));
    }
    push_local(msg.src, msg.dst, std::move(wire), app, /*token=*/false,
               draw_delay(rng));
    return msg.id;
  }

  // Defer encoding to the IO thread: the frame must be delta-encoded in
  // exactly the order it enters the connection's stream, which only the
  // single stager (flush_peer) can guarantee.
  const MsgId id = msg.id;
  auto d = std::make_shared<DeltaSend>();
  d->sent_unix_us = unix_micros();
  d->msg = std::move(msg);
  const auto queue = [&](SimTime delay) {
    OutMsg m;
    m.app = app;
    m.delta = d;
    m.delta_delay = delay;
    if (!queue_to_peer(dst_node, std::move(m))) {
      // Backpressure loss is transport loss: account it like a drop so
      // merged cluster stats still balance.
      counters_.net.add<&Network::Stats::messages_dropped>();
    }
  };
  if (dup) queue(draw_delay(rng));
  queue(draw_delay(rng));
  wake();
  return id;
}

void TcpTransport::broadcast_token(const Token& token) {
  counters_.net.add<&Network::Stats::token_broadcasts>();
  if (trace_) trace_->emit(token_broadcast_event(clock_.now(), token));
  Rng& rng = *send_rng_.at(token.from);
  // One encode for the whole broadcast: every local channel frame shares
  // these bytes, and one kToken frame carries them to every remote node.
  FrameBytes wire = std::make_shared<const Bytes>(encode_token_frame(token));
  const std::size_t bytes = token_wire_bytes(token);
  for (ProcessId dst = 0; dst < topo_.n; ++dst) {
    if (dst == token.from) continue;
    counters_.net.add<&Network::Stats::tokens_sent>();
    counters_.net.add<&Network::Stats::token_bytes>(bytes);
    const SimTime delay = draw_delay(rng);
    if (topo_.node_of(dst) == node_id_) {
      push_local(token.from, dst, wire, /*app=*/false, /*token=*/true, delay);
    }
  }
  Envelope e;
  e.kind = EnvelopeKind::kToken;
  e.src_node = node_id_;
  e.src_pid = token.from;
  e.wire = *wire;
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    e.token_seq = next_token_seq_++;
    TokenSend send;
    send.msg = control_msg(e);
    send.next_retry = clock_.now() + topo_.faults.token_retry;
    for (const auto& p : peers_) {
      if (p == nullptr) continue;
      token_sends_.emplace(std::make_pair(p->node, e.token_seq), send);
      tokens_pending_.fetch_add(1, std::memory_order_acq_rel);
      stats_.add<&TcpStats::tokens_tx>();
      queue_to_peer(p->node, send.msg);  // pointer clone; no byte copy
    }
  }
  wake();
}

std::uint64_t TcpTransport::outbound_pending() const {
  // Lock-free: ring occupancy atomics + the token mirror + staged bytes.
  std::uint64_t pending = 0;
  for (const auto& p : peers_) {
    if (p != nullptr) pending += p->outq.size();
  }
  pending += tokens_pending_.load(std::memory_order_acquire);
  return pending + outbuf_bytes_.load(std::memory_order_acquire);
}

std::uint64_t TcpTransport::outbound_app_and_tokens() const {
  std::uint64_t pending = tokens_pending_.load(std::memory_order_acquire);
  for (const auto& p : peers_) {
    if (p != nullptr) pending += p->pending_app.load(std::memory_order_acquire);
  }
  return pending;
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
  TcpStats s = stats_.load();
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
      stats_.add<&TcpStats::protocol_errors>();
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
  retry_tokens();
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
      stats_.add<&TcpStats::bytes_rx>(static_cast<std::uint64_t>(n));
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
      stats_.add<&TcpStats::protocol_errors>();
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
    stats_.add<&TcpStats::accepts>();
    stats_.add<&TcpStats::frames_rx>();
    on_peer_established(p);
    if (p.fd.valid()) drain_reader(p);
  } catch (const FrameError&) {
    stats_.add<&TcpStats::protocol_errors>();
    drop();
  }
}

void TcpTransport::start_connect(Peer& p) {
  bool in_progress = false;
  try {
    p.fd = connect_nonblocking(p.host, p.port, &in_progress);
  } catch (const std::exception&) {
    stats_.add<&TcpStats::connect_failures>();
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
    stats_.add<&TcpStats::connects>();
    on_peer_established(p);
  }
}

void TcpTransport::on_peer_established(Peer& p) {
  p.connecting = false;
  p.connected = true;
  p.backoff = 0;
  // Fresh codecs per connection session: the first frame of every stream
  // is a full clock, and anything that died staged in the old sendq is
  // forgotten by both ends symmetrically (the peer saw the same teardown).
  p.delta_enc = std::make_unique<scale::DeltaWireEncoder>(topo_.n, epoch_);
  p.delta_dec = std::make_unique<scale::DeltaWireDecoder>(topo_.n);
  // Hello first: a fresh connection has an empty sendq, so the hello is
  // guaranteed to precede any staged traffic.
  Envelope hello;
  hello.kind = EnvelopeKind::kHello;
  hello.src_node = node_id_;
  hello.epoch = epoch_;
  hello.cluster = topo_.cluster;
  FrameBytes framed = std::make_shared<const Bytes>(frame_envelope(hello));
  outbuf_bytes_.fetch_add(framed->size(), std::memory_order_relaxed);
  stats_.add<&TcpStats::frames_tx>();
  p.sendq_bytes += framed->size();
  p.sendq.push_back({std::move(framed), 0});
  flush_peer(p);
}

void TcpTransport::close_peer(Peer& p, bool was_protocol_error) {
  if (was_protocol_error) {
    stats_.add<&TcpStats::protocol_errors>();
  }
  if (p.fd.valid()) {
    poller_->remove(p.fd.get());
    fd_to_node_.erase(p.fd.get());
    p.fd.reset();
  }
  if (p.connected) stats_.add<&TcpStats::disconnects>();
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
      stats_.add<&TcpStats::connect_failures>();
      close_peer(p, false);
      return;
    }
    stats_.add<&TcpStats::connects>();
    on_peer_established(p);
    return;
  }
  if (ev.readable && !p.blocked) {
    std::uint8_t buf[kRecvChunk];
    for (;;) {
      const ssize_t n = ::recv(p.fd.get(), buf, sizeof(buf), 0);
      if (n > 0) {
        stats_.add<&TcpStats::bytes_rx>(static_cast<std::uint64_t>(n));
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
      stats_.add<&TcpStats::frames_rx>();
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
      // Decode the nested frame here, on the connection that defines the
      // stream order: delta frames become the flat frame workers decode,
      // and a frame that is not a message addressed exactly as the
      // envelope says, or whose clock has neither 0 nor n entries (the
      // receive path indexes it by pid), drops the connection instead of
      // reaching a worker.
      if (e.src_pid >= topo_.n) {
        close_peer(p, /*was_protocol_error=*/true);
        return;
      }
      Message m;
      try {
        m = p.delta_dec->decode_from(e.src_pid, e.wire);
      } catch (const scale::DeltaResyncRequired&) {
        // Recoverable desync (e.g. we adopted a superseding connection the
        // peer was still staging onto): drop the connection; reconnecting
        // resets both codecs and the next frame per stream is full.
        stats_.add<&TcpStats::delta_resyncs>();
        close_peer(p, /*was_protocol_error=*/false);
        return;
      } catch (const DecodeError&) {
        close_peer(p, /*was_protocol_error=*/true);
        return;
      }
      if (m.src != e.src_pid || m.dst != e.dst_pid ||
          (m.clock.size() != 0 && m.clock.size() != topo_.n)) {
        close_peer(p, /*was_protocol_error=*/true);
        return;
      }
      if (e.wire[0] == scale::kDeltaMessageTag) {
        e.wire = encode_message_frame(m);
      }
      if (e.dst_pid >= topo_.n || !is_local(e.dst_pid)) {
        // Misrouted: a topology mismatch, not a stream corruption — count
        // it, drop the frame, keep the connection.
        stats_.add<&TcpStats::protocol_errors>();
        return;
      }
      LiveFrame f;
      f.kind = LiveFrame::Kind::kWire;
      f.src = e.src_pid;
      f.wire = std::make_shared<const Bytes>(std::move(e.wire));
      // From the decoded kind, not the envelope flag: the worker counts the
      // delivery by the same kind, so a lying flag cannot skew in-flight.
      f.app = m.kind == MessageKind::kApp;
      const SimTime now = clock_.now();
      const std::uint64_t unix_now = unix_micros();
      const std::uint64_t elapsed =
          unix_now > e.sent_unix_us ? unix_now - e.sent_unix_us : 0;
      f.sent_at = now > elapsed ? now - elapsed : 0;
      f.not_before = now + e.delay_us;
      counters_.note_pushed(f.app, /*token=*/false);
      channels_[e.dst_pid]->push(std::move(f));
      return;
    }
    // Control envelopes speak only for their own connection: a status
    // names the node that sent it, only the coordinator (node 0) orders a
    // shutdown, and only the coordinator collects the acks. Anything else
    // could report another node quiet or stop a node, so it drops the
    // connection like a malformed frame.
    case EnvelopeKind::kStatus: {
      if (e.status.node != p.node) {
        close_peer(p, /*was_protocol_error=*/true);
        return;
      }
      std::lock_guard<std::mutex> lock(status_mu_);
      statuses_[p.node] = {e.status, clock_.now()};
      return;
    }
    case EnvelopeKind::kShutdown: {
      if (p.node != 0) {
        close_peer(p, /*was_protocol_error=*/true);
        return;
      }
      shutdown_code_.store(e.exit_code, std::memory_order_release);
      shutdown_flag_.store(true, std::memory_order_release);
      Envelope ack;
      ack.kind = EnvelopeKind::kShutdownAck;
      ack.src_node = node_id_;
      queue_to_peer(p.node, control_msg(ack));
      return;
    }
    case EnvelopeKind::kShutdownAck: {
      if (node_id_ != 0) {
        close_peer(p, /*was_protocol_error=*/true);
        return;
      }
      p.shutdown_acked.store(true, std::memory_order_release);
      return;
    }
    case EnvelopeKind::kToken:
      process_token(p, e);
      return;
    case EnvelopeKind::kTokenAck:
      process_token_ack(p, e);
      return;
    case EnvelopeKind::kHello:
      return;  // handled above; unreachable
  }
}

void TcpTransport::process_token(Peer& p, Envelope& e) {
  // The nested frame must be a token of a process the sending node hosts:
  // workers decode it again without a handler, and no node announces
  // another node's failures, so anything else drops the connection here.
  try {
    const Frame f = decode_frame(e.wire);
    if (f.type != FrameType::kToken || f.token.from != e.src_pid ||
        e.src_pid >= topo_.n || topo_.node_of(e.src_pid) != p.node) {
      throw FrameError(FrameError::Kind::kCorrupt,
                       "kToken holds no token of the sending node");
    }
  } catch (const FrameError&) {
    close_peer(p, /*was_protocol_error=*/true);
    return;
  }
  // Keyed by the sender INCARNATION: a respawned node restarts its seqs at
  // 1, and its previous incarnation's connections are gone, so their sets
  // can go too.
  for (auto it = tokens_seen_.lower_bound({p.node, 0});
       it != tokens_seen_.end() && it->first.first == p.node &&
       it->first.second < p.peer_epoch;) {
    it = tokens_seen_.erase(it);
  }
  if (tokens_seen_[{p.node, p.peer_epoch}].insert(e.token_seq).second) {
    // Local delivery exactly once per broadcast, however many retries carry
    // it here; each local copy draws its own injected delay. The token's
    // own process lives on the sender, so every local process gets one.
    FrameBytes wire = std::make_shared<const Bytes>(std::move(e.wire));
    for (ProcessId pid : topo_.node(node_id_).processes) {
      push_local(e.src_pid, pid, wire, /*app=*/false, /*token=*/true,
                 draw_delay(token_rng_));
    }
  } else {
    stats_.add<&TcpStats::dup_tokens_dropped>();
  }
  // Every copy is acked: the first ack may have died with a connection.
  Envelope ack;
  ack.kind = EnvelopeKind::kTokenAck;
  ack.src_node = node_id_;
  ack.epoch = p.peer_epoch;  // echo the sender incarnation
  ack.token_seq = e.token_seq;
  stats_.add<&TcpStats::acks_tx>();
  queue_to_peer(p.node, control_msg(ack));
}

void TcpTransport::process_token_ack(const Peer& p, const Envelope& e) {
  stats_.add<&TcpStats::acks_rx>();
  // Only the addressed node clears its send, and only for this
  // incarnation: the pending key is the connection's node, never a field
  // a peer could set to someone else's.
  if (e.epoch != epoch_) return;  // receipt for a previous incarnation
  std::lock_guard<std::mutex> lock(tokens_mu_);
  if (token_sends_.erase({p.node, e.token_seq}) != 0) {
    tokens_pending_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

std::size_t TcpTransport::flush_peer(Peer& p) {
  if (!p.connected || p.blocked || !p.fd.valid()) return 0;
  // Stage ring frames as segments — no copy, just pointer moves. The ring
  // keeps anything past the high-water mark (loss-free backpressure).
  std::size_t staged = 0;
  OutMsg m;
  while (p.sendq_bytes < kOutbufHighWater && p.outq.try_pop(m)) {
    if (m.delta != nullptr) materialize_delta(p, m);
    if (m.app) p.pending_app.fetch_sub(1, std::memory_order_acq_rel);
    const std::size_t sz =
        m.head->size() + (m.payload != nullptr ? m.payload->size() : 0);
    outbuf_bytes_.fetch_add(sz, std::memory_order_relaxed);
    stats_.add<&TcpStats::frames_tx>();
    p.sendq_bytes += sz;
    p.sendq.push_back({std::move(m.head), 0});
    if (m.payload != nullptr) p.sendq.push_back({std::move(m.payload), 0});
    ++staged;
  }
  while (!p.sendq.empty()) {
    // Scatter-gather straight out of the shared frame buffers.
    struct iovec iov[kMaxIov];
    std::size_t cnt = 0;
    for (const SendSeg& s : p.sendq) {
      if (cnt == kMaxIov) break;
      iov[cnt].iov_base = const_cast<std::uint8_t*>(s.buf->data()) + s.off;
      iov[cnt].iov_len = s.buf->size() - s.off;
      ++cnt;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = cnt;
    const ssize_t n = ::sendmsg(p.fd.get(), &mh, MSG_NOSIGNAL);
    if (n > 0) {
      stats_.add<&TcpStats::writev_calls>();
      if (writev_batch_hist_ != nullptr) {
        writev_batch_hist_->observe(static_cast<double>(cnt));
      }
      stats_.add<&TcpStats::bytes_tx>(static_cast<std::uint64_t>(n));
      outbuf_bytes_.fetch_sub(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
      p.sendq_bytes -= static_cast<std::size_t>(n);
      std::size_t left = static_cast<std::size_t>(n);
      while (left != 0) {
        SendSeg& s = p.sendq.front();
        const std::size_t avail = s.buf->size() - s.off;
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
  e.src_pid = d.msg.src;
  e.dst_pid = d.msg.dst;
  e.app = m.app;
  e.sent_unix_us = d.sent_unix_us;
  e.delay_us = m.delta_delay;
  std::size_t flat_size = 0;
  Bytes wire = p.delta_enc->encode_for(d.msg.src, d.msg, &flat_size);
  stats_.add<&TcpStats::delta_frames_tx>();
  stats_.add<&TcpStats::delta_bytes_tx>(wire.size());
  stats_.add<&TcpStats::delta_flat_bytes>(flat_size);
  m.head =
      std::make_shared<const Bytes>(frame_wire_envelope_prefix(e, wire.size()));
  m.payload = std::make_shared<const Bytes>(std::move(wire));
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

void TcpTransport::retry_tokens() {
  const SimTime now = clock_.now();
  std::lock_guard<std::mutex> lock(tokens_mu_);
  // Per-node retry-until-acked: a dead node keeps the sender non-quiet
  // until it comes back and acks.
  for (auto& [key, send] : token_sends_) {
    if (now < send.next_retry) continue;
    send.next_retry = now + topo_.faults.token_retry;
    // Re-send only where the copy could actually have been lost: over an
    // established, unmasked connection. While disconnected or partitioned
    // the original still sits in the ring.
    Peer& p = *peers_[key.first];
    if (!p.connected || p.blocked) continue;
    stats_.add<&TcpStats::token_retries>();
    p.outq.push(send.msg);  // pointer clones; the bytes are never copied
  }
}

}  // namespace optrec
