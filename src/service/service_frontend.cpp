#include "src/service/service_frontend.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>
#include <utility>

namespace optrec::service {

namespace {
constexpr int kRecvChunk = 4096;
// Compact the inbound buffer once the parsed prefix outgrows this.
constexpr std::size_t kCompactThreshold = 16 * 1024;
}  // namespace

ServiceFrontend::ServiceFrontend(const Options& options, Injector inject)
    : options_(options), inject_(std::move(inject)) {
  local_.assign(options_.n, false);
  for (const ProcessId pid : options_.local_pids) {
    if (pid < options_.n) local_[pid] = true;
  }
  listener_ = listen_on(options_.host, options_.port);
  port_ = local_port(listener_.get());

  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "ServiceFrontend: pipe2");
  }
  reply_rd_.reset(fds[0]);
  reply_wr_.reset(fds[1]);
}

ServiceFrontend::~ServiceFrontend() = default;

void ServiceFrontend::attach(Poller& poller) {
  poller.add(listener_.get(), /*want_read=*/true, /*want_write=*/false);
  poller.add(reply_rd_.get(), /*want_read=*/true, /*want_write=*/false);
}

bool ServiceFrontend::handle(Poller& poller, const Poller::Event& ev) {
  if (ev.fd == listener_.get()) {
    accept_new(poller);
    return true;
  }
  if (ev.fd == reply_rd_.get()) {
    // Drain the wake pipe, then the reply queue.
    char buf[256];
    while (::read(reply_rd_.get(), buf, sizeof buf) > 0) {
    }
    drain_replies(poller);
    return true;
  }
  const auto it = conns_.find(ev.fd);
  if (it == conns_.end()) return false;
  drive(poller, it->second, ev);
  return true;
}

void ServiceFrontend::accept_new(Poller& poller) {
  for (;;) {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN / transient: nothing more to accept now
    try {
      set_nonblocking(fd);
      set_tcp_nodelay(fd);
    } catch (const std::exception&) {
      ::close(fd);
      continue;
    }
    Conn conn;
    conn.fd.reset(fd);
    conns_.emplace(fd, std::move(conn));
    poller.add(fd, /*want_read=*/true, /*want_write=*/false);
    stats_.add<&ServiceStats::connections>();
  }
}

void ServiceFrontend::drive(Poller& poller, Conn& conn,
                            const Poller::Event& ev) {
  const int fd = conn.fd.get();
  if (ev.broken) {
    close_conn(poller, fd);
    return;
  }

  if (ev.readable) {
    char buf[kRecvChunk];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        conn.in.insert(conn.in.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_conn(poller, fd);  // EOF or hard error
      return;
    }
    try {
      while (auto body = next_frame(conn.in, &conn.in_pos)) {
        on_request(poller, conn, *body);
        if (conns_.count(fd) == 0) return;  // on_request closed us
      }
    } catch (const DecodeError&) {
      stats_.add<&ServiceStats::protocol_errors>();
      close_conn(poller, fd);
      return;
    }
    if (conn.in_pos > kCompactThreshold) {
      conn.in.erase(conn.in.begin(),
                    conn.in.begin() + static_cast<std::ptrdiff_t>(conn.in_pos));
      conn.in_pos = 0;
    }
  }

  if (!flush_conn(poller, conn)) return;
}

void ServiceFrontend::on_request(Poller& poller, Conn& conn,
                                 const Bytes& body) {
  const Request req = Request::decode(body);  // DecodeError → caller closes
  stats_.add<&ServiceStats::requests>();

  // Route replies for this client to the connection that spoke last: a
  // reconnecting client's new socket wins.
  conn.clients.insert(req.client_id);
  client_conn_[req.client_id] = conn.fd.get();

  const ProcessId owner = req.owner(options_.n);
  if (owner >= local_.size() || !local_[owner]) {
    // Not hosted here: answer immediately so the client can re-route. This
    // is routing metadata, not application state — it bypasses the output
    // gate by design.
    Response resp;
    resp.status = Status::kWrongNode;
    resp.op = req.op;
    resp.client_id = req.client_id;
    resp.seq = req.seq;
    resp.key = req.key;
    resp.owner = owner;
    append_frame(conn.out, resp.encode());
    stats_.add<&ServiceStats::wrong_node>();
    flush_conn(poller, conn);
    return;
  }

  inject_(owner, encode_request_payload(req));
  stats_.add<&ServiceStats::injected>();
}

void ServiceFrontend::push_reply(const std::string& data) {
  {
    std::lock_guard<std::mutex> lock(reply_mu_);
    reply_q_.emplace_back(data.begin(), data.end());
  }
  // A full pipe means a wakeup is already pending; any error other than
  // EAGAIN is ignored too (shutdown races close the pipe before the last
  // replies drain — those replies are lost like any in-flight packet).
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(reply_wr_.get(), &byte, 1);
}

void ServiceFrontend::drain_replies(Poller& poller) {
  std::deque<Bytes> batch;
  {
    std::lock_guard<std::mutex> lock(reply_mu_);
    batch.swap(reply_q_);
  }
  for (const Bytes& body : batch) {
    std::uint64_t client_id = 0;
    try {
      client_id = Response::decode(body).client_id;
    } catch (const DecodeError&) {
      // Not a service reply (some other app's output); nothing to route.
      stats_.add<&ServiceStats::replies_dropped>();
      continue;
    }
    const auto it = client_conn_.find(client_id);
    if (it == client_conn_.end() || conns_.count(it->second) == 0) {
      stats_.add<&ServiceStats::replies_dropped>();
      continue;
    }
    Conn& conn = conns_.at(it->second);
    append_frame(conn.out, body);
    stats_.add<&ServiceStats::replies_sent>();
    flush_conn(poller, conn);
  }
}

bool ServiceFrontend::flush_conn(Poller& poller, Conn& conn) {
  const int fd = conn.fd.get();
  while (conn.off < conn.out.size()) {
    const ssize_t n = ::send(fd, conn.out.data() + conn.off,
                             conn.out.size() - conn.off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_conn(poller, fd);
    return false;
  }
  if (conn.off == conn.out.size()) {
    conn.out.clear();
    conn.off = 0;
    poller.set(fd, /*want_read=*/true, /*want_write=*/false);
  } else {
    poller.set(fd, /*want_read=*/true, /*want_write=*/true);
  }
  return true;
}

void ServiceFrontend::close_conn(Poller& poller, int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  for (const std::uint64_t client : it->second.clients) {
    const auto route = client_conn_.find(client);
    if (route != client_conn_.end() && route->second == fd) {
      client_conn_.erase(route);
    }
  }
  poller.remove(fd);
  conns_.erase(it);  // Fd destructor closes
}

}  // namespace optrec::service
