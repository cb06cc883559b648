// ServiceFrontend: the client-facing listener of a TcpNode, served from
// the node's existing epoll IO thread as a TcpTransport::PollClient (the
// same pattern as the telemetry HTTP endpoint — no extra threads).
//
// Inbound: clients connect, send varint-framed Requests (service_msg.h),
// and the frontend injects each one into the owning LOCAL process's
// delivery stream via the injector callback. Requests for keys owned by a
// process hosted on another node are answered immediately with kWrongNode
// + the owning pid, so clients re-route using the shared topology.
//
// Outbound: replies arrive via push_reply() from worker threads — the
// node forwards every COMMITTED output here, i.e. strictly after the
// Damani-Garg output-commit point. A mutex-guarded queue plus a self-pipe
// hands them to the IO thread, which routes each reply to the connection
// that last spoke for that client_id and frames it onto the socket.
// Replies for clients that disconnected are dropped; the client's retry
// re-serves the cached reply through the app-level dedup table.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/service/service_msg.h"
#include "src/tcp/socket_util.h"
#include "src/tcp/tcp_transport.h"
#include "src/util/counter_fields.h"

namespace optrec::service {

/// The client service's counters: the frontend's own, plus the replies
/// the output-commit gate parked, released and discarded on this node's
/// workers. Every gated reply is released or discarded exactly once, and
/// every released reply is sent or dropped.
struct ServiceStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t injected = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t replies_dropped = 0;
  std::uint64_t wrong_node = 0;  // kWrongNode answers
  std::uint64_t protocol_errors = 0;
  std::uint64_t replies_gated = 0;
  std::uint64_t replies_released = 0;
  std::uint64_t replies_discarded = 0;

  /// Every counter with its JSON key and /metrics family
  /// (src/util/counter_fields.h).
  static constexpr std::array<CounterField<ServiceStats>, 10> kFields{{
      {"connections", &ServiceStats::connections,
       "optrec_service_connections_total"},
      {"requests", &ServiceStats::requests, "optrec_service_requests_total"},
      {"injected", &ServiceStats::injected, "optrec_service_injected_total"},
      {"replies_sent", &ServiceStats::replies_sent,
       "optrec_service_replies_sent_total"},
      {"replies_dropped", &ServiceStats::replies_dropped,
       "optrec_service_replies_dropped_total"},
      {"wrong_node", &ServiceStats::wrong_node,
       "optrec_service_wrong_node_total"},
      {"protocol_errors", &ServiceStats::protocol_errors,
       "optrec_service_protocol_errors_total"},
      {"replies_gated", &ServiceStats::replies_gated,
       "optrec_replies_gated_total",
       "Client replies parked behind the output-commit point"},
      {"replies_released", &ServiceStats::replies_released,
       "optrec_replies_released_total",
       "Client replies released: producing interval became stable"},
      {"replies_discarded", &ServiceStats::replies_discarded,
       "optrec_replies_discarded_total",
       "Gated client replies dropped uncommitted by a crash or rollback"},
  }};
};

class ServiceFrontend : public TcpTransport::PollClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = kernel-assigned; read back with port()
    std::size_t n = 0;       // total processes in the fleet
    std::vector<ProcessId> local_pids;  // processes hosted on this node
  };

  /// Deliver one injected client request payload to local process `dst`.
  /// Runs on the IO thread.
  using Injector = std::function<void(ProcessId dst, Bytes payload)>;

  /// Binds host:port immediately. Throws std::system_error on bind failure.
  ServiceFrontend(const Options& options, Injector inject);
  ~ServiceFrontend() override;

  std::uint16_t port() const { return port_; }

  /// Queue one committed reply (encoded Response bytes) for delivery to its
  /// client. Thread-safe; wakes the IO thread. Non-Response bytes are
  /// counted and dropped.
  void push_reply(const std::string& data);

  // TcpTransport::PollClient
  void attach(Poller& poller) override;
  bool handle(Poller& poller, const Poller::Event& ev) override;

  /// The service counters (relaxed atomics). The node bumps the
  /// output-commit gate's three rows from its workers' output listeners.
  AtomicCounters<ServiceStats>& stats() { return stats_; }
  const AtomicCounters<ServiceStats>& stats() const { return stats_; }

 private:
  struct Conn {
    Fd fd;
    Bytes in;             // unparsed inbound bytes
    std::size_t in_pos = 0;
    Bytes out;            // framed replies not yet written
    std::size_t off = 0;
    std::set<std::uint64_t> clients;  // client ids seen on this connection
  };

  void accept_new(Poller& poller);
  void drive(Poller& poller, Conn& conn, const Poller::Event& ev);
  void on_request(Poller& poller, Conn& conn, const Bytes& body);
  /// Write staged bytes; updates write interest. False = connection died.
  bool flush_conn(Poller& poller, Conn& conn);
  void close_conn(Poller& poller, int fd);
  void drain_replies(Poller& poller);

  const Options options_;
  const Injector inject_;
  std::vector<bool> local_;  // pid -> hosted on this node

  Fd listener_;
  std::uint16_t port_ = 0;
  Fd reply_rd_, reply_wr_;  // self-pipe: worker threads wake the IO thread

  std::mutex reply_mu_;
  std::deque<Bytes> reply_q_;  // guarded by reply_mu_

  // IO-thread-only.
  std::unordered_map<int, Conn> conns_;
  std::unordered_map<std::uint64_t, int> client_conn_;  // client -> fd

  AtomicCounters<ServiceStats> stats_;
};

}  // namespace optrec::service
