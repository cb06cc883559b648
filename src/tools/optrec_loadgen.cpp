// optrec_loadgen — closed-loop client load driver and client-side oracle
// for the replicated KV service (docs/SERVICE.md).
//
// Each client is a thread running a closed loop: pick an op from the mix,
// route it to the owning node via the shared topology file, send it with a
// fresh (client_id, seq) identity, and wait for the reply — retrying the
// SAME identity on timeout or connection loss, so the server's dedup table
// gives exactly-once application no matter how many copies arrive. The
// server releases replies strictly after the Damani-Garg output-commit
// point, so everything a client observes here survives any crash.
//
// The client-side oracle checks exactly the guarantees that gate buys:
//   * monotonic reads — a key's write version (kver) never goes backwards
//     for any observer; a regression means the service exposed rolled-back
//     (orphaned) state;
//   * write coherence — two observations of the same (key, kver) must
//     carry the same value, across ALL clients;
//   * exactly-once retries — every reply for the same (client, seq) is
//     byte-equivalent; a mismatch means a retry re-executed;
//   * conservation — a post-run audit sweep re-reads every account until
//     the bank total matches accounts * initial-balance (transfers move
//     value, crashes must not mint or burn it).
//
// SLO output (--json): request latency p50/p90/p99 over successful
// requests (retries included — this is what the user of the service
// experiences) and per-client unavailability windows (first send to final
// success of every request that needed a retry), joined against the
// --kill-at-ms schedule so a crash's client-visible outage is measurable.
//
// Flags:
//   --topology=FILE    cluster topology JSON with service ports (write it
//                      with optrec_node --serve --write-topology=FILE)
//   --clients=K        concurrent closed-loop clients              [8]
//   --keys=K           KV key space                                [64]
//   --accounts=K       bank account space (must be <= the server's) [64]
//   --initial-balance=K  per-account seed balance (server's value)  [1000]
//   --duration-ms=K    load phase length                            [5000]
//   --timeout-ms=K     per-attempt reply timeout before a retry     [1000]
//   --grace-ms=K       extra time past the deadline for in-flight
//                      retries to land before abandoning            [5000]
//   --mix=P:G:T:B      put:get:transfer:balance percentages         [40:40:15:5]
//   --seed=S                                                        [1]
//   --kill-at-ms=K     a node kill the harness scheduled at K ms;
//                      repeatable, joined against outage windows
//   --audit-timeout-ms=K  conservation sweep deadline               [10000]
//   --json[=FILE]      write the BENCH_service.json report (stdout
//                      when FILE is omitted)
//   --verbose
//
// Exit codes: 0 clean, 1 load failure (no requests succeeded), 2 usage,
// 3 oracle violation (the shared runner convention).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/service/service_msg.h"
#include "src/tcp/topology.h"
#include "src/telemetry/histogram.h"
#include "src/harness/run_flags.h"
#include "src/util/json.h"
#include "src/util/rng.h"

using namespace optrec;
using namespace optrec::service;

namespace {

struct Config {
  std::string topology_file;
  std::size_t clients = 8;
  std::uint64_t keys = 64;
  std::uint64_t accounts = 64;
  std::uint64_t initial_balance = 1000;
  std::uint64_t duration_ms = 5000;
  std::uint64_t timeout_ms = 1000;
  std::uint64_t grace_ms = 5000;
  std::uint64_t audit_timeout_ms = 10000;
  std::array<std::uint32_t, 4> mix = {40, 40, 15, 5};  // put:get:xfer:balance
  std::uint64_t seed = 1;
  std::vector<std::uint64_t> kill_at_ms;
  bool emit_json = false;
  std::string json_file;
  bool verbose = false;
};

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- blocking client socket -------------------------------------------------

int dial(const std::string& host, std::uint16_t port,
         std::uint64_t timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, const Bytes& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// --- shared cross-client oracle ---------------------------------------------

struct SharedOracle {
  std::mutex mu;
  /// (key, kver) -> value: every observation of a versioned KV read/write.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> kv;
  std::vector<std::string> violations;

  void violate(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (violations.size() < 64) violations.push_back(what);
  }

  /// Record a (key, kver, value) observation; flags write-coherence splits.
  void observe_kv(std::uint64_t client, std::uint64_t key, std::uint64_t kver,
                  std::uint64_t value) {
    std::lock_guard<std::mutex> lock(mu);
    const auto [it, fresh] = kv.emplace(std::make_pair(key, kver), value);
    if (!fresh && it->second != value) {
      if (violations.size() < 64) {
        std::ostringstream os;
        os << "write coherence: client " << client << " saw key " << key
           << " kver " << kver << " = " << value << " but another observer saw "
           << it->second;
        violations.push_back(os.str());
      }
    }
  }
};

struct UnavailWindow {
  std::uint64_t start_us = 0;  // micros since load start
  std::uint64_t end_us = 0;
};

struct ClientResult {
  telemetry::FixedHistogram latency_us;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t wrong_node = 0;
  std::uint64_t stale_replies = 0;
  std::array<std::uint64_t, 4> ops = {0, 0, 0, 0};  // put/get/xfer/balance
  std::uint64_t insufficient = 0;
  std::uint64_t not_found = 0;
  std::vector<UnavailWindow> windows;
};

/// One client's view of the cluster: lazy per-node connections.
class Router {
 public:
  Router(const TcpTopology& topo, std::uint64_t timeout_ms)
      : topo_(topo), timeout_ms_(timeout_ms), conn_(topo.nodes.size(), -1) {}
  ~Router() {
    for (int fd : conn_) {
      if (fd >= 0) ::close(fd);
    }
  }

  std::uint32_t node_of_key(std::uint64_t key) const {
    return topo_.node_of(key_owner(key, topo_.n));
  }
  std::uint32_t node_of_pid(ProcessId pid) const { return topo_.node_of(pid); }

  /// Connected fd for `node`, dialing if needed; -1 when the node is down.
  int fd(std::uint32_t node, ClientResult& out) {
    if (conn_[node] < 0) {
      const TcpNodeSpec& spec = topo_.node(node);
      conn_[node] = dial(spec.host, spec.service_port, timeout_ms_);
      if (conn_[node] >= 0) {
        ++out.reconnects;
        rxbuf_[node].clear();
        rxpos_[node] = 0;
      }
    }
    return conn_[node];
  }

  void drop(std::uint32_t node) {
    if (conn_[node] >= 0) ::close(conn_[node]);
    conn_[node] = -1;
  }

  /// Read until a complete frame is buffered. nullopt = timeout/error (the
  /// caller drops the connection and retries).
  std::optional<Bytes> read_frame(std::uint32_t node) {
    Bytes& buf = rxbuf_[node];
    std::size_t& pos = rxpos_[node];
    for (;;) {
      try {
        if (auto body = next_frame(buf, &pos)) {
          if (pos == buf.size()) {
            buf.clear();
            pos = 0;
          }
          return body;
        }
      } catch (const DecodeError&) {
        return std::nullopt;  // malformed stream; caller reconnects
      }
      std::uint8_t chunk[4096];
      const ssize_t n = ::recv(conn_[node], chunk, sizeof chunk, 0);
      if (n <= 0) return std::nullopt;  // timeout, EOF, or error
      buf.insert(buf.end(), chunk, chunk + n);
    }
  }

 private:
  const TcpTopology& topo_;
  const std::uint64_t timeout_ms_;
  std::vector<int> conn_;
  std::map<std::uint32_t, Bytes> rxbuf_;
  std::map<std::uint32_t, std::size_t> rxpos_;
};

/// Compact reply fingerprint for the exactly-once check.
struct ReplyKey {
  std::uint8_t status = 0;
  std::uint64_t value = 0;
  std::uint64_t kver = 0;
  bool operator==(const ReplyKey& o) const {
    return status == o.status && value == o.value && kver == o.kver;
  }
};

ReplyKey fingerprint(const Response& r) {
  return ReplyKey{static_cast<std::uint8_t>(r.status), r.value, r.kver};
}

struct RequestOutcome {
  bool ok = false;
  Response resp;
};

/// Drive one request to completion: send, await the matching reply, retry
/// the same identity on timeout until `abandon_at_us`.
RequestOutcome run_request(Router& router, const Request& req,
                           std::uint64_t abandon_at_us, ClientResult& out,
                           SharedOracle& oracle,
                           std::map<std::uint64_t, ReplyKey>& seen_replies) {
  RequestOutcome outcome;
  Bytes wire;
  append_frame(wire, req.encode());
  std::uint32_t node = router.node_of_key(req.key);
  std::size_t attempts = 0;
  while (now_us() < abandon_at_us) {
    ++attempts;
    if (attempts > 1) ++out.retries;
    const int fd = router.fd(node, out);
    if (fd < 0) {
      // Node down (kill window). Back off briefly and redial.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    if (!send_all(fd, wire)) {
      router.drop(node);
      continue;
    }
    // Await the reply for OUR seq; older duplicates get the exactly-once
    // content check and are discarded.
    for (;;) {
      const auto body = router.read_frame(node);
      if (!body) {
        ++out.timeouts;
        router.drop(node);
        break;  // resend on a fresh connection
      }
      Response resp;
      try {
        resp = Response::decode(*body);
      } catch (const DecodeError&) {
        router.drop(node);
        break;
      }
      if (resp.client_id != req.client_id || resp.seq > req.seq) continue;
      if (resp.seq < req.seq) {
        ++out.stale_replies;
        const auto it = seen_replies.find(resp.seq);
        if (it != seen_replies.end() && !(it->second == fingerprint(resp))) {
          std::ostringstream os;
          os << "exactly-once: client " << req.client_id << " seq " << resp.seq
             << " got a second reply with different content ("
             << resp.describe() << ")";
          oracle.violate(os.str());
        }
        continue;
      }
      if (resp.status == Status::kWrongNode) {
        // Re-route using the server's answer; the topology file should have
        // made this impossible, so it is counted loudly.
        ++out.wrong_node;
        node = router.node_of_pid(resp.owner);
        break;
      }
      outcome.ok = true;
      outcome.resp = resp;
      return outcome;
    }
  }
  ++out.abandoned;
  return outcome;
}

void run_client(std::size_t index, const Config& config,
                const TcpTopology& topo, std::uint64_t client_id,
                std::uint64_t start_us, std::uint64_t deadline_us,
                SharedOracle& oracle, ClientResult& out) {
  Rng rng(config.seed * 7919 + index * 104729 + 13);
  Router router(topo, config.timeout_ms);
  std::map<std::uint64_t, ReplyKey> seen_replies;
  std::map<std::uint64_t, std::uint64_t> kver_floor;  // monotonic reads
  const std::uint32_t mix_total =
      config.mix[0] + config.mix[1] + config.mix[2] + config.mix[3];
  std::uint64_t seq = 0;

  while (now_us() < deadline_us) {
    Request req;
    req.client_id = client_id;
    req.seq = ++seq;
    const std::uint32_t pick =
        static_cast<std::uint32_t>(rng.next_u64() % mix_total);
    std::size_t op_idx;
    if (pick < config.mix[0]) {
      op_idx = 0;
      req.op = Op::kPut;
      req.key = rng.next_u64() % config.keys;
      req.value = 1 + rng.next_u64() % 1000;
    } else if (pick < config.mix[0] + config.mix[1]) {
      op_idx = 1;
      req.op = Op::kGet;
      req.key = rng.next_u64() % config.keys;
    } else if (pick < config.mix[0] + config.mix[1] + config.mix[2]) {
      op_idx = 2;
      req.op = Op::kTransfer;
      req.key = rng.next_u64() % config.accounts;
      req.to_account = rng.next_u64() % config.accounts;
      req.value = 1 + rng.next_u64() % 8;
    } else {
      op_idx = 3;
      req.op = Op::kBalance;
      req.key = rng.next_u64() % config.accounts;
    }

    ++out.attempted;
    const std::uint64_t begin = now_us();
    const std::uint64_t abandon_at =
        deadline_us + config.grace_ms * 1000;
    const std::uint64_t retries_before = out.retries;
    const RequestOutcome outcome =
        run_request(router, req, abandon_at, out, oracle, seen_replies);
    if (!outcome.ok) break;  // abandoned past the deadline; stop the loop
    const std::uint64_t end = now_us();

    ++out.succeeded;
    ++out.ops[op_idx];
    out.latency_us.observe(static_cast<double>(end - begin));
    if (out.retries != retries_before) {
      out.windows.push_back(UnavailWindow{begin - start_us, end - start_us});
    }
    seen_replies.emplace(req.seq, fingerprint(outcome.resp));

    const Response& resp = outcome.resp;
    if (resp.status == Status::kInsufficient) ++out.insufficient;
    if (resp.status == Status::kNotFound) ++out.not_found;
    if ((req.op == Op::kPut || req.op == Op::kGet) &&
        resp.status == Status::kOk) {
      // Monotonic reads: a committed version may never regress. A PUT reply
      // must also strictly advance past anything this client saw.
      std::uint64_t& floor = kver_floor[req.key];
      const bool regress = req.op == Op::kPut ? resp.kver <= floor
                                              : resp.kver < floor;
      if (floor != 0 && regress) {
        std::ostringstream os;
        os << "monotonic reads: client " << client_id << " saw key " << req.key
           << " at kver " << floor << " but " << op_name(req.op)
           << " reply carries kver " << resp.kver
           << " (rolled-back state was exposed)";
        oracle.violate(os.str());
      }
      floor = std::max(floor, resp.kver);
      oracle.observe_kv(client_id, req.key, resp.kver, resp.value);
    }
  }
}

/// Post-run conservation audit: sweep every account until the total matches
/// accounts * initial_balance (in-flight credits make early sweeps low).
struct AuditResult {
  bool conserved = false;
  std::uint64_t expected = 0;
  std::uint64_t observed = 0;
  std::uint64_t sweeps = 0;
};

AuditResult run_audit(const Config& config, const TcpTopology& topo,
                      std::uint64_t client_id, SharedOracle& oracle,
                      ClientResult& out) {
  AuditResult audit;
  audit.expected = config.accounts * config.initial_balance;
  Router router(topo, config.timeout_ms);
  std::map<std::uint64_t, ReplyKey> seen_replies;
  const std::uint64_t deadline = now_us() + config.audit_timeout_ms * 1000;
  std::uint64_t seq = 0;
  while (now_us() < deadline) {
    ++audit.sweeps;
    std::uint64_t sum = 0;
    bool complete = true;
    for (std::uint64_t account = 0; account < config.accounts; ++account) {
      Request req;
      req.op = Op::kBalance;
      req.client_id = client_id;
      req.seq = ++seq;
      req.key = account;
      const RequestOutcome outcome =
          run_request(router, req, deadline, out, oracle, seen_replies);
      if (!outcome.ok || outcome.resp.status != Status::kOk) {
        complete = false;
        break;
      }
      sum += outcome.resp.value;
    }
    if (!complete) continue;
    audit.observed = sum;
    if (sum == audit.expected) {
      audit.conserved = true;
      return audit;
    }
    // Credits still in flight (or a kill is still replaying); settle a bit.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::ostringstream os;
  os << "conservation: bank total " << audit.observed << " != expected "
     << audit.expected << " after " << audit.sweeps << " sweeps";
  oracle.violate(os.str());
  return audit;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  std::string value;
  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (parse_flag(arg, "--topology", &value)) {
        config.topology_file = value;
      } else if (parse_flag(arg, "--clients", &value)) {
        config.clients = parse_u64(value, "--clients");
      } else if (parse_flag(arg, "--keys", &value)) {
        config.keys = parse_u64(value, "--keys");
      } else if (parse_flag(arg, "--accounts", &value)) {
        config.accounts = parse_u64(value, "--accounts");
      } else if (parse_flag(arg, "--initial-balance", &value)) {
        config.initial_balance = parse_u64(value, "--initial-balance");
      } else if (parse_flag(arg, "--duration-ms", &value)) {
        config.duration_ms = parse_u64(value, "--duration-ms");
      } else if (parse_flag(arg, "--timeout-ms", &value)) {
        config.timeout_ms = parse_u64(value, "--timeout-ms");
      } else if (parse_flag(arg, "--grace-ms", &value)) {
        config.grace_ms = parse_u64(value, "--grace-ms");
      } else if (parse_flag(arg, "--audit-timeout-ms", &value)) {
        config.audit_timeout_ms = parse_u64(value, "--audit-timeout-ms");
      } else if (parse_flag(arg, "--mix", &value)) {
        std::array<std::uint32_t, 4> mix = {0, 0, 0, 0};
        std::istringstream is(value);
        std::string part;
        std::size_t k = 0;
        while (std::getline(is, part, ':') && k < 4) {
          mix[k++] = static_cast<std::uint32_t>(parse_u64(part, "--mix"));
        }
        if (k < 3) die("--mix wants PUT:GET:TRANSFER[:BALANCE]");
        config.mix = mix;
      } else if (parse_flag(arg, "--seed", &value)) {
        config.seed = parse_u64(value, "--seed");
      } else if (parse_flag(arg, "--kill-at-ms", &value)) {
        config.kill_at_ms.push_back(parse_u64(value, "--kill-at-ms"));
      } else if (parse_flag(arg, "--json", &value)) {
        config.emit_json = true;
        config.json_file = value;
      } else if (parse_switch(arg, "--verbose")) {
        config.verbose = true;
      } else {
        die(std::string("unknown flag '") + arg + "' (see header comment)");
      }
    }
  } catch (const UsageError& e) {
    die(e.what());
  }
  if (config.topology_file.empty()) die("--topology=FILE is required");
  if (config.clients == 0) die("--clients must be >= 1");
  if (config.keys == 0 || config.accounts == 0) {
    die("--keys/--accounts must be >= 1");
  }
  if (config.mix[0] + config.mix[1] + config.mix[2] + config.mix[3] == 0) {
    die("--mix must not be all zero");
  }

  TcpTopology topo;
  try {
    topo = TcpTopology::load(config.topology_file);
  } catch (const std::exception& e) {
    die(std::string("bad topology: ") + e.what());
  }
  for (const TcpNodeSpec& spec : topo.nodes) {
    if (spec.service_port == 0) {
      die("topology assigns node " + std::to_string(spec.id) +
          " no service_port; generate it with optrec_node --serve "
          "--write-topology=FILE (or --service-base-port)");
    }
  }

  // Per-run-unique client ids: the server's dedup table keys on client_id,
  // so a second loadgen run against a live cluster must not continue an
  // old id at seq 1 (those requests would be "stale" and never answered).
  const std::uint64_t id_base =
      (static_cast<std::uint64_t>(::getpid()) << 20) ^ (config.seed << 44);

  const std::uint64_t start_us_abs = now_us();
  const std::uint64_t deadline = start_us_abs + config.duration_ms * 1000;
  SharedOracle oracle;
  std::vector<ClientResult> results(config.clients);
  std::vector<std::thread> threads;
  threads.reserve(config.clients);
  for (std::size_t i = 0; i < config.clients; ++i) {
    threads.emplace_back([&, i] {
      run_client(i, config, topo, id_base + i, start_us_abs, deadline, oracle,
                 results[i]);
    });
  }
  for (std::thread& t : threads) t.join();

  // Fold per-client results.
  telemetry::FixedHistogram latency;
  ClientResult total;
  std::uint64_t clients_affected = 0;
  std::uint64_t max_window_us = 0;
  std::uint64_t total_window_us = 0;
  for (const ClientResult& r : results) {
    latency.merge_from(r.latency_us);
    total.attempted += r.attempted;
    total.succeeded += r.succeeded;
    total.abandoned += r.abandoned;
    total.retries += r.retries;
    total.timeouts += r.timeouts;
    total.reconnects += r.reconnects;
    total.wrong_node += r.wrong_node;
    total.stale_replies += r.stale_replies;
    for (std::size_t k = 0; k < 4; ++k) total.ops[k] += r.ops[k];
    total.insufficient += r.insufficient;
    total.not_found += r.not_found;
    if (!r.windows.empty()) ++clients_affected;
    for (const UnavailWindow& w : r.windows) {
      max_window_us = std::max(max_window_us, w.end_us - w.start_us);
      total_window_us += w.end_us - w.start_us;
    }
  }

  // Conservation audit (uses its own client identity).
  ClientResult audit_client;
  const AuditResult audit =
      run_audit(config, topo, id_base + config.clients, oracle, audit_client);

  // Join outage windows against the kill schedule: for each scheduled kill,
  // the longest window that was still open at (or started after) the kill.
  struct KillJoin {
    std::uint64_t at_ms = 0;
    std::uint64_t max_window_us = 0;
    std::uint64_t windows = 0;
  };
  std::vector<KillJoin> kill_joins;
  for (const std::uint64_t kill_ms : config.kill_at_ms) {
    KillJoin join;
    join.at_ms = kill_ms;
    const std::uint64_t kill_us = kill_ms * 1000;
    for (const ClientResult& r : results) {
      for (const UnavailWindow& w : r.windows) {
        if (w.end_us >= kill_us) {
          join.max_window_us =
              std::max(join.max_window_us, w.end_us - w.start_us);
          ++join.windows;
        }
      }
    }
    kill_joins.push_back(join);
  }

  const bench::LatencySummary lat = bench::LatencySummary::of(latency);
  const std::uint64_t violations = oracle.violations.size();

  std::printf("loadgen    clients=%zu duration=%llums requests=%llu ok=%llu "
              "abandoned=%llu retries=%llu timeouts=%llu\n",
              config.clients, (unsigned long long)config.duration_ms,
              (unsigned long long)total.attempted,
              (unsigned long long)total.succeeded,
              (unsigned long long)total.abandoned,
              (unsigned long long)total.retries,
              (unsigned long long)total.timeouts);
  std::printf("latency    p50=%.0f us p90=%.0f us p99=%.0f us (n=%llu)\n",
              lat.p50, lat.p90, lat.p99, (unsigned long long)lat.count);
  std::printf("mix        put=%llu get=%llu transfer=%llu balance=%llu "
              "insufficient=%llu not-found=%llu\n",
              (unsigned long long)total.ops[0],
              (unsigned long long)total.ops[1],
              (unsigned long long)total.ops[2],
              (unsigned long long)total.ops[3],
              (unsigned long long)total.insufficient,
              (unsigned long long)total.not_found);
  std::printf("outage     clients-affected=%llu max-window=%.1f ms "
              "total=%.1f ms\n",
              (unsigned long long)clients_affected, max_window_us / 1000.0,
              total_window_us / 1000.0);
  std::printf("audit      conserved=%s total=%llu expected=%llu sweeps=%llu\n",
              audit.conserved ? "yes" : "NO",
              (unsigned long long)audit.observed,
              (unsigned long long)audit.expected,
              (unsigned long long)audit.sweeps);
  std::printf("oracle     %s (%llu violations)\n",
              violations == 0 ? "OK" : "VIOLATED",
              (unsigned long long)violations);
  for (const std::string& v : oracle.violations) {
    std::fprintf(stderr, "oracle  !! %s\n", v.c_str());
  }

  if (config.emit_json) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("config").begin_object();
    w.kv("clients", std::uint64_t{config.clients});
    w.kv("keys", config.keys);
    w.kv("accounts", config.accounts);
    w.kv("duration_ms", config.duration_ms);
    w.kv("timeout_ms", config.timeout_ms);
    w.kv("seed", config.seed);
    w.kv("mix_put", std::uint64_t{config.mix[0]});
    w.kv("mix_get", std::uint64_t{config.mix[1]});
    w.kv("mix_transfer", std::uint64_t{config.mix[2]});
    w.kv("mix_balance", std::uint64_t{config.mix[3]});
    w.kv("nodes", std::uint64_t{topo.nodes.size()});
    w.kv("processes", std::uint64_t{topo.n});
    w.end_object();

    w.key("requests").begin_object();
    w.kv("attempted", total.attempted);
    w.kv("succeeded", total.succeeded);
    w.kv("abandoned", total.abandoned);
    w.kv("retries", total.retries);
    w.kv("timeouts", total.timeouts);
    w.kv("reconnects", total.reconnects);
    w.kv("wrong_node", total.wrong_node);
    w.kv("stale_replies", total.stale_replies);
    w.kv("puts", total.ops[0]);
    w.kv("gets", total.ops[1]);
    w.kv("transfers", total.ops[2]);
    w.kv("balances", total.ops[3]);
    w.kv("insufficient", total.insufficient);
    w.kv("not_found", total.not_found);
    w.end_object();

    w.key("latency").begin_object();
    bench::write_latency_fields(w, "request", lat);
    w.end_object();

    w.key("unavailability").begin_object();
    w.kv("clients_affected", clients_affected);
    w.kv("max_window_us", max_window_us);
    w.kv("total_window_us", total_window_us);
    w.key("windows").begin_array();
    std::size_t emitted = 0;
    for (std::size_t i = 0; i < results.size() && emitted < 256; ++i) {
      for (const UnavailWindow& win : results[i].windows) {
        if (emitted++ >= 256) break;
        w.begin_object();
        w.kv("client", std::uint64_t{i});
        w.kv("start_us", win.start_us);
        w.kv("end_us", win.end_us);
        w.end_object();
      }
    }
    w.end_array();
    w.end_object();

    w.key("kills").begin_array();
    for (const KillJoin& join : kill_joins) {
      w.begin_object();
      w.kv("at_ms", join.at_ms);
      w.kv("max_window_us", join.max_window_us);
      w.kv("windows_open_after", join.windows);
      w.end_object();
    }
    w.end_array();

    w.key("audit").begin_object();
    w.kv("conserved", audit.conserved);
    w.kv("expected", audit.expected);
    w.kv("observed", audit.observed);
    w.kv("sweeps", audit.sweeps);
    w.end_object();

    w.key("oracle").begin_object();
    w.kv("violations", violations);
    w.key("details").begin_array();
    for (const std::string& v : oracle.violations) w.value(v);
    w.end_array();
    w.end_object();
    w.end_object();
    os << "\n";

    if (config.json_file.empty()) {
      std::fputs(os.str().c_str(), stdout);
    } else {
      std::ofstream out(config.json_file, std::ios::binary);
      if (!out) die("cannot open '" + config.json_file + "'");
      out << os.str();
      if (!out) die("failed writing '" + config.json_file + "'");
    }
  }

  if (violations != 0 || !audit.conserved) return 3;
  if (total.succeeded == 0) return 1;
  return 0;
}
