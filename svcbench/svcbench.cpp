// svcbench — end-to-end benchmark of the replicated KV/bank service.
//
// One process runs the real service: an in-process TcpCluster with
// serve = true (4 protocol processes on 2 nodes, loopback sockets, zero
// injected delay, on-disk data dir, shipped ProcessConfig defaults apart from
// the flush and checkpoint intervals and Remark-1 retransmission below). A
// single-threaded load generator drives it over at most 4 client
// connections, multiplexing logical client ids; each id has at most one
// request outstanding and a retry reuses its (client_id, seq).
//
//   svcbench --workload kv-saturate|bank-open|bank-crash --seed N
//            --seconds S --trace 0|1 [--data-root DIR] [--spans-dir DIR]
//
// --trace 0 prints the end-to-end metrics, measured over a fixed S-second
// window after a warm-up. --trace 1 runs the same window twice, untraced and
// traced (client spans, registry deltas at the window edges, the program's
// own protocol trace folded into recovery phases), and prints the per-layer
// metrics plus the tracing overhead. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Any correctness violation
// prints the violations to stderr and exits 3 with no metrics; usage or
// setup errors exit 2. svcbench/README.md documents the workloads and the
// metric map.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/tcp/socket_util.h"
#include "src/tcp/tcp_cluster.h"
#include "src/telemetry/recovery_timeline.h"
#include "src/util/json.h"
#include "svcbench_core.h"

#ifndef SVCBENCH_BUILD_TYPE
#define SVCBENCH_BUILD_TYPE "unknown"
#endif

namespace svcbench {
namespace {

using optrec::Bytes;
using optrec::SimTime;
using optrec::TcpCluster;
using optrec::TcpClusterConfig;
using optrec::TcpClusterResult;
using optrec::TcpTopology;
using optrec::telemetry::FixedHistogram;
namespace fs = std::filesystem;

using Ns = std::int64_t;
constexpr Ns kMs = 1'000'000;
constexpr Ns kSec = 1'000'000'000;

Ns now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- fixed benchmark configuration (echoed on every run) --------------------

constexpr std::size_t kProcesses = 4;
constexpr std::size_t kNodes = 2;
constexpr std::size_t kConnsPerNode = 2;  // 4 client connections in total
constexpr std::uint32_t kAccountsIntensity = 4;  // ServiceApp: 16 x 4 accounts
constexpr std::uint64_t kAccounts = 16 * kAccountsIntensity;
constexpr std::uint64_t kInitialBalance = 1000;  // ServiceAppConfig default
constexpr SimTime kFlushInterval = optrec::millis(10);
/// Each checkpoint stalls its process for a snapshot fsync; at 2 s the
/// requests queued behind one stay far below 1%, so req_p99_ms measures the
/// flush path instead of the disk's fsync tail (svcbench/README.md).
constexpr SimTime kCheckpointInterval = optrec::millis(2000);
constexpr std::size_t kKvClients = 256;
/// Open-loop arrivals per second, a fifth of kv-saturate's goodput. The
/// cluster's timer wake-ups cost about 0.12 CPU-s per second whatever the
/// load, and their cost drifts with the machine's other tenants; at 1000/s
/// they made up 60% of cpu_us_per_req and moved it by 25% between sets of
/// runs, at 5000/s they make up a fifth.
constexpr double kBankRate = 5000.0;
/// The window is cut into slices of this length; the end-to-end rates and
/// percentiles are medians over slices, so one slice disturbed by a
/// neighbour's burst of CPU or disk load does not set them. kv-saturate
/// commits ~25k replies a second, enough for a p99 per 1-s slice.
constexpr Ns kSlice = 2 * kSec;
constexpr Ns kKvSlice = 1 * kSec;
constexpr Ns kCrashFirst = 1 * kSec;  // into the window
constexpr Ns kCrashPeriod = kSlice;   // one crash in the middle of each slice
constexpr Ns kCrashTailGap = 500 * kMs;  // no crash this close to window end
/// The load phase starts at this node-clock instant (after the set-up
/// probe), so the crash schedule, fixed at construction, lines up with it.
constexpr SimTime kLoadStart = optrec::millis(400);
constexpr Ns kWarmup = 1 * kSec;
constexpr Ns kRetryTimeout = 1 * kSec;
constexpr Ns kGrace = 2 * kSec;        // outstanding requests after the window
constexpr Ns kAuditBudget = 1500 * kMs;  // bank conservation sweeps
constexpr int kExtraSetups = 4;        // set-up samples besides the main pass
constexpr SimTime kSetupCap = optrec::millis(700);
constexpr Ns kProbeDeadline = 5 * kSec;

struct Options {
  Workload workload = Workload::kKvSaturate;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  std::string data_root = ".bench_build/svcbench-data";
  std::string spans_dir = ".bench_build/svcbench-spans";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "svcbench: %s\nusage: svcbench --workload "
               "kv-saturate|bank-open|bank-crash --seed N --seconds S "
               "--trace 0|1 [--data-root DIR] [--spans-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& v, const std::string& flag) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0') usage("bad value for " + flag + ": '" + v + "'");
  return x;
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + flag);
    }
    if (flag == "--workload") {
      try {
        o.workload = parse_workload(value);
      } catch (const std::invalid_argument& e) {
        usage(e.what());
      }
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_u64(value, flag);
    } else if (flag == "--seconds") {
      o.seconds = parse_u64(value, flag);
      if (o.seconds == 0 || o.seconds > 600) usage("--seconds must be 1..600");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--data-root") {
      o.data_root = value;
    } else if (flag == "--spans-dir") {
      o.spans_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

// --- statistics --------------------------------------------------------------

/// Linear-interpolated quantile of a sample (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The cluster's registries at one instant, folded over labels and nodes.
struct RegistrySnapshot {
  std::map<std::string, double> sum;  // counters and gauges
  std::map<std::string, double> max;  // gauges: largest label/node value
  std::map<std::string, FixedHistogram> hist;

  static RegistrySnapshot take(TcpCluster& cluster) {
    RegistrySnapshot s;
    for (std::uint32_t id = 0; id < kNodes; ++id) {
      for (const optrec::telemetry::Sample& sample :
           cluster.node(id).registry().collect()) {
        if (sample.kind == optrec::telemetry::SampleKind::kHistogram) {
          FixedHistogram h = FixedHistogram::from_parts(
              sample.bounds, sample.buckets, sample.sum, 0.0);
          const auto it = s.hist.find(sample.name);
          if (it == s.hist.end()) {
            s.hist.emplace(sample.name, std::move(h));
          } else {
            it->second.merge_from(h);
          }
          continue;
        }
        s.sum[sample.name] += sample.value;
        double& m = s.max[sample.name];
        m = std::max(m, sample.value);
      }
    }
    return s;
  }
};

double value_of(const std::map<std::string, double>& m,
                const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

/// Window delta of one histogram family (empty when never registered).
FixedHistogram hist_delta(const RegistrySnapshot& a, const RegistrySnapshot& b,
                          const std::string& name) {
  const auto ib = b.hist.find(name);
  if (ib == b.hist.end()) return FixedHistogram();
  const auto ia = a.hist.find(name);
  std::vector<std::uint64_t> counts = ib->second.bucket_counts();
  double sum = ib->second.sum();
  if (ia != a.hist.end()) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] -= std::min(counts[i], ia->second.bucket_counts()[i]);
    }
    sum -= ia->second.sum();
  }
  return FixedHistogram::from_parts(ib->second.bounds(), std::move(counts),
                                    sum, 0.0);
}

// --- the load generator ------------------------------------------------------

/// One request bound to a logical client, from due time to committed reply.
struct InFlight {
  Request req;
  Bytes frame;
  ProcessId owner = 0;
  std::uint64_t kver_floor = 0;  // checker floor for the key at first send
  Ns ready = 0;       // open loop: due time; closed loop: creation = send
  Ns first_sent = 0;
  Ns retry_at = 0;
  std::uint32_t attempts = 0;
};

/// Single-threaded client: kConnsPerNode non-blocking connections per node,
/// readiness via ppoll, per-request retry on timeout with the same identity.
class Generator {
 public:
  Generator(const TcpTopology& topo, const std::vector<std::uint16_t>& ports,
            Checker& checker)
      : topo_(topo), checker_(checker) {
    for (std::uint32_t node = 0; node < ports.size(); ++node) {
      for (std::size_t k = 0; k < kConnsPerNode; ++k) {
        Conn c;
        c.fd = dial(ports[node]);
        conns_.push_back(std::move(c));
      }
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Bind `req` to logical client `client` (which must be idle) and send it.
  void submit(std::uint64_t client, Request req, Ns ready) {
    InFlight f;
    req.client_id = client;
    req.seq = ++seq_[client];
    f.req = req;
    f.owner = optrec::service::key_owner(req.key, topo_.n);
    f.ready = ready;
    f.kver_floor = checker_.kver_floor(req.key);
    optrec::service::append_frame(f.frame, req.encode());
    auto [it, fresh] = inflight_.emplace(client, std::move(f));
    if (!fresh) throw std::logic_error("svcbench: client already busy");
    send(it->second, now_ns());
  }

  /// Visit every request still waiting for its committed reply.
  template <typename F>
  void for_each_outstanding(F&& f) const {
    for (const auto& [client, in] : inflight_) f(in);
  }

  /// Serve sockets and retries until `until` or, with `stop_when_idle`,
  /// until nothing is outstanding. `done(f, resp, at)` sees every completed
  /// request after the checker has.
  template <typename Done>
  void run_until(Ns until, bool stop_when_idle, Done&& done) {
    std::vector<pollfd> pfds(conns_.size());
    for (;;) {
      const Ns now = now_ns();
      if (now >= until || (stop_when_idle && inflight_.empty())) return;
      if (now >= next_retry_scan_) scan_retries(now);
      const Ns wake = std::min(until, next_retry_scan_);
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        pfds[i].fd = conns_[i].fd.get();
        pfds[i].events = static_cast<short>(
            POLLIN | (conns_[i].tx_off < conns_[i].tx.size() ? POLLOUT : 0));
        pfds[i].revents = 0;
      }
      const Ns wait = std::max<Ns>(0, wake - now);
      timespec ts{static_cast<time_t>(wait / kSec),
                  static_cast<long>(wait % kSec)};
      const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
      if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
      if (ready <= 0) continue;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (pfds[i].revents & POLLOUT) flush(conns_[i]);
        if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
          receive(conns_[i], done);
        }
      }
    }
  }

  std::uint64_t retries = 0;
  std::uint64_t wrong_node = 0;
  std::uint64_t duplicates = 0;

 private:
  struct Conn {
    optrec::Fd fd;
    Bytes rx;
    std::size_t rx_pos = 0;
    Bytes tx;
    std::size_t tx_off = 0;
  };

  static optrec::Fd dial(std::uint16_t port) {
    optrec::Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      throw std::runtime_error("connect to service port " +
                               std::to_string(port) + " failed");
    }
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd.get(), F_SETFL, ::fcntl(fd.get(), F_GETFL) | O_NONBLOCK);
    return fd;
  }

  void send(InFlight& f, Ns now) {
    const std::uint32_t node = topo_.node_of(f.owner);
    // Retries alternate between the node's connections.
    Conn& c = conns_[node * kConnsPerNode +
                     (f.req.client_id + f.attempts) % kConnsPerNode];
    if (f.attempts == 0) f.first_sent = now;
    ++f.attempts;
    f.retry_at = now + kRetryTimeout;
    c.tx.insert(c.tx.end(), f.frame.begin(), f.frame.end());
    flush(c);
  }

  static void flush(Conn& c) {
    while (c.tx_off < c.tx.size()) {
      const ssize_t n = ::send(c.fd.get(), c.tx.data() + c.tx_off,
                               c.tx.size() - c.tx_off, MSG_NOSIGNAL);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n <= 0) throw std::runtime_error("service connection lost (send)");
      c.tx_off += static_cast<std::size_t>(n);
    }
    c.tx.clear();
    c.tx_off = 0;
  }

  void scan_retries(Ns now) {
    for (auto& [client, f] : inflight_) {
      if (now < f.retry_at) continue;
      ++retries;
      send(f, now);
    }
    next_retry_scan_ = now + 5 * kMs;
  }

  template <typename Done>
  void receive(Conn& c, Done& done) {
    std::uint8_t chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd.get(), chunk, sizeof chunk, 0);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) throw std::runtime_error("service connection lost (recv)");
      c.rx.insert(c.rx.end(), chunk, chunk + n);
    }
    const Ns now = now_ns();
    while (auto body = optrec::service::next_frame(c.rx, &c.rx_pos)) {
      on_response(Response::decode(*body), now, done);
    }
    if (c.rx_pos == c.rx.size()) {
      c.rx.clear();
      c.rx_pos = 0;
    }
  }

  template <typename Done>
  void on_response(const Response& resp, Ns now, Done& done) {
    const auto it = inflight_.find(resp.client_id);
    if (it == inflight_.end() || resp.seq != it->second.req.seq) {
      ++duplicates;
      checker_.on_duplicate(resp);
      return;
    }
    if (resp.status == Status::kWrongNode) {
      // The topology routes every key to its owner; count and re-route.
      ++wrong_node;
      it->second.owner = resp.owner;
      send(it->second, now);
      return;
    }
    const InFlight f = std::move(it->second);
    inflight_.erase(it);
    checker_.on_reply(f.req, resp, f.kver_floor);
    done(f, resp, now);
  }

  const TcpTopology& topo_;
  Checker& checker_;
  std::vector<Conn> conns_;
  std::unordered_map<std::uint64_t, InFlight> inflight_;  // client -> request
  std::unordered_map<std::uint64_t, std::uint64_t> seq_;  // client -> last seq
  Ns next_retry_scan_ = 0;
};

// --- one cluster lifetime ----------------------------------------------------

struct Span {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  Op op = Op::kGet;
  ProcessId pid = 0;
  Ns due = 0;
  Ns sent = 0;
  Ns reply = 0;
  std::uint32_t attempts = 0;
};

struct CrashMark {
  ProcessId pid = 0;
  Ns at = 0;                       // steady-clock instant of the crash
  std::optional<Ns> first_reply;   // first committed reply owned by pid, due after
};

struct PassResult {
  Checker checker;  // fresh per pass: kvers restart with every cluster
  double setup_s = 0;
  std::uint64_t attempted = 0;  // requests due in the window
  std::uint64_t failed = 0;     // ... not committed by the end of grace
  std::uint64_t replies_in_window = 0;
  /// Requests due in the window; a failed one counts as due -> end of grace.
  std::vector<double> latency_ms;
  std::vector<double> lag_us;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;  // window requests that needed a retry
  std::uint64_t wrong_node = 0;
  std::uint64_t duplicates = 0;
  double gen_cpu_s = 0;  // the generator thread's CPU in the window
  struct Slice {
    std::vector<double> latency_ms;  // requests due in the slice
    std::uint64_t replies = 0;       // committed replies received in it
    double cpu_us_per_req = 0;
  };
  std::vector<Slice> slices;
  double slice_s = 0;
  std::vector<CrashMark> crashes;
  std::uint64_t audit_sweeps = 0;
  RegistrySnapshot before, after;
  TcpClusterResult cluster;
  bool recovery_traced = false;  // `timeline` folds the program's trace
  optrec::telemetry::RecoveryTimelineReport timeline;
  std::uint64_t trace_events = 0;
  std::deque<Span> spans;  // a deque: growing it never copies on the hot path
};

TcpClusterConfig cluster_config(const Options& o, const std::string& data_dir,
                                SimTime time_cap, bool trace,
                                std::vector<optrec::CrashEvent> crashes) {
  TcpClusterConfig c;
  c.n = kProcesses;
  c.nodes = kNodes;
  c.seed = o.seed;
  c.protocol = optrec::ProtocolKind::kDamaniGarg;
  c.workload.kind = optrec::WorkloadKind::kService;
  c.workload.intensity = kAccountsIntensity;
  c.process.flush_interval = kFlushInterval;
  c.process.checkpoint_interval = kCheckpointInterval;
  c.process.retransmit_on_failure = true;
  c.faults.min_delay = 0;
  c.faults.max_delay = 0;
  c.crashes = std::move(crashes);
  c.time_cap = time_cap;
  c.enable_oracle = false;  // serving clusters: the Checker is the oracle
  c.enable_trace = trace;
  c.data_dir = data_dir;
  c.serve = true;
  return c;
}

/// Owns a running cluster: constructs it, runs it on a thread, joins it.
class LiveCluster {
 public:
  explicit LiveCluster(TcpClusterConfig config)
      : constructed_at_(now_ns()), cluster_(std::move(config)) {
    runner_ = std::thread([this] {
      try {
        result_ = cluster_.run();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
  }
  ~LiveCluster() {
    if (runner_.joinable()) runner_.join();
  }
  LiveCluster(const LiveCluster&) = delete;
  LiveCluster& operator=(const LiveCluster&) = delete;

  Ns constructed_at() const { return constructed_at_; }
  TcpCluster& cluster() { return cluster_; }
  std::vector<std::uint16_t> service_ports() {
    std::vector<std::uint16_t> ports;
    for (std::uint32_t id = 0; id < kNodes; ++id) {
      ports.push_back(cluster_.node(id).service_port());
    }
    return ports;
  }
  /// Steady-clock instant of node `id`'s runtime time `t`.
  Ns instant(std::uint32_t id, SimTime t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               cluster_.node(id).clock().to_time_point(t).time_since_epoch())
        .count();
  }
  /// Wait for the time cap to end the run; rethrows a runner failure.
  TcpClusterResult join() {
    runner_.join();
    if (error_) std::rethrow_exception(error_);
    return std::move(result_);
  }

 private:
  Ns constructed_at_;
  TcpCluster cluster_;
  TcpClusterResult result_;
  std::exception_ptr error_;
  std::thread runner_;
};

/// Send one request and wait for its committed reply; returns the reply
/// instant. This is the set-up probe: cluster construction to first reply.
Ns probe(Generator& gen, Workload w, std::uint64_t client, Ns deadline) {
  Request req;
  req.op = is_bank(w) ? Op::kBalance : Op::kPut;
  req.key = 0;
  req.value = 1;
  gen.submit(client, req, now_ns());
  Ns replied = 0;
  gen.run_until(deadline, /*stop_when_idle=*/true,
                [&](const InFlight&, const Response&, Ns at) { replied = at; });
  if (replied == 0) throw std::runtime_error("set-up probe got no reply");
  return replied;
}

std::string fresh_dir(const std::string& root, const std::string& name) {
  const fs::path p = fs::path(root) / name;
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

/// Set-up only: construct a cluster, time construction to the first
/// committed reply, let it run out its short cap.
double setup_sample(const Options& o, const std::string& root, int index) {
  Checker checker;
  const std::string dir = fresh_dir(root, "setup-" + std::to_string(index));
  double seconds = 0;
  {
    LiveCluster live(cluster_config(o, dir, kSetupCap, false, {}));
    {
      Generator gen(live.cluster().topology(), live.service_ports(), checker);
      const Ns replied =
          probe(gen, o.workload, 1, live.constructed_at() + kSetupCap * 1000 -
                                        100 * kMs);
      seconds = static_cast<double>(replied - live.constructed_at()) / 1e9;
    }
    live.join();
  }
  fs::remove_all(dir);
  if (!checker.ok()) throw std::runtime_error("set-up probe reply invalid");
  return seconds;
}

/// One cluster lifetime: set-up probe, warm-up, the measured window, grace,
/// and (bank) the conservation audit.
PassResult run_pass(const Options& o, const std::string& root, bool traced) {
  const Ns window = static_cast<Ns>(o.seconds) * kSec;
  const SimTime window_start_rt =
      kLoadStart + static_cast<SimTime>(kWarmup / 1000);
  std::vector<optrec::CrashEvent> crash_plan;
  if (o.workload == Workload::kBankCrash) {
    // One crash every kCrashPeriod, rotating over the pids from a seeded
    // start, a real worker-thread death plus supervisor respawn.
    std::uint64_t k = 0;
    for (Ns t = kCrashFirst; t <= window - kCrashTailGap; t += kCrashPeriod) {
      optrec::CrashEvent c;
      c.at = window_start_rt + static_cast<SimTime>(t / 1000);
      c.pid = static_cast<ProcessId>((o.seed + k++) % kProcesses);
      crash_plan.push_back(c);
    }
  }
  const SimTime cap = window_start_rt +
                      static_cast<SimTime>((window + kGrace + kAuditBudget) /
                                           1000) +
                      optrec::millis(300);
  const std::string dir = fresh_dir(root, traced ? "traced" : "main");

  PassResult r;
  Checker& checker = r.checker;
  // Size the per-request stores up front: rehashing or reallocating them
  // mid-window would stall the generator and show up as request latency.
  const std::size_t expected =
      static_cast<std::size_t>(o.seconds + 2) *
      (o.workload == Workload::kKvSaturate ? 48'000 : 10'000);
  checker.reserve(expected);
  r.latency_ms.reserve(expected);
  r.lag_us.reserve(expected);
  {
    // The program's own protocol trace is an in-memory event vector; at
    // kv-saturate's rate it would hold millions of events, so only the bank
    // workloads (where it yields the recovery phases) turn it on.
    LiveCluster live(cluster_config(o, dir, cap,
                                    traced && is_bank(o.workload), crash_plan));
    TcpCluster& cluster = live.cluster();
    const Placement placement = Placement::make(cluster.topology(), kAccounts);
    for (const optrec::CrashEvent& c : crash_plan) {
      r.crashes.push_back(
          CrashMark{c.pid, live.instant(cluster.topology().node_of(c.pid), c.at),
                    std::nullopt});
    }
    {
      Generator gen(cluster.topology(), live.service_ports(), checker);
      const Ns probed = probe(gen, o.workload, 1,
                              live.constructed_at() + kProbeDeadline);
      r.setup_s = static_cast<double>(probed - live.constructed_at()) / 1e9;

      const Ns load_start = std::max(now_ns(), live.instant(0, kLoadStart));
      const Ns ws = std::max(now_ns(), live.instant(0, window_start_rt));
      const Ns we = ws + window;
      while (now_ns() < load_start) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }

      double gen0 = 0;
      bool window_open = false;
      const Ns slice_target =
          o.workload == Workload::kKvSaturate ? kKvSlice : kSlice;
      const Ns slice_len = window / std::max<Ns>(1, window / slice_target);
      r.slices.resize(static_cast<std::size_t>(window / slice_len));
      r.slice_s = static_cast<double>(slice_len) / 1e9;
      const auto slice_of = [&](Ns t) {
        return std::min(static_cast<std::size_t>((t - ws) / slice_len),
                        r.slices.size() - 1);
      };
      Ns next_slice = ws + slice_len;
      std::size_t closed = 0;
      double slice_proc = 0, slice_gen = 0;
      const auto open_window = [&] {
        if (traced) r.before = RegistrySnapshot::take(cluster);
        slice_proc = process_cpu_s();
        gen0 = slice_gen = thread_cpu_s();
        window_open = true;
      };
      const auto close_slice = [&] {
        const double proc = process_cpu_s(), gen = thread_cpu_s();
        PassResult::Slice& slice = r.slices.at(closed++);
        slice.cpu_us_per_req =
            ((proc - slice_proc) - (gen - slice_gen)) * 1e6 /
            static_cast<double>(std::max<std::uint64_t>(1, slice.replies));
        slice_proc = proc;
        slice_gen = gen;
        next_slice += slice_len;
      };

      // Logical clients: 100.. for load, the audit takes fresh ids after.
      std::uint64_t next_client = 100;
      std::vector<std::uint64_t> idle;
      std::unordered_map<std::uint64_t, RequestStream> closed_streams;
      RequestStream open_stream(o.workload, o.seed, 0, placement);
      bool issuing = true;

      const auto on_done = [&](const InFlight& f, const Response&, Ns at) {
        if (at >= ws && at < we) {
          ++r.replies_in_window;
          ++r.slices[slice_of(at)].replies;
        }
        if (f.ready >= ws && f.ready < we) {
          const double ms = static_cast<double>(at - f.ready) / 1e6;
          r.latency_ms.push_back(ms);
          r.slices[slice_of(f.ready)].latency_ms.push_back(ms);
          r.lag_us.push_back(static_cast<double>(f.first_sent - f.ready) / 1e3);
          if (f.attempts > 1) ++r.timeouts;
          if (traced) {
            r.spans.push_back(Span{f.req.client_id, f.req.seq, f.req.op,
                                   f.owner, f.ready - ws, f.first_sent - ws,
                                   at - ws, f.attempts});
          }
        }
        for (CrashMark& c : r.crashes) {
          if (!c.first_reply && f.owner == c.pid && f.ready >= c.at) {
            c.first_reply = at;
          }
        }
        const std::uint64_t client = f.req.client_id;
        if (o.workload != Workload::kKvSaturate) {
          idle.push_back(client);
          return;
        }
        if (!issuing) return;
        const Ns now = now_ns();
        if (now >= ws && now < we) ++r.attempted;
        gen.submit(client, closed_streams.at(client).next(), now);
      };

      if (o.workload == Workload::kKvSaturate) {
        // Closed loop: kKvClients clients, each with its own seeded stream.
        for (std::size_t i = 0; i < kKvClients; ++i) {
          const std::uint64_t client = next_client++;
          closed_streams.emplace(
              client, RequestStream(o.workload, o.seed, i + 1, placement));
          gen.submit(client, closed_streams.at(client).next(), now_ns());
        }
        gen.run_until(ws, false, on_done);
        open_window();
        while (next_slice <= we) {
          gen.run_until(next_slice, false, on_done);
          close_slice();
        }
        gen.run_until(we, false, on_done);
      } else {
        // Open loop: Poisson arrivals at kBankRate, each bound to an idle
        // logical client (a new one when all are busy).
        Ns due = load_start;
        while (now_ns() < we) {
          if (!window_open && now_ns() >= ws) open_window();
          const Ns now = now_ns();
          while (due <= now && due < we) {
            std::uint64_t client;
            if (idle.empty()) {
              client = next_client++;
            } else {
              client = idle.back();
              idle.pop_back();
            }
            if (due >= ws) ++r.attempted;
            gen.submit(client, open_stream.next(), due);
            due += static_cast<Ns>(open_stream.next_gap_us(kBankRate) * 1000);
          }
          Ns until = std::min(due, we);
          if (!window_open) until = std::min(until, ws);
          if (window_open) {
            if (now_ns() >= next_slice) close_slice();
            until = std::min(until, next_slice);
          }
          gen.run_until(until, false, on_done);
        }
        if (next_slice <= now_ns()) close_slice();
      }
      r.gen_cpu_s = thread_cpu_s() - gen0;
      if (traced) r.after = RegistrySnapshot::take(cluster);

      // Grace: no new requests; outstanding ones may still commit.
      issuing = false;
      gen.run_until(we + kGrace, /*stop_when_idle=*/true, on_done);
      // A window request still uncommitted has failed. It misses every
      // latency limit, so it enters the percentiles too, with the time it
      // waited until the end of grace: a change that turns slow requests
      // into failures cannot read as faster.
      const Ns grace_end = now_ns();
      gen.for_each_outstanding([&](const InFlight& f) {
        if (f.ready < ws || f.ready >= we) return;
        ++r.failed;
        const double ms = static_cast<double>(grace_end - f.ready) / 1e6;
        r.latency_ms.push_back(ms);
        r.slices[slice_of(f.ready)].latency_ms.push_back(ms);
      });

      if (is_bank(o.workload)) {
        // Conservation: sweep every account until the total settles (credits
        // may still be in flight right after the load stops).
        const Ns audit_end = now_ns() + kAuditBudget;
        const std::uint64_t first_audit_client = next_client;
        std::uint64_t total = 0;
        while (now_ns() < audit_end) {
          ++r.audit_sweeps;
          total = 0;
          std::uint64_t answered = 0;
          const auto on_balance = [&](const InFlight& f, const Response& resp,
                                      Ns) {
            if (f.req.client_id < first_audit_client) return;  // late load
            total += resp.value;
            ++answered;
          };
          for (std::uint64_t a = 0; a < kAccounts; ++a) {
            Request req;
            req.op = Op::kBalance;
            req.key = a;
            gen.submit(next_client++, req, now_ns());
          }
          gen.run_until(audit_end, /*stop_when_idle=*/true, on_balance);
          if (answered == kAccounts &&
              total == kAccounts * kInitialBalance) {
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        checker.check_conservation(total, kAccounts * kInitialBalance);
      }
      r.retries = gen.retries;
      r.wrong_node = gen.wrong_node;
      r.duplicates = gen.duplicates;
    }
    r.cluster = live.join();
    if (traced && cluster.trace() != nullptr) {
      r.recovery_traced = true;
      r.trace_events = cluster.trace()->size();
      r.timeline =
          optrec::telemetry::analyze_recovery_timeline(cluster.trace()->events());
    }
  }
  fs::remove_all(dir);
  return r;
}

/// End-of-run assertions on the program's own counters.
void check_cluster(PassResult& r) {
  Checker& checker = r.checker;
  const TcpClusterResult& c = r.cluster;
  if (c.exit_code != 0) {
    checker.violate("cluster exit code " + std::to_string(c.exit_code));
  }
  for (std::size_t id = 0; id < c.per_node.size(); ++id) {
    const auto& n = c.per_node[id];
    const std::string node = "node " + std::to_string(id) + ": ";
    // Without failures every gated reply is released. A crash drops the
    // gated outputs of lost states and replay gates them again, so with
    // crashes the gated count may only exceed the released one.
    const bool gate_ok = r.crashes.empty()
                             ? n.service.replies_gated == n.service.replies_released
                             : n.service.replies_gated >= n.service.replies_released;
    if (!gate_ok) {
      checker.violate(node + "replies_gated " +
                      std::to_string(n.service.replies_gated) +
                      " != replies_released " +
                      std::to_string(n.service.replies_released));
    }
    if (n.tcp.protocol_errors != 0 || n.service.protocol_errors != 0) {
      checker.violate(node + "protocol errors (tcp " +
                      std::to_string(n.tcp.protocol_errors) + ", service " +
                      std::to_string(n.service.protocol_errors) + ")");
    }
  }
  const std::uint64_t worst = c.metrics.max_rollbacks_per_process_per_failure();
  if (worst > 1) {
    checker.violate("a process rolled back " + std::to_string(worst) +
                    " times for one failure");
  }
  // Every planned crash is a failure the trace folds, in plan order, whose
  // phase boundaries are in order (so the phases sum exactly to its
  // unavailability) and whose process delivered again.
  if (r.recovery_traced && r.timeline.failures.size() != r.crashes.size()) {
    checker.violate("the trace folds " +
                    std::to_string(r.timeline.failures.size()) +
                    " failures for " + std::to_string(r.crashes.size()) +
                    " crashes");
  }
  for (std::size_t i = 0; i < r.timeline.failures.size(); ++i) {
    const auto& f = r.timeline.failures[i];
    const std::string who = "recovery of pid " + std::to_string(f.pid) + ": ";
    if (i < r.crashes.size() && f.pid != r.crashes[i].pid) {
      checker.violate(who + "crash " + std::to_string(i) + " was of pid " +
                      std::to_string(r.crashes[i].pid));
    }
    if (!(f.t_crash <= f.t_detect && f.t_detect <= f.t_disseminate &&
          f.t_disseminate <= f.t_rollback && f.t_rollback <= f.t_restart &&
          f.t_restart <= f.t_resume)) {
      checker.violate(who + "phase boundaries out of order");
    }
    if (!f.complete) {
      checker.violate(who + "no delivery after restart by the end of the run");
    }
  }
  for (const CrashMark& c : r.crashes) {
    if (!c.first_reply) {
      checker.violate("pid " + std::to_string(c.pid) +
                      " committed no reply to a request due after its crash");
    }
  }
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Latency samples of window requests that committed.
std::size_t committed_samples(const PassResult& r) {
  return r.latency_ms.size() - r.failed;
}

/// MiB the load generator keeps for a pass: the checker's tables, the
/// latency samples and the spans. It is resident at the process's peak, so
/// rss_mb leaves it out and reports the program's memory.
double generator_mb(const PassResult& r) {
  std::size_t bytes = r.checker.footprint_bytes() +
                      (r.latency_ms.size() + r.lag_us.size()) * sizeof(double) +
                      r.spans.size() * sizeof(Span);
  for (const PassResult::Slice& s : r.slices) {
    bytes += s.latency_ms.capacity() * sizeof(double);
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::vector<Metric> end_to_end(const PassResult& r, double setup_s) {
  std::vector<double> goodput, p50, p99, cpu;
  for (const PassResult::Slice& s : r.slices) {
    goodput.push_back(static_cast<double>(s.replies) / r.slice_s);
    p50.push_back(quantile(s.latency_ms, 0.50));
    p99.push_back(quantile(s.latency_ms, 0.99));
    cpu.push_back(s.cpu_us_per_req);
  }
  return {
      {"setup_s", setup_s, "s"},
      {"goodput_rps", quantile(goodput, 0.5), "1/s"},
      {"req_p50_ms", quantile(p50, 0.5), "ms"},
      {"req_p99_ms", quantile(p99, 0.5), "ms"},
      {"cpu_us_per_req", quantile(cpu, 0.5), "us/req"},
      {"rss_mb", peak_rss_mb() - generator_mb(r), "MiB"},
  };
}

double outage_ms(const PassResult& r) {
  std::vector<double> v;
  for (const CrashMark& c : r.crashes) {
    if (c.first_reply) v.push_back(static_cast<double>(*c.first_reply - c.at) / 1e6);
  }
  return quantile(v, 0.5);
}

std::vector<Metric> per_layer(const PassResult& r, const PassResult& untraced) {
  const RegistrySnapshot& a = r.before;
  const RegistrySnapshot& b = r.after;
  const auto d = [&](const std::string& name) {
    return value_of(b.sum, name) - value_of(a.sum, name);
  };
  const double replies = static_cast<double>(std::max<std::uint64_t>(
      1, r.replies_in_window));
  const auto per_req = [&](double v) { return v / replies; };
  const FixedHistogram gate = hist_delta(a, b, "optrec_output_gate_latency_us");
  const FixedHistogram delivery = hist_delta(a, b, "optrec_delivery_latency_us");
  const FixedHistogram flush = hist_delta(a, b, "optrec_wal_flush_latency_us");
  const FixedHistogram wakeup = hist_delta(a, b, "optrec_tcp_frames_per_wakeup");
  const FixedHistogram batch =
      hist_delta(a, b, "optrec_tcp_writev_batch_segments");
  const double proc_msgs = d("optrec_app_messages_sent_total");
  const double lag_p99 = quantile(r.lag_us, 0.99);

  std::vector<double> detect, dissem, rollback, replay, resume, unavail;
  std::uint64_t replayed = 0, lost = 0;
  for (const auto& f : r.timeline.failures) {
    detect.push_back(static_cast<double>(f.detection_us()));
    dissem.push_back(static_cast<double>(f.dissemination_us()));
    rollback.push_back(static_cast<double>(f.rollback_us()));
    replay.push_back(static_cast<double>(f.replay_us()));
    resume.push_back(static_cast<double>(f.resume_us()));
    unavail.push_back(static_cast<double>(f.unavailability_us()));
    replayed += f.messages_replayed;
    lost += f.deliveries_lost;
  }
  // Shares divide by the request p99 taken through the same bucket ladder
  // as the program's histograms, so both sides carry the same bucket
  // interpolation.
  FixedHistogram req_hist, lag_hist;
  for (double ms : r.latency_ms) req_hist.observe(ms * 1e3);
  for (double us : r.lag_us) lag_hist.observe(us);
  const double req_p99_bucketed = req_hist.percentile(0.99);
  const auto share = [&](double part) {
    return req_p99_bucketed == 0 ? 0.0 : part / req_p99_bucketed;
  };
  const double fail_ratio =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  // Overhead = how much worse the traced pass read than the untraced one,
  // in percent (goodput: lower is worse; latency and CPU: higher is worse).
  const std::vector<Metric> base_e2e = end_to_end(untraced, 0);
  const std::vector<Metric> traced_e2e = end_to_end(r, 0);
  const auto overhead = [&](std::size_t i) {
    const double base = base_e2e[i].value;
    const double change =
        base == 0 ? 0.0 : (traced_e2e[i].value - base) / base * 100.0;
    return base_e2e[i].name == "goodput_rps" ? -change : change;
  };

  return {
      {"loadgen.lag_p99_us", lag_p99, "us"},
      {"loadgen.samples", static_cast<double>(committed_samples(r)), "count"},
      {"loadgen.retries", static_cast<double>(r.retries), "count"},
      {"loadgen.timeouts", static_cast<double>(r.timeouts), "count"},
      {"loadgen.cpu_ms", r.gen_cpu_s * 1e3, "ms"},
      {"loadgen.mem_mb", generator_mb(r), "MiB"},
      {"service.requests", d("optrec_service_requests_total"), "count"},
      {"service.replies_sent", d("optrec_service_replies_sent_total"), "count"},
      {"service.replies_dropped", d("optrec_service_replies_dropped_total"),
       "count"},
      {"service.wrong_node", d("optrec_service_wrong_node_total"), "count"},
      {"service.protocol_errors", d("optrec_service_protocol_errors_total"),
       "count"},
      {"service.connections", value_of(b.sum, "optrec_service_connections_total"),
       "count"},
      {"core.gate_wait_p50_us", gate.percentile(0.50), "us"},
      {"core.gate_wait_p99_us", gate.percentile(0.99), "us"},
      {"core.stability_msgs_per_req",
       per_req(d("optrec_net_messages_sent_total") -
               d("optrec_net_app_messages_sent_total")),
       "msg/req"},
      {"core.postponed", d("optrec_messages_postponed_total"), "count"},
      {"core.discarded_obsolete", d("optrec_messages_orphaned_total"), "count"},
      {"core.discarded_duplicate", d("optrec_messages_duplicate_total"),
       "count"},
      {"core.rollbacks", d("optrec_rollbacks_total"), "count"},
      {"core.states_rolled_back", d("optrec_states_rolled_back_total"),
       "count"},
      {"core.max_rollbacks_per_process_per_failure",
       static_cast<double>(
           r.cluster.metrics.max_rollbacks_per_process_per_failure()),
       "count"},
      {"core.tokens_processed", d("optrec_tokens_processed_total"), "count"},
      {"clocks.piggyback_bytes_per_msg",
       proc_msgs == 0 ? 0.0 : d("optrec_piggyback_bytes_total") / proc_msgs,
       "B/msg"},
      {"wire.message_bytes_per_req", per_req(d("optrec_net_message_bytes_total")),
       "B/req"},
      {"live.delivery_p50_us", delivery.percentile(0.50), "us"},
      {"live.delivery_p99_us", delivery.percentile(0.99), "us"},
      {"live.ring_high_water", value_of(b.max, "optrec_channel_ring_high_water"),
       "count"},
      {"tcp.frames_tx_per_req", per_req(d("optrec_tcp_frames_tx_total")),
       "frame/req"},
      {"tcp.bytes_tx_per_req", per_req(d("optrec_tcp_bytes_tx_total")), "B/req"},
      {"tcp.writev_calls_per_req", per_req(d("optrec_tcp_writev_calls_total")),
       "call/req"},
      {"tcp.frames_per_wakeup_p50", wakeup.percentile(0.50), "frame"},
      {"tcp.writev_batch_p50", batch.percentile(0.50), "segment"},
      {"tcp.backpressure_drops", d("optrec_tcp_backpressure_drops_total"),
       "count"},
      {"tcp.protocol_errors", d("optrec_tcp_protocol_errors_total"), "count"},
      {"durable.fsyncs_per_req", per_req(d("optrec_fsync_total")), "fsync/req"},
      {"durable.wal_bytes_per_req", per_req(d("optrec_wal_bytes_written_total")),
       "B/req"},
      {"durable.flush_p50_us", flush.percentile(0.50), "us"},
      {"durable.flush_p99_us", flush.percentile(0.99), "us"},
      {"durable.snapshot_writes", d("optrec_snapshot_writes_total"), "count"},
      {"recovery.failures", static_cast<double>(r.timeline.failures.size()),
       "count"},
      {"recovery.detection_us", quantile(detect, 0.5), "us"},
      {"recovery.dissemination_us", quantile(dissem, 0.5), "us"},
      {"recovery.rollback_us", quantile(rollback, 0.5), "us"},
      {"recovery.replay_us", quantile(replay, 0.5), "us"},
      {"recovery.resume_us", quantile(resume, 0.5), "us"},
      {"recovery.unavailability_us", quantile(unavail, 0.5), "us"},
      {"recovery.messages_replayed", static_cast<double>(replayed), "count"},
      {"recovery.deliveries_lost", static_cast<double>(lost), "count"},
      {"e2e.fail_ratio", fail_ratio, "ratio"},
      {"e2e.outage_ms", outage_ms(r), "ms"},
      {"share.gate_wait_p99_of_req_p99", share(gate.percentile(0.99)), "ratio"},
      {"share.flush_p99_of_req_p99", share(flush.percentile(0.99)), "ratio"},
      {"share.delivery_p99_of_req_p99", share(delivery.percentile(0.99)),
       "ratio"},
      {"share.lag_p99_of_req_p99", share(lag_hist.percentile(0.99)), "ratio"},
      {"trace.events", static_cast<double>(r.trace_events), "count"},
      {"trace.overhead_goodput_pct", overhead(1), "%"},
      {"trace.overhead_req_p50_pct", overhead(2), "%"},
      {"trace.overhead_req_p99_pct", overhead(3), "%"},
      {"trace.overhead_cpu_pct", overhead(4), "%"},
  };
}

std::string read_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string fs_type(const std::string& path) {
  struct statfs s {};
  if (::statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

void echo_config(const Options& o, const std::string& data_root) {
  utsname u{};
  ::uname(&u);
  std::printf("config   workload=%s seed=%llu window_s=%llu trace=%d "
              "warmup_s=%.1f\n",
              workload_name(o.workload), (unsigned long long)o.seed,
              (unsigned long long)o.seconds, o.trace ? 1 : 0,
              static_cast<double>(kWarmup) / 1e9);
  std::printf("cluster  n=%zu nodes=%zu client_conns=%zu injected_delay_us=0 "
              "flush_ms=%llu checkpoint_ms=%llu gossip_ms=%llu "
              "retransmit=on data_dir_fs=%s\n",
              kProcesses, kNodes, kNodes * kConnsPerNode,
              (unsigned long long)(kFlushInterval / 1000),
              (unsigned long long)(kCheckpointInterval / 1000),
              (unsigned long long)(optrec::ProcessConfig{}
                                       .stability_gossip_interval /
                                   1000),
              fs_type(data_root).c_str());
  if (o.workload == Workload::kKvSaturate) {
    std::printf("load     closed-loop clients=%zu keys=%llu mix=put50:get50\n",
                kKvClients, (unsigned long long)kKvKeys);
  } else {
    std::printf("load     open-loop poisson rate=%.0f/s accounts=%llu "
                "mix=transfer80:balance20 crashes=%s\n",
                kBankRate, (unsigned long long)kAccounts,
                o.workload == Workload::kBankCrash ? "rotating" : "none");
  }
  std::printf("machine  nproc=%ld cpu=\"%s\" kernel=%s build=%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), read_cpu_model().c_str(),
              u.release, SVCBENCH_BUILD_TYPE);
}

void write_spans(const Options& o, const std::deque<Span>& spans) {
  fs::create_directories(o.spans_dir);
  const fs::path path = fs::path(o.spans_dir) /
                        (std::string(workload_name(o.workload)) + "-seed" +
                         std::to_string(o.seed) + ".jsonl");
  std::ofstream out(path, std::ios::binary);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // One request = two spans sharing `id`: loadgen (due -> sent) and
    // service (sent -> committed reply). Microseconds from window start.
    out << "{\"id\":" << i << ",\"client\":" << s.client << ",\"seq\":" << s.seq
        << ",\"op\":\"" << optrec::service::op_name(s.op) << "\",\"pid\":"
        << s.pid << ",\"due_us\":" << s.due / 1000 << ",\"sent_us\":"
        << s.sent / 1000 << ",\"reply_us\":" << s.reply / 1000
        << ",\"attempts\":" << s.attempts << "}\n";
  }
  std::printf("spans    %zu requests -> %s\n", spans.size(),
              path.string().c_str());
}

void print_metrics(const char* label, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-8s %-44s %14.4f %s\n", label, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_result(const PassResult& r, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  optrec::JsonWriter w(os);
  w.begin_object();
  w.kv("correct", true);
  w.kv("attempted", std::max<std::uint64_t>(1, r.attempted));
  w.kv("failed", r.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << os.str() << std::endl;
}

/// The layer whose p99 takes the largest share of the request p99.
void print_dominant(const std::vector<Metric>& layer) {
  const auto get = [&](const std::string& name) {
    for (const Metric& m : layer) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  const std::pair<const char*, const char*> stages[] = {
      {"core (output-commit gate wait)", "share.gate_wait_p99_of_req_p99"},
      {"live (send-to-handler delivery)", "share.delivery_p99_of_req_p99"},
      {"loadgen (generator lag)", "share.lag_p99_of_req_p99"},
  };
  const auto* best = &stages[0];
  for (const auto& s : stages) {
    if (get(s.second) > get(best->second)) best = &s;
  }
  std::printf("dominant %s = %.0f%% of req_p99; durable flush p99 = %.0f%% "
              "of req_p99 (inside the gate wait)\n",
              best->first, get(best->second) * 100,
              get("share.flush_p99_of_req_p99") * 100);
}

int run(const Options& o) {
  const std::string data_root =
      fresh_dir(o.data_root, "run-" + std::to_string(::getpid()));
  echo_config(o, data_root);
  std::vector<double> setups;
  if (!o.trace) {
    for (int i = 0; i < kExtraSetups; ++i) {
      setups.push_back(setup_sample(o, data_root, i));
    }
  }
  PassResult main = run_pass(o, data_root, /*traced=*/false);
  check_cluster(main);
  setups.push_back(main.setup_s);
  std::optional<PassResult> traced;
  if (o.trace && main.checker.ok()) {
    traced = run_pass(o, data_root, /*traced=*/true);
    check_cluster(*traced);
  }
  fs::remove_all(data_root);

  const PassResult& shown = traced ? *traced : main;
  std::printf("requests attempted=%llu failed=%llu fail_ratio=%.6f "
              "samples=%zu retries=%llu wrong_node=%llu duplicates=%llu "
              "audit_sweeps=%llu\n",
              (unsigned long long)shown.attempted,
              (unsigned long long)shown.failed,
              shown.attempted ? static_cast<double>(shown.failed) /
                                    static_cast<double>(shown.attempted)
                              : 0.0,
              committed_samples(shown), (unsigned long long)shown.retries,
              (unsigned long long)shown.wrong_node,
              (unsigned long long)shown.duplicates,
              (unsigned long long)shown.audit_sweeps);
  for (const CrashMark& c : shown.crashes) {
    std::printf("crash    pid=%u outage_ms=%.3f\n", c.pid,
                c.first_reply ? static_cast<double>(*c.first_reply - c.at) / 1e6
                              : -1.0);
  }
  if (!shown.crashes.empty()) {
    std::printf("outage   median_ms=%.3f over %zu crashes\n", outage_ms(shown),
                shown.crashes.size());
  }
  for (const auto& f : shown.timeline.failures) {
    std::printf("failure  pid=%u detect=%llu dissem=%llu rollback=%llu "
                "replay=%llu resume=%llu = unavail=%llu us%s\n",
                f.pid, (unsigned long long)f.detection_us(),
                (unsigned long long)f.dissemination_us(),
                (unsigned long long)f.rollback_us(),
                (unsigned long long)f.replay_us(),
                (unsigned long long)f.resume_us(),
                (unsigned long long)f.unavailability_us(),
                f.complete ? "" : " (incomplete)");
  }

  std::uint64_t violations = 0;
  for (const PassResult* pass : {&main, traced ? &*traced : nullptr}) {
    if (pass == nullptr) continue;
    for (const std::string& v : pass->checker.violations()) {
      std::fprintf(stderr, "svcbench !! %s\n", v.c_str());
    }
    violations += pass->checker.violation_count();
  }
  if (violations != 0) {
    std::fprintf(stderr, "svcbench: %llu correctness violation(s)\n",
                 (unsigned long long)violations);
    return 3;
  }

  const std::vector<Metric> e2e = end_to_end(main, quantile(setups, 0.5));
  print_metrics("e2e", e2e);
  if (!traced) {
    print_result(main, e2e);
    return 0;
  }
  write_spans(o, traced->spans);
  const std::vector<Metric> layer = per_layer(*traced, main);
  print_metrics("layer", layer);
  print_dominant(layer);
  print_result(*traced, layer);
  return 0;
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) {
  const svcbench::Options options = svcbench::parse_options(argc, argv);
  try {
    return svcbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svcbench: %s\n", e.what());
    return 2;
  }
}
