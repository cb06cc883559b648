// svcbench core: the socket-free half of the service benchmark.
//
//  * RequestStream — the seeded request generator. A workload's whole
//    request stream (ops, keys, accounts, amounts, and for the open loop the
//    Poisson arrival gaps) is a function of (workload, seed, stream id) and
//    nothing else, so the same seed always offers the cluster the same
//    requests.
//  * Checker — the client-side correctness oracle, the same guarantees
//    optrec_loadgen checks, reimplemented here so the benchmark does not
//    depend on a tool it measures against:
//      - monotonic reads: a reply never carries a kver below the highest
//        kver any reply had committed for that key before the request was
//        first sent, and a PUT always advances it (the generator is one
//        thread, so "before" is well defined; this implies the per-client
//        guarantee optrec_loadgen checks);
//      - write coherence: every observation of one (key, kver) carries the
//        same value, across all clients;
//      - exactly-once retries: every reply for one (client, seq) identity is
//        byte-equal (status, value, kver);
//      - conservation: the bank total after the run equals
//        accounts * initial balance.
#pragma once

#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/service/service_msg.h"
#include "src/tcp/topology.h"
#include "src/util/rng.h"

namespace svcbench {

using optrec::ProcessId;
using optrec::service::Op;
using optrec::service::Request;
using optrec::service::Response;
using optrec::service::Status;

enum class Workload { kKvSaturate, kBankOpen, kBankCrash };

inline const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kKvSaturate: return "kv-saturate";
    case Workload::kBankOpen: return "bank-open";
    case Workload::kBankCrash: return "bank-crash";
  }
  return "?";
}

/// Throws std::invalid_argument on an unknown name.
inline Workload parse_workload(const std::string& name) {
  for (Workload w : {Workload::kKvSaturate, Workload::kBankOpen,
                     Workload::kBankCrash}) {
    if (name == workload_name(w)) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

inline bool is_bank(Workload w) { return w != Workload::kKvSaturate; }

/// kv-saturate's key space, four times its client count.
constexpr std::uint64_t kKvKeys = 1024;

/// Where keys live: which process owns each account, and which processes
/// share a node (a credit between them stays off the TCP data plane).
struct Placement {
  std::size_t n = 0;
  std::vector<std::uint32_t> node_of_pid;
  std::vector<std::vector<std::uint64_t>> accounts_of_pid;

  static Placement make(const optrec::TcpTopology& topo,
                        std::uint64_t accounts) {
    Placement p;
    p.n = topo.n;
    p.accounts_of_pid.resize(topo.n);
    for (ProcessId pid = 0; pid < topo.n; ++pid) {
      p.node_of_pid.push_back(topo.node_of(pid));
    }
    for (std::uint64_t a = 0; a < accounts; ++a) {
      p.accounts_of_pid[optrec::service::key_owner(a, topo.n)].push_back(a);
    }
    for (const auto& owned : p.accounts_of_pid) {
      if (owned.empty()) {
        throw std::invalid_argument("placement: a process owns no account");
      }
    }
    return p;
  }
};

/// One seeded request stream. Requests come back without an identity; the
/// generator stamps (client_id, seq) when it binds one to a logical client.
class RequestStream {
 public:
  RequestStream(Workload workload, std::uint64_t seed, std::uint64_t stream,
                const Placement& placement)
      : workload_(workload),
        placement_(&placement),
        rng_(seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
             0x94d049bb133111ebull) {}

  Request next() {
    Request req;
    if (!is_bank(workload_)) {
      // put:get 50:50 over the key space.
      req.op = rng_.chance(0.5) ? Op::kPut : Op::kGet;
      req.key = rng_.uniform(kKvKeys);
      if (req.op == Op::kPut) req.value = 1 + rng_.uniform(1'000'000);
      return req;
    }
    // transfer:balance 80:20. Every transfer credits an account another
    // process owns: half of them a process on the same node, half one on
    // another node (over TCP).
    const std::size_t n = placement_->n;
    const ProcessId src = static_cast<ProcessId>(rng_.uniform(n));
    req.key = pick_account(src);
    if (rng_.uniform(100) >= 80) {
      req.op = Op::kBalance;
      return req;
    }
    req.op = Op::kTransfer;
    req.value = 1 + rng_.uniform(8);
    std::vector<ProcessId> same, remote;
    for (ProcessId q = 0; q < n; ++q) {
      if (q == src) continue;
      (placement_->node_of_pid[q] == placement_->node_of_pid[src] ? same
                                                                  : remote)
          .push_back(q);
    }
    const bool cross = same.empty() || (!remote.empty() && rng_.chance(0.5));
    const std::vector<ProcessId>& pool = cross ? remote : same;
    req.to_account = pick_account(pool[rng_.uniform(pool.size())]);
    return req;
  }

  /// Open-loop inter-arrival gap, microseconds (Poisson arrivals).
  double next_gap_us(double rate_per_s) {
    return rng_.exponential(1e6 / rate_per_s);
  }

 private:
  std::uint64_t pick_account(ProcessId pid) {
    const auto& owned = placement_->accounts_of_pid[pid];
    return owned[rng_.uniform(owned.size())];
  }

  Workload workload_;
  const Placement* placement_;
  optrec::Rng rng_;
};

class Checker {
 public:
  /// Highest kver a committed reply has shown for `key`; the generator
  /// records it when a request is first sent.
  std::uint64_t kver_floor(std::uint64_t key) const {
    const auto it = kver_seen_.find(key);
    return it == kver_seen_.end() ? 0 : it->second;
  }

  /// The first reply for `req`'s identity, sent when the key's floor was
  /// `floor`: monotonic reads, write coherence, and the fingerprint later
  /// duplicates must match.
  void on_reply(const Request& req, const Response& resp,
                std::uint64_t floor) {
    replies_.emplace(Key{req.client_id, req.seq}, fingerprint(resp));
    if ((req.op != Op::kPut && req.op != Op::kGet) ||
        resp.status != Status::kOk) {
      return;
    }
    const bool regress =
        req.op == Op::kPut ? resp.kver <= floor : resp.kver < floor;
    if (regress) {
      std::ostringstream os;
      os << "monotonic reads: key " << req.key << " had committed kver "
         << floor << " before client " << req.client_id << " sent "
         << optrec::service::op_name(req.op) << ", reply carries kver "
         << resp.kver;
      violate(os.str());
    }
    std::uint64_t& seen = kver_seen_[req.key];
    if (resp.kver > seen) seen = resp.kver;
    const auto [it, fresh] = kv_.emplace(Key{req.key, resp.kver}, resp.value);
    if (!fresh && it->second != resp.value) {
      std::ostringstream os;
      os << "write coherence: key " << req.key << " kver " << resp.kver
         << " carried " << it->second << " and " << resp.value;
      violate(os.str());
    }
  }

  /// A further reply for an identity already answered (a retry's copy).
  void on_duplicate(const Response& resp) {
    const auto it = replies_.find(Key{resp.client_id, resp.seq});
    if (it == replies_.end()) return;  // reply to a retry still in flight
    if (it->second != fingerprint(resp)) {
      std::ostringstream os;
      os << "exactly-once: client " << resp.client_id << " seq " << resp.seq
         << " got a second reply with different content (" << resp.describe()
         << ")";
      violate(os.str());
    }
  }

  /// Pre-size for about `replies` replies.
  void reserve(std::size_t replies) {
    replies_.reserve(replies);
    kv_.reserve(replies / 2);
  }

  void check_conservation(std::uint64_t observed, std::uint64_t expected) {
    if (observed == expected) return;
    std::ostringstream os;
    os << "conservation: bank total " << observed << " != expected "
       << expected;
    violate(os.str());
  }

  void violate(std::string what) {
    ++violation_count_;
    if (violations_.size() < 32) violations_.push_back(std::move(what));
  }

  bool ok() const { return violation_count_ == 0; }
  std::uint64_t violation_count() const { return violation_count_; }
  const std::vector<std::string>& violations() const { return violations_; }

  /// Heap bytes the checker's tables hold, estimated from their sizes.
  std::size_t footprint_bytes() const {
    return table_bytes(replies_) + table_bytes(kver_seen_) + table_bytes(kv_);
  }

 private:
  /// The bucket array plus one node per entry. A node holds the next
  /// pointer, the entry and its cached hash; malloc adds an 8-byte header
  /// and rounds the chunk up to 16 bytes.
  template <typename Map>
  static std::size_t table_bytes(const Map& m) {
    const std::size_t node = sizeof(void*) +
                             sizeof(typename Map::value_type) +
                             sizeof(std::size_t);
    return m.bucket_count() * sizeof(void*) +
           m.size() * ((node + 8 + 15) / 16 * 16);
  }

  struct Fingerprint {
    Status status = Status::kOk;
    std::uint64_t value = 0;
    std::uint64_t kver = 0;
    bool operator!=(const Fingerprint& o) const {
      return status != o.status || value != o.value || kver != o.kver;
    }
  };
  struct PairHash {
    std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& p)
        const {
      return std::hash<std::uint64_t>()(p.first * 0x9e3779b97f4a7c15ull ^
                                        p.second);
    }
  };
  using Key = std::pair<std::uint64_t, std::uint64_t>;

  static Fingerprint fingerprint(const Response& r) {
    return Fingerprint{r.status, r.value, r.kver};
  }

  std::unordered_map<Key, Fingerprint, PairHash> replies_;  // (client, seq)
  std::unordered_map<std::uint64_t, std::uint64_t> kver_seen_;  // key -> kver
  std::unordered_map<Key, std::uint64_t, PairHash> kv_;  // (key, kver) -> value
  std::vector<std::string> violations_;
  std::uint64_t violation_count_ = 0;
};

}  // namespace svcbench
