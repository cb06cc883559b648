// Hierarchical failure-token dissemination overlay: routing math for the
// k-ary relay tree the TCP transport sends every failure token down, plus a
// deterministic simulator the fleet bench and tests use to characterize
// message count / depth / fallback behavior at sizes no CI box can run
// live.
//
// Model: a failure token originates at one NODE. The origin covers its own
// local pids directly, orders the remaining nodes in ring order from itself
// (so every origin induces the same balanced tree shape), splits them into
// at most k contiguous chunks, and sends each chunk head a RELAY carrying
// the token plus the chunk (its subtree responsibility). A head delivers
// locally, splits its chunk's tail k ways, relays on, and acks its
// requester only once its whole subtree has acked — ack aggregation, so the
// origin holds exactly its top-level relays, not n-1 per-destination acks.
//
// Fallback rule (interior node down or partitioned): a requester that has
// retried a child `fallback_retries` times without an ack SPLITS that
// child's subtree — the child keeps a singleton relay (retried forever,
// preserving retry-until-acked per node) and the rest of its chunk is
// re-split and relayed directly, so a dead interior node can delay but
// never block its descendants. Totals stay O(n) messages with O(log_k n)
// depth; every node unreachable at send time keeps a pending singleton
// retry until it comes back.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

namespace optrec::scale {

/// One relay: `head` (== subtree.front()) receives the token and becomes
/// responsible for every node in `subtree`.
struct RelayAssignment {
  std::uint32_t head = 0;
  std::vector<std::uint32_t> subtree;
};

/// Split `nodes` into at most `fanout` near-equal contiguous chunks, each a
/// relay assignment headed by its first element. Empty input -> empty plan.
std::vector<RelayAssignment> split_subtree(
    const std::vector<std::uint32_t>& nodes, std::uint32_t fanout);

/// The origin's top-level plan for a cluster of `n_nodes`: remote nodes in
/// ring order from origin+1, split `fanout` ways. fanout < 2 or a 1-node
/// cluster yields singleton assignments for every remote node.
std::vector<RelayAssignment> plan_broadcast(std::uint32_t origin,
                                            std::uint32_t n_nodes,
                                            std::uint32_t fanout);

/// Relay hops from a subtree head to its deepest descendant, for a subtree
/// of `m` nodes (head included) split `fanout` ways at every level. The
/// origin's dissemination depth over n nodes is tree_depth(n-1, k) + 1.
std::uint32_t tree_depth(std::uint64_t m, std::uint32_t fanout);

/// What one simulated dissemination did.
struct DisseminationReport {
  std::uint64_t relays = 0;    // first-attempt relay envelopes
  std::uint64_t retries = 0;   // re-sends to silent children before fallback
  std::uint64_t acks = 0;      // subtree acks from alive heads
  std::uint64_t splits = 0;    // fallback subtree splits
  std::uint32_t depth = 0;     // max relay hops origin -> alive node
  /// Max arrival time in abstract units: one unit per relay hop plus
  /// `fallback_retries` units each time a dead head had to time out first.
  std::uint32_t latency_units = 0;
  std::uint64_t reached = 0;       // alive nodes that received the token
  std::uint64_t unreachable = 0;   // down nodes left with pending singletons
  std::uint64_t total_messages() const { return relays + retries + acks; }
};

/// Deterministically simulate one token dissemination from `origin` over
/// `n_nodes` with the nodes in `down` unresponsive, applying the fallback
/// rule above. The origin itself must be alive.
DisseminationReport simulate_dissemination(
    std::uint32_t origin, std::uint32_t n_nodes, std::uint32_t fanout,
    const std::unordered_set<std::uint32_t>& down,
    std::uint32_t fallback_retries);

}  // namespace optrec::scale
