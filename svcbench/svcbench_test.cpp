// Tests of the benchmark's own code: the seeded request stream and the
// client-side checker, including a negative control for each check.
#include <gtest/gtest.h>

#include "svcbench_core.h"

namespace svcbench {
namespace {

const Placement& placement() {
  static const Placement p =
      Placement::make(optrec::TcpTopology::loopback(4, 2), 64);
  return p;
}

std::vector<Request> draw(Workload w, std::uint64_t seed, std::uint64_t stream,
                          std::vector<double>* gaps = nullptr) {
  RequestStream s(w, seed, stream, placement());
  std::vector<Request> out;
  for (int i = 0; i < 500; ++i) {
    out.push_back(s.next());
    if (gaps != nullptr) gaps->push_back(s.next_gap_us(1000.0));
  }
  return out;
}

bool same(const std::vector<Request>& a, const std::vector<Request>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].encode() != b[i].encode()) return false;
  }
  return true;
}

TEST(RequestStream, SameSeedGivesSameSchedule) {
  for (Workload w : {Workload::kKvSaturate, Workload::kBankOpen,
                     Workload::kBankCrash}) {
    std::vector<double> gaps_a, gaps_b;
    const auto a = draw(w, 7, 0, &gaps_a);
    const auto b = draw(w, 7, 0, &gaps_b);
    EXPECT_TRUE(same(a, b)) << workload_name(w);
    EXPECT_EQ(gaps_a, gaps_b) << workload_name(w);
    EXPECT_FALSE(same(a, draw(w, 8, 0))) << workload_name(w);
    EXPECT_FALSE(same(a, draw(w, 7, 1))) << workload_name(w);
  }
}

TEST(RequestStream, KvMixStaysInKeySpace) {
  int puts = 0;
  for (const Request& r : draw(Workload::kKvSaturate, 3, 0)) {
    ASSERT_TRUE(r.op == Op::kPut || r.op == Op::kGet);
    ASSERT_LT(r.key, kKvKeys);
    puts += r.op == Op::kPut;
  }
  EXPECT_GT(puts, 200);
  EXPECT_LT(puts, 300);
}

TEST(RequestStream, EveryTransferCrossesProcessesHalfCrossNodes) {
  const Placement& p = placement();
  int transfers = 0, cross_node = 0;
  for (const Request& r : draw(Workload::kBankOpen, 5, 0)) {
    ASSERT_LT(r.key, 64u);
    if (r.op != Op::kTransfer) {
      ASSERT_EQ(r.op, Op::kBalance);
      continue;
    }
    ++transfers;
    const ProcessId src = optrec::service::key_owner(r.key, p.n);
    const ProcessId dst = optrec::service::key_owner(r.to_account, p.n);
    ASSERT_NE(src, dst);
    cross_node += p.node_of_pid[src] != p.node_of_pid[dst];
  }
  EXPECT_GT(transfers, 350);  // 80% of 500
  EXPECT_LT(transfers, 450);
  EXPECT_GT(cross_node, transfers * 4 / 10);
  EXPECT_LT(cross_node, transfers * 6 / 10);
}

Request kv(Op op, std::uint64_t client, std::uint64_t seq, std::uint64_t key) {
  Request r;
  r.op = op;
  r.client_id = client;
  r.seq = seq;
  r.key = key;
  return r;
}

Response reply(const Request& req, std::uint64_t value, std::uint64_t kver) {
  Response r;
  r.op = req.op;
  r.client_id = req.client_id;
  r.seq = req.seq;
  r.key = req.key;
  r.value = value;
  r.kver = kver;
  return r;
}

TEST(Checker, AcceptsAConsistentHistory) {
  Checker c;
  const Request put = kv(Op::kPut, 1, 1, 9);
  c.on_reply(put, reply(put, 40, 1), c.kver_floor(9));
  const Request get = kv(Op::kGet, 2, 1, 9);
  c.on_reply(get, reply(get, 40, 1), c.kver_floor(9));
  c.on_duplicate(reply(put, 40, 1));
  c.check_conservation(64000, 64000);
  EXPECT_TRUE(c.ok());
}

TEST(Checker, FlagsARegressedKver) {
  Checker c;
  const Request put = kv(Op::kPut, 1, 1, 9);
  c.on_reply(put, reply(put, 40, 2), c.kver_floor(9));
  const Request get = kv(Op::kGet, 2, 1, 9);
  c.on_reply(get, reply(get, 17, 1), c.kver_floor(9));  // rolled-back state
  EXPECT_FALSE(c.ok());
}

TEST(Checker, FlagsAPutThatDoesNotAdvance) {
  Checker c;
  const Request a = kv(Op::kPut, 1, 1, 9);
  c.on_reply(a, reply(a, 40, 3), c.kver_floor(9));
  const Request b = kv(Op::kPut, 2, 1, 9);
  c.on_reply(b, reply(b, 41, 3), c.kver_floor(9));
  EXPECT_FALSE(c.ok());
}

TEST(Checker, FlagsIncoherentValuesForOneVersion) {
  Checker c;
  // Both sent before either reply arrived, so the floor does not order them.
  const Request a = kv(Op::kGet, 1, 1, 9);
  const Request b = kv(Op::kGet, 2, 1, 9);
  c.on_reply(a, reply(a, 40, 3), 0);
  c.on_reply(b, reply(b, 41, 3), 0);
  EXPECT_FALSE(c.ok());
}

TEST(Checker, FlagsARetryWhoseReplyDiffers) {
  Checker c;
  Request xfer;
  xfer.op = Op::kTransfer;
  xfer.client_id = 5;
  xfer.seq = 2;
  xfer.key = 1;
  xfer.to_account = 2;
  xfer.value = 3;
  Response first = reply(xfer, 3, 0);
  c.on_reply(xfer, first, 0);
  c.on_duplicate(first);
  EXPECT_TRUE(c.ok());
  Response second = first;
  second.status = Status::kInsufficient;  // the retry re-executed
  c.on_duplicate(second);
  EXPECT_FALSE(c.ok());
}

TEST(Checker, FlagsAnUnbalancedBankTotal) {
  Checker c;
  c.check_conservation(63992, 64000);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.violation_count(), 1u);
}

}  // namespace
}  // namespace svcbench
