#include "src/core/retransmitter.h"

#include <gtest/gtest.h>

namespace optrec {
namespace {

Message make_msg(ProcessId dst, std::uint64_t seq, Ftvc clock) {
  Message m;
  m.src = 0;
  m.dst = dst;
  m.src_version = 0;
  m.send_seq = seq;
  m.clock = std::move(clock);
  m.payload = {1};
  return m;
}

struct RetransmitterTest : ::testing::Test {
  RetransmitterTest() : history(0, 3) {}
  Retransmitter rex;
  History history;
};

TEST_F(RetransmitterTest, CollectsConcurrentSendsToFailedProcess) {
  Ftvc sender(0, 3);
  const Ftvc at_send = sender;
  sender.tick_send();
  rex.record(make_msg(1, 0, at_send));
  rex.record(make_msg(2, 1, sender));  // different destination

  const auto out = rex.collect_for(1, history);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, 1u);
  EXPECT_EQ(out[0].send_seq, 0u);
}

TEST_F(RetransmitterTest, ResendsEvenWhenRestoredClockDominates) {
  // Clock dominance does NOT imply the message was received (it can arise
  // transitively), so collect_for takes no restored clock: a send the
  // restored state depends on is still retransmitted, and the receiver
  // deduplicates recovered receipts instead (see collect_for's note).
  Ftvc sender(0, 3);
  const Ftvc at_send = sender;
  sender.tick_send();
  rex.record(make_msg(1, 0, at_send));
  EXPECT_EQ(rex.collect_for(1, history).size(), 1u);
}

TEST_F(RetransmitterTest, SkipsObsoleteSends) {
  // A send that itself depends on lost states of P2 must not be resent.
  Ftvc p2(2, 3);
  p2.tick_send();
  p2.tick_send();  // ts 3
  Ftvc sender(0, 3);
  sender.merge_deliver(p2);  // depends on P2 ts 3
  rex.record(make_msg(1, 0, sender));
  history.observe_token(2, {0, 1});  // P2's states beyond ts 1 are lost

  EXPECT_TRUE(rex.collect_for(1, history).empty());
}

TEST_F(RetransmitterTest, ReplayedSendOverwritesIdentically) {
  const Ftvc clock(0, 3);
  rex.record(make_msg(1, 0, clock));
  rex.record(make_msg(1, 0, clock));  // replayed stamp of the same send
  EXPECT_EQ(rex.size(), 1u);
}

TEST_F(RetransmitterTest, ClearEmpties) {
  rex.record(make_msg(1, 0, Ftvc(0, 3)));
  rex.clear();
  EXPECT_EQ(rex.size(), 0u);
}

}  // namespace
}  // namespace optrec
