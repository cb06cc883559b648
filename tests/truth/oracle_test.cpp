#include <gtest/gtest.h>

#include "src/truth/causality_oracle.h"
#include "src/truth/recovery_line_oracle.h"

namespace optrec {
namespace {

TEST(CausalityOracleTest, HappensBeforeAlongProcessOrder) {
  CausalityOracle o;
  const StateId a = o.initial_state(0);
  const StateId sender = o.initial_state(1);
  const StateId b = o.delivery_state(0, a, sender);
  const StateId c = o.delivery_state(0, b, sender);
  EXPECT_TRUE(o.happens_before(a, b));
  EXPECT_TRUE(o.happens_before(a, c));
  EXPECT_FALSE(o.happens_before(c, a));
  EXPECT_FALSE(o.happens_before(a, a));
}

TEST(CausalityOracleTest, HappensBeforeThroughMessages) {
  CausalityOracle o;
  const StateId p0 = o.initial_state(0);
  const StateId p1 = o.initial_state(1);
  const StateId p2 = o.initial_state(2);
  const StateId r1 = o.delivery_state(1, p1, p0);   // P0 -> P1
  const StateId r2 = o.delivery_state(2, p2, r1);   // P1 -> P2
  EXPECT_TRUE(o.happens_before(p0, r2));
  EXPECT_FALSE(o.happens_before(r2, p0));
  EXPECT_FALSE(o.happens_before(p1, p0));
}

TEST(CausalityOracleTest, OrphanIsForwardClosureOfLost) {
  CausalityOracle o;
  const StateId p0 = o.initial_state(0);
  const StateId p1 = o.initial_state(1);
  const StateId lost = o.delivery_state(0, p0, p1);
  const StateId dependent = o.delivery_state(1, p1, lost);
  const StateId transitive = o.delivery_state(1, dependent, dependent);
  const StateId unrelated = o.initial_state(2);

  o.mark_lost({lost});
  EXPECT_TRUE(o.is_lost(lost));
  EXPECT_FALSE(o.is_orphan(lost)) << "lost states are lost, not orphan";
  EXPECT_TRUE(o.is_orphan(dependent));
  EXPECT_TRUE(o.is_orphan(transitive));
  EXPECT_FALSE(o.is_orphan(p0));
  EXPECT_FALSE(o.is_orphan(unrelated));
  EXPECT_TRUE(o.is_useful(p0));
  EXPECT_FALSE(o.is_useful(dependent));
}

TEST(CausalityOracleTest, OrphanCacheInvalidatedByNewLoss) {
  CausalityOracle o;
  const StateId p0 = o.initial_state(0);
  const StateId p1 = o.initial_state(1);
  const StateId s = o.delivery_state(1, p1, p0);
  EXPECT_FALSE(o.is_orphan(s));
  o.mark_lost({p0});
  EXPECT_TRUE(o.is_orphan(s));
}

TEST(CausalityOracleTest, MessageObsoleteness) {
  CausalityOracle o;
  const StateId p0 = o.initial_state(0);
  const StateId p1 = o.initial_state(1);
  const StateId lost = o.delivery_state(0, p0, p1);
  o.record_send(1, p0);
  o.record_send(2, lost);
  o.mark_lost({lost});
  EXPECT_FALSE(o.is_message_obsolete(1));
  EXPECT_TRUE(o.is_message_obsolete(2));
  EXPECT_THROW(o.is_message_obsolete(99), std::invalid_argument);
}

TEST(CausalityOracleTest, ConsistencyCheckFlagsOrphanFrontier) {
  CausalityOracle o;
  const StateId p0 = o.initial_state(0);
  const StateId p1 = o.initial_state(1);
  const StateId lost = o.delivery_state(0, p0, p1);
  const StateId orphan = o.delivery_state(1, p1, lost);
  o.mark_lost({lost});
  o.set_frontier(0, p0);
  o.set_frontier(1, orphan);
  const auto violations = o.check_consistency();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("orphan"), std::string::npos);

  // Rolling the orphan back (frontier moves to a useful state) clears it.
  o.set_frontier(1, p1);
  EXPECT_TRUE(o.check_consistency().empty());
}

TEST(CausalityOracleTest, ConsistencyCheckFlagsOutputsOfUndoneStates) {
  CausalityOracle o;
  const StateId p0 = o.initial_state(0);
  const StateId p1 = o.initial_state(1);
  const StateId p2 = o.initial_state(2);
  const StateId lost = o.delivery_state(0, p0, p1);
  const StateId orphan = o.delivery_state(1, p1, lost);
  const StateId useful = o.delivery_state(2, p2, p0);
  const StateId undone = o.delivery_state(2, useful, p1);
  o.mark_lost({lost});
  o.mark_rolled_back({undone});
  o.set_frontier(0, p0);
  o.set_frontier(1, p1);
  o.set_frontier(2, p2);
  o.record_output_commit(useful);
  EXPECT_TRUE(o.check_consistency().empty())
      << "an output of a surviving state is fine";

  for (const StateId s : {lost, orphan, undone}) {
    o.record_output_commit(s);
  }
  const auto violations = o.check_consistency();
  ASSERT_EQ(violations.size(), 3u);
  EXPECT_NE(violations[0].find("is lost"), std::string::npos);
  EXPECT_NE(violations[1].find("is an orphan"), std::string::npos);
  EXPECT_NE(violations[2].find("is rolled back"), std::string::npos);
}

TEST(CausalityOracleTest, RecoveryStateDependsOnlyOnRestored) {
  CausalityOracle o;
  const StateId p0 = o.initial_state(0);
  const StateId p1 = o.initial_state(1);
  const StateId lost = o.delivery_state(0, p0, p1);
  o.mark_lost({lost});
  const StateId recovery = o.recovery_state(0, p0);
  EXPECT_TRUE(o.happens_before(p0, recovery));
  EXPECT_FALSE(o.is_orphan(recovery));
  EXPECT_EQ(o.frontier(0), recovery);
}

TEST(CausalityOracleTest, IndexOfTracksPerProcessOrder) {
  CausalityOracle o;
  const StateId a = o.initial_state(0);
  const StateId x = o.initial_state(1);
  const StateId b = o.delivery_state(0, a, x);
  EXPECT_EQ(o.index_of(a), 0u);
  EXPECT_EQ(o.index_of(b), 1u);
  EXPECT_EQ(o.index_of(x), 0u);
  EXPECT_EQ(o.states_of(0).size(), 2u);
}

// --- Recovery line oracle (Johnson-Zwaenepoel fixpoint) -----------------

TEST(RecoveryLineTest, NoFailureKeepsEverything) {
  CausalityOracle o;
  const StateId p0 = o.initial_state(0);
  const StateId p1 = o.initial_state(1);
  o.delivery_state(1, p1, p0);
  const auto line = RecoveryLineOracle::max_recoverable(
      o, RecoveryLineOracle::caps_from_lost(o));
  EXPECT_EQ(line.surviving_prefix, (std::vector<std::size_t>{1, 2}));
}

TEST(RecoveryLineTest, DependentStatesFallWithTheLost) {
  CausalityOracle o;
  const StateId p0 = o.initial_state(0);
  const StateId p1 = o.initial_state(1);
  const StateId lost = o.delivery_state(0, p0, p1);   // P0 state 1
  const StateId dep = o.delivery_state(1, p1, lost);  // P1 state 1
  o.delivery_state(1, dep, dep);                      // P1 state 2
  o.mark_lost({lost});
  const auto line = RecoveryLineOracle::max_recoverable(
      o, RecoveryLineOracle::caps_from_lost(o));
  // P0 keeps only its initial state; P1's dependent suffix falls too.
  EXPECT_EQ(line.surviving_prefix, (std::vector<std::size_t>{1, 1}));
}

TEST(RecoveryLineTest, CascadingDependencyFixpoint) {
  CausalityOracle o;
  const StateId a0 = o.initial_state(0);
  const StateId b0 = o.initial_state(1);
  const StateId c0 = o.initial_state(2);
  const StateId a1 = o.delivery_state(0, a0, b0);
  const StateId b1 = o.delivery_state(1, b0, a1);  // depends on a1
  const StateId c1 = o.delivery_state(2, c0, b1);  // depends on b1
  (void)c1;
  o.mark_lost({a1});
  const auto line = RecoveryLineOracle::max_recoverable(
      o, RecoveryLineOracle::caps_from_lost(o));
  // a1 lost -> b1 falls -> c1 falls: two hops of the fixpoint.
  EXPECT_EQ(line.surviving_prefix, (std::vector<std::size_t>{1, 1, 1}));
}

TEST(RecoveryLineTest, IndependentProcessesUnaffected) {
  CausalityOracle o;
  const StateId a0 = o.initial_state(0);
  const StateId b0 = o.initial_state(1);
  const StateId c0 = o.initial_state(2);
  const StateId a1 = o.delivery_state(0, a0, b0);
  o.delivery_state(2, c0, b0);  // P2 depends only on P1's initial state
  o.mark_lost({a1});
  const auto line = RecoveryLineOracle::max_recoverable(
      o, RecoveryLineOracle::caps_from_lost(o));
  EXPECT_EQ(line.surviving_prefix, (std::vector<std::size_t>{1, 1, 2}));
}

TEST(RecoveryLineTest, MatchesOrphanOracleOnSnapshot) {
  // The two oracles are independent computations of the same thing; on a
  // pre-recovery snapshot they must agree.
  CausalityOracle o;
  std::vector<StateId> frontier;
  for (ProcessId pid = 0; pid < 3; ++pid) {
    frontier.push_back(o.initial_state(pid));
  }
  // Build a little web.
  frontier[1] = o.delivery_state(1, frontier[1], frontier[0]);
  frontier[2] = o.delivery_state(2, frontier[2], frontier[1]);
  frontier[0] = o.delivery_state(0, frontier[0], frontier[2]);
  frontier[1] = o.delivery_state(1, frontier[1], frontier[0]);
  o.mark_lost({frontier[0]});  // P0's last state is lost

  const auto line = RecoveryLineOracle::max_recoverable(
      o, RecoveryLineOracle::caps_from_lost(o));
  for (ProcessId pid = 0; pid < 3; ++pid) {
    const auto& states = o.states_of(pid);
    for (std::size_t k = 0; k < states.size(); ++k) {
      const bool in_line = k < line.surviving_prefix[pid];
      EXPECT_EQ(in_line, o.is_useful(states[k]))
          << "P" << pid << " state " << k;
    }
  }
}

}  // namespace
}  // namespace optrec
