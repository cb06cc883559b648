// Ground-truth checks shared by the real-time fleet tests.
#pragma once

#include <gtest/gtest.h>

#include "src/truth/causality_oracle.h"

namespace optrec {

/// No message may end up delivered in two surviving states: every fate's
/// receiver states must contain at most one that was neither rolled back
/// nor wiped by a crash.
inline void expect_no_double_delivery(const CausalityOracle& oracle) {
  for (const auto& [msg, fate] : oracle.messages()) {
    int surviving = 0;
    for (StateId s : fate.receiver_states) {
      if (!oracle.was_rolled_back(s) && !oracle.is_lost(s)) ++surviving;
    }
    EXPECT_LE(surviving, 1) << "message " << msg << " survives in "
                            << surviving << " receiver states";
  }
}

}  // namespace optrec
