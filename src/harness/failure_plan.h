// Failure injection plans: which processes crash when, and when the network
// partitions/heals. Plans are data, so benches can sweep them and tests can
// pin exact scenarios (e.g. the paper's Figure 5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"
#include "src/util/ids.h"
#include "src/util/rng.h"

namespace optrec {

struct CrashEvent {
  SimTime at = 0;
  ProcessId pid = 0;
};

struct PartitionEvent {
  SimTime at = 0;
  SimTime heal_at = 0;
  std::vector<std::vector<ProcessId>> groups;
};

struct FailurePlan {
  std::vector<CrashEvent> crashes;
  std::vector<PartitionEvent> partitions;

  static FailurePlan none() { return {}; }

  /// One crash of `pid` at `at`.
  static FailurePlan single(ProcessId pid, SimTime at);

  /// `count` crashes of distinct random processes at random times within
  /// [window_start, window_end]; simultaneous (same-instant) crashes allowed
  /// when `concurrent` is set.
  static FailurePlan random(Rng& rng, std::size_t n, std::size_t count,
                            SimTime window_start, SimTime window_end,
                            bool concurrent = false);
};

/// Parse the CLI partition syntax shared by both runners (optrec_sim's
/// scenarios, optrec_node): "AT_MS:HEAL_MS:G0/G1[/G2...]", each group a
/// comma-separated id list — e.g. "100:400:0,1/2,3" splits {0,1} from
/// {2,3} between t=100ms and t=400ms. Ids are process ids on the simulator
/// and node ids on the TCP backend. Throws std::invalid_argument on
/// malformed specs.
PartitionEvent parse_partition_spec(const std::string& spec);

}  // namespace optrec
