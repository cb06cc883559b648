// Workload selection for the experiment harness: a small spec object that
// benches and tests can sweep over, mapped to the concrete app factories.
#pragma once

#include <cstdint>
#include <string>

#include "src/app/app.h"

namespace optrec {

enum class WorkloadKind : std::uint8_t {
  kCounter,   // dense random causal web (default)
  kPingPong,  // independent pairwise chains
  kBank,      // value-conserving transfers
  kGossip,    // monotone rumor spreading
  kService,   // client-driven replicated KV/bank (src/service/)
};

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kCounter;
  /// Jobs/transfers/rumors seeded per seeding process.
  std::uint32_t intensity = 4;
  /// Hop/round budget bounding total handler executions (finite workloads
  /// quiesce, which the harness and property tests rely on).
  std::uint32_t depth = 32;
  /// Extra payload bytes per message (bench knob for piggyback ratios).
  std::uint32_t payload_pad = 0;
  /// CounterApp: every process seeds jobs, not just P0.
  bool all_seed = false;

  AppFactory make_factory() const;
  std::string name() const;
};

/// Inverse of WorkloadSpec::name(); throws std::invalid_argument.
WorkloadKind workload_from_name(const std::string& name);

}  // namespace optrec
