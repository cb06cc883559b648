// Protocol registry: the one place that knows every recovery protocol.
//
// Both backends — the deterministic simulator harness (Scenario) and the
// real-time worker threads (src/live/worker_host.h, under every TcpNode) —
// construct processes through make_protocol_process, so a protocol added
// here is immediately available on either backend and in every CLI.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/app/app.h"
#include "src/runtime/env.h"
#include "src/runtime/process_base.h"
#include "src/truth/causality_oracle.h"

namespace optrec {

enum class ProtocolKind : std::uint8_t {
  kDamaniGarg,
  kPessimistic,
  kCoordinated,
  kSenderBased,
  kCascading,
  kPetersonKearns,
  kPlain,  // no recovery; failure-free reference only
};

const char* protocol_name(ProtocolKind kind);

/// Inverse of protocol_name (accepts the short aliases "dg" and "pk" too);
/// throws std::invalid_argument on unknown names.
ProtocolKind protocol_from_name(const std::string& name);

/// Construct one process of `kind` wired to the given runtime backend.
std::unique_ptr<ProcessBase> make_protocol_process(
    ProtocolKind kind, RuntimeEnv env, ProcessId pid, std::size_t n,
    std::unique_ptr<App> app, const ProcessConfig& config, Metrics& metrics,
    CausalityOracle* oracle);

}  // namespace optrec
