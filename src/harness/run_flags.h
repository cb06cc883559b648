// Command-line plumbing shared by the tools in src/tools/.
//
// Flag spelling, value parsers and the usage-error exit serve all five
// tools. RunFlags is the flag surface the two runners (optrec_sim,
// optrec_node) share: a runner fills in its defaults,
// parse_run_flags() applies argv on top, validates it, and hands every
// argument it does not own to the runner's backend-only handler. Usage
// errors come back as values; the runner exits 2. After the run,
// finish_run() is the one output path: it writes the --trace file, runs
// the --audit, and prints the summary or emits the --metrics-json object.
// README.md ("Run flags") documents every flag, its default per runner,
// and its validation.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/app/workload.h"
#include "src/harness/failure_plan.h"
#include "src/harness/metrics.h"
#include "src/harness/protocol_factory.h"
#include "src/net/network.h"
#include "src/runtime/process_base.h"
#include "src/telemetry/histogram.h"
#include "src/trace/trace_event.h"
#include "src/util/json.h"

namespace optrec {

/// A malformed, misplaced or unknown flag; the tool exits 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// True when `arg` spells flag `name` as `name` or `name=VALUE`; *value
/// receives VALUE ("" when absent).
bool parse_flag(const char* arg, const char* name, std::string* value);
/// True when `arg` is the value-less switch `name`. `name=VALUE` throws
/// UsageError, so `--oracle=false` cannot turn the oracle on.
bool parse_switch(const char* arg, const char* name);
/// Parsers for flag values; each throws UsageError naming `flag`.
std::uint64_t parse_u64(const std::string& value, const char* flag);
double parse_probability(const std::string& value, const char* flag);
std::uint16_t parse_port(const std::string& value, const char* flag);

/// Print "<program>: <message>" to stderr and exit 2.
[[noreturn]] void die(const std::string& message);

/// The flags every runner shares, holding the runner's defaults until
/// parse_run_flags() applies argv.
struct RunFlags {
  ProtocolKind protocol = ProtocolKind::kDamaniGarg;
  WorkloadSpec workload;
  std::size_t n = 4;
  std::uint64_t seed = 1;
  /// Random crashes injected in the first 200 ms (crash_plan()).
  std::size_t crashes = 0;
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  std::vector<PartitionEvent> partitions;
  SimTime min_delay = 0;
  SimTime max_delay = 0;
  ProcessConfig process;  // --flush-ms --ckpt-ms --retransmit --stability --gc
  SimTime time_cap = 0;
  bool verbose = false;
  bool oracle = false;
  std::string trace_file;  // "-" = stdout
  std::string trace_format = "jsonl";
  bool audit = false;
  bool metrics_json = false;
  std::string metrics_json_file;  // empty = stdout

  /// --trace or --audit asked for an event trace.
  bool tracing() const { return !trace_file.empty() || audit; }
  /// The crash schedule every runner injects for --crashes.
  std::vector<CrashEvent> crash_plan(bool concurrent = false) const;
};

/// Backend-only flags: return true when `arg` was consumed; throw
/// UsageError on a bad value.
using BackendFlagHandler = std::function<bool(const char* arg)>;

/// Apply argv[1..] on top of `flags` and validate the result. Arguments
/// that are not shared run flags go to `backend`. Returns the usage error,
/// if any.
std::optional<std::string> parse_run_flags(int argc, char** argv,
                                           RunFlags& flags,
                                           const BackendFlagHandler& backend);

/// The "<backend>: protocol=... crashes=..." line a runner prints before a
/// human-readable run.
void announce_run(const char* backend, const RunFlags& flags);

/// What a finished run hands to finish_run().
struct RunReport {
  std::string backend;  // "sim" | "tcp"
  ProtocolKind protocol = ProtocolKind::kDamaniGarg;
  WorkloadSpec workload;
  std::size_t n = 0;
  std::uint64_t seed = 0;
  std::size_t crashes_planned = 0;
  /// The backend's verdict: 0 (quiesced, or a serving run at its cap) or 4
  /// (time cap). finish_run() raises it to 3 on an oracle or audit
  /// violation.
  int exit_code = 4;
  bool quiesced = false;
  /// Micros: simulated end time on "sim", wall time otherwise.
  SimTime run_time = 0;
  Metrics metrics;
  Network::Stats net;
  /// Delivery latency; null on the simulator, which has none.
  const telemetry::FixedHistogram* latency = nullptr;
  bool oracle_enabled = false;
  std::size_t oracle_states = 0;
  std::vector<std::string> violations;
  /// The run's event trace; null when it was not traced.
  const std::vector<TraceEvent>* trace = nullptr;
  /// Set by finish_run() when the trace was audited.
  std::optional<std::size_t> audit_violations;
  /// Backend-only --metrics-json content: extra `config` keys, and extra
  /// top-level blocks.
  std::function<void(JsonWriter&)> json_config;
  std::function<void(JsonWriter&)> json_blocks;
  /// Backend-only lines of the human-readable summary.
  std::function<void()> print_extra;
};

/// Write the --trace file, run the --audit, then emit --metrics-json or
/// print the summary. Returns the exit code: 3 on an oracle or audit
/// violation, the backend's verdict otherwise.
int finish_run(const RunFlags& flags, RunReport report);

/// The --metrics-json object (one newline-terminated line; pipe through
/// `python3 -m json.tool` to pretty-print). Every backend writes the same
/// shared blocks — config, metrics, network, oracle, recovery_timeline —
/// and appends its own.
std::string run_json(const RunReport& report);

}  // namespace optrec
