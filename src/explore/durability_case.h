// The durability case kind: crash-consistency cases for the file-backed
// stable storage (src/durable/), swept and shrunk by the exploration engine
// (src/explore/explorer.h).
//
// One DurabilityCase pins a deterministic storage op schedule (appends,
// group-commit flushes, synchronous tokens, checkpoints, rollback
// truncations, GC reclaims, process-crash wipes) driven against a
// StableStorage whose sink is a DurableBackend over the MemFs
// crash-simulating filesystem. A crash is armed at a filesystem mutation-op
// index; the resulting crash image (durable prefixes plus a random —
// optionally garbled — torn tail) is recovered with a fresh backend, and
// the recovered state is checked against the model:
//
//   the recovered stable state must equal the in-memory stable state at
//   SOME legal point: the last completed op boundary, extended by any
//   prefix of the messages buffered there (a group commit interrupted
//   mid-sync hardens a prefix), or the interrupted op completed in full.
//
// Violation categories:
//   durable-loss      recovered an older state than synced data allows
//   phantom-state     recovered a state the schedule never produced
//   unexpected-corrupt recovery flagged corruption with none injected
//                     (torn tails must be absorbed, never rejected)
//   corrupt-accepted  a bit flipped below the committed floor was NOT
//                     flagged (reject-and-refail requirement)
//   recovery-exception recover_into threw
//
// `mutation` selects a WalAblations negative control ("skip-crc",
// "async-tokens"): each must make the sweep find violations that the real
// implementation never produces.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/explore/explorer.h"

namespace optrec {

struct DurabilityCase {
  /// Decides the whole op schedule and every payload byte.
  std::uint64_t seed = 1;
  /// Schedule length in storage primitives.
  std::uint32_t ops = 48;
  /// Filesystem mutation-op index (relative to the schedule start) to crash
  /// at; past the schedule's op count = power-cut after the last op.
  std::uint64_t crash_at_op = UINT64_MAX;
  /// Probability that a surviving torn tail gets one byte garbled.
  double garble_tail = 0.0;
  /// Flip one durable bit below the committed floor before recovery; the
  /// only acceptable outcome is then a corruption rejection.
  bool corrupt_durable = false;
  /// "" | "skip-crc" | "async-tokens" (WalAblations negative controls).
  std::string mutation;
};

struct DurabilityOutcome {
  /// The armed crash fired (false = power-cut at schedule end).
  bool crashed = false;
  /// Storage primitives fully completed before the crash.
  std::size_t completed_ops = 0;
  /// Filesystem mutation ops the full schedule executes (crash disarmed);
  /// the generator uses this to place crash points in range.
  std::uint64_t fs_ops = 0;
  /// Below-floor corruption was actually injected (needs a manifest).
  bool corrupted = false;
  bool warm = false;
  bool corrupt = false;
  std::uint64_t replayed_messages = 0;
  std::uint64_t replayed_tokens = 0;
  std::uint64_t torn_bytes = 0;
  std::vector<ViolationRecord> violations;
  std::vector<std::uint64_t> signatures;

  bool ok() const { return violations.empty(); }
};

/// Execute one case end to end: run the schedule over MemFs, crash, recover
/// the image, check the oracle. Deterministic: equal cases, equal outcomes.
DurabilityOutcome run_durability_case(const DurabilityCase& c);

/// Generation knobs and engine moves for durability cases. Fresh cases cut
/// power after the last op half the time; the other half crash inside the
/// schedule's filesystem-op range, learned from one unchecked power-cut run.
struct DurabilityKind {
  using Case = DurabilityCase;
  static constexpr std::string_view kSchema = "optrec-durability-repro-v1";

  std::uint32_t ops = 48;
  /// Applied to every generated case ("" = real implementation).
  std::string mutation;
  /// Fraction of cases with torn-tail garbling / below-floor corruption.
  double garble_prob = 0.4;
  double corrupt_prob = 0.15;

  DurabilityCase generate(Rng& rng) const;
  DurabilityCase mutate(const DurabilityCase& parent, Rng& rng) const;
  DurabilityOutcome run(const DurabilityCase& c) const {
    return run_durability_case(c);
  }
  /// Halve or decrement `ops` and `crash_at_op`, clear garble, clear
  /// corruption.
  std::vector<DurabilityCase> simpler(const DurabilityCase& c) const;
  void write_case(JsonWriter& w, const DurabilityCase& c) const;
  DurabilityCase read_case(const JsonValue& artifact) const;
  BenchLabels bench_labels() const;
};

}  // namespace optrec
