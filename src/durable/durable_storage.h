// DurableBackend: the file-backed persistence engine behind StableStorage.
//
// Attached as a StableSink, it mirrors every stability-relevant mutation of
// the in-memory StableStorage to disk:
//
//   message appends  -> buffered WAL records, group-committed on flush
//   token appends    -> synchronous WAL commit (Section 6.3)
//   truncate         -> synchronous WAL marker
//   reclaim (GC)     -> a new WAL generation written from the mirrored
//                       storage (reclaim marker, live log, token log),
//                       swapped in by a manifest rewrite; no file is read
//   checkpoints      -> atomic snapshot files + manifest rewrite
//
// and can rebuild a StableStorage from disk after the owning process was
// SIGKILLed (`recover_into`). Recovery is the paper's sequence made real:
// read the manifest, load the checkpoint window it names, replay the WAL up
// to the stable frontier (truncating a torn tail at the first bad CRC), and
// refuse to trust anything whose supposedly-committed bytes fail validation.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/durable/snapshot.h"
#include "src/durable/wal.h"
#include "src/storage/stable_sink.h"
#include "src/storage/stable_storage.h"
#include "src/util/counter_fields.h"

namespace optrec {

struct DurableOptions {
  std::string dir;
  /// Filesystem to write through; nullptr = the real one (posix_fs()).
  DurableFs* fs = nullptr;
  /// Fault-injection ablations (negative controls for the fuzzer).
  WalAblations ablations;
};

/// A durable process's counters: the backend's own, the outcome of its
/// recover_into(), and the in-memory stable footprint its owner mirrors in
/// (set_memory_stable_bytes), so disk and memory sit side by side. Totals
/// over processes add, but for recovery_us, which keeps the slowest.
struct DurableStats {
  std::uint64_t warm_recovered = 0;  // 1 when recover_into() restored state
  /// Stable frontier restored from disk: above the initial-checkpoint
  /// cursor, it proves recovery used the latest state.
  std::uint64_t recovered_delivered = 0;
  std::uint64_t replayed_messages = 0;
  std::uint64_t replayed_tokens = 0;
  std::uint64_t recovered_checkpoints = 0;
  std::uint64_t torn_bytes_truncated = 0;
  std::uint64_t fsync_total = 0;
  std::uint64_t fsync_messages = 0;
  std::uint64_t fsync_tokens = 0;
  std::uint64_t wal_bytes_written = 0;
  std::uint64_t wal_records_written = 0;
  std::uint64_t wal_buffered_bytes = 0;
  std::uint64_t disk_stable_bytes = 0;
  std::uint64_t memory_stable_bytes = 0;
  std::uint64_t snapshot_writes = 0;
  std::uint64_t manifest_writes = 0;
  /// WAL generations written from memory (recovery, GC reclaims).
  std::uint64_t compactions = 0;
  std::uint64_t recovery_us = 0;  // recover_into() wall time

  /// Every counter with its JSON key and /metrics family
  /// (src/util/counter_fields.h); exported per process as {pid="K"}.
  static constexpr std::array<CounterField<DurableStats>, 18> kFields{{
      {"warm_recovered", &DurableStats::warm_recovered,
       "optrec_warm_recovered", "", CounterKind::kGauge},
      {"recovered_delivered", &DurableStats::recovered_delivered,
       "optrec_recovered_delivered", "", CounterKind::kGauge},
      {"replayed_msgs", &DurableStats::replayed_messages,
       "optrec_replayed_msgs_total"},
      {"replayed_tokens", &DurableStats::replayed_tokens,
       "optrec_replayed_tokens_total"},
      {"recovered_checkpoints", &DurableStats::recovered_checkpoints,
       "optrec_recovered_checkpoints_total"},
      {"torn_bytes", &DurableStats::torn_bytes_truncated,
       "optrec_wal_torn_bytes_total"},
      {"fsyncs", &DurableStats::fsync_total, "optrec_fsync_total"},
      {"fsync_messages", &DurableStats::fsync_messages,
       "optrec_fsync_messages_total"},
      {"fsync_tokens", &DurableStats::fsync_tokens,
       "optrec_fsync_tokens_total"},
      {"wal_bytes_written", &DurableStats::wal_bytes_written,
       "optrec_wal_bytes_written_total"},
      {"wal_records_written", &DurableStats::wal_records_written,
       "optrec_wal_records_written_total"},
      {"wal_buffered_bytes", &DurableStats::wal_buffered_bytes,
       "optrec_wal_buffered_bytes", "", CounterKind::kGauge},
      {"disk_stable_bytes", &DurableStats::disk_stable_bytes,
       "optrec_disk_stable_bytes", "", CounterKind::kGauge},
      {"memory_stable_bytes", &DurableStats::memory_stable_bytes,
       "optrec_stable_bytes", "", CounterKind::kGauge},
      {"snapshot_writes", &DurableStats::snapshot_writes,
       "optrec_snapshot_writes_total"},
      {"manifest_writes", &DurableStats::manifest_writes,
       "optrec_manifest_writes_total"},
      {"compactions", &DurableStats::compactions,
       "optrec_wal_compactions_total"},
      {"recovery_us", &DurableStats::recovery_us, "optrec_recovery_us", "",
       CounterKind::kMaxGauge},
  }};
};

struct RecoveryResult {
  /// True when a valid manifest + checkpoint window was restored: the
  /// caller should boot via ProcessBase::start_recovered().
  bool warm = false;
  /// Committed bytes failed validation (or the manifest names missing
  /// files): stable storage is damaged; the caller must not trust it and
  /// should fall back to a cold start.
  bool corrupt = false;
  std::string corrupt_reason;
  std::uint64_t replayed_messages = 0;
  std::uint64_t replayed_tokens = 0;
  std::uint64_t recovered_checkpoints = 0;
  std::uint64_t torn_bytes = 0;
  /// Stable log frontier after replay (global delivery index).
  std::uint64_t recovered_delivered = 0;
};

class DurableBackend final : public StableSink {
 public:
  explicit DurableBackend(DurableOptions opts);
  ~DurableBackend() override = default;

  /// Wipe the data dir and start an empty store (fresh boot, or fallback
  /// after a failed/corrupt recovery).
  void start_fresh();

  /// Rebuild `storage` (which must be empty and have no sink attached)
  /// from the data dir. On warm success the rebuilt storage is written as a
  /// fresh WAL generation, stray files are removed, and the backend is
  /// ready for new writes; the caller then attaches this backend as the
  /// storage's sink. On a cold/corrupt result the backend is left unopened
  /// — call start_fresh(). The only place the backend reads its files.
  RecoveryResult recover_into(StableStorage& storage);

  // StableSink:
  void log_append(std::uint64_t index, const Message& msg) override;
  void log_flush(std::uint64_t upto) override;
  void log_truncate(std::uint64_t from) override;
  void log_reclaim(std::uint64_t before) override;  // needs source()
  void log_crash_wipe(std::uint64_t stable_frontier) override;
  void token_append(const Token& token) override;
  void checkpoint_append(const Checkpoint& ckpt) override;
  void checkpoint_truncate(std::size_t live_count) override;
  void checkpoint_reclaim(std::size_t reclaimed) override;

  DurableStats stats() const { return stats_.load(); }
  /// Mirror the owner's in-memory stable footprint (any one thread).
  void set_memory_stable_bytes(std::uint64_t bytes) {
    stats_.set<&DurableStats::memory_stable_bytes>(bytes);
  }
  /// Called with each group commit's latency in microseconds (from the
  /// worker thread; the hook must be thread-safe if read elsewhere).
  void set_flush_latency_hook(std::function<void(std::uint64_t)> hook) {
    flush_latency_hook_ = std::move(hook);
  }

  const std::string& dir() const { return opts_.dir; }

 private:
  DurableFs& fs() { return *fs_; }
  void write_manifest();
  void refresh_gauges();
  /// Start the next WAL generation as `storage`'s image, point the
  /// manifest at it and delete the old one. The old writer's buffered
  /// records mirror the log's volatile tail, which the image holds too:
  /// they harden here, as a synchronous marker would have hardened them.
  void write_wal_generation(const StableStorage& storage);

  DurableOptions opts_;
  DurableFs* fs_;
  std::unique_ptr<WalWriter> wal_;
  /// Global log index just past the newest message record appended to /
  /// committed into the WAL. The committed frontier can exceed the
  /// in-memory stable frontier (token commits harden buffered messages);
  /// log_crash_wipe uses the gap to decide whether a truncate record is
  /// needed to keep replay contiguous.
  std::uint64_t append_frontier_ = 0;
  std::uint64_t committed_frontier_ = 0;
  std::uint64_t wal_gen_ = 0;
  std::uint64_t next_seq_ = 0;
  std::deque<std::uint64_t> live_seqs_;
  std::map<std::uint64_t, std::uint64_t> snapshot_bytes_;  // seq -> file size
  std::uint64_t manifest_bytes_ = 0;
  std::function<void(std::uint64_t)> flush_latency_hook_;

  AtomicCounters<DurableStats> stats_;
};

}  // namespace optrec
