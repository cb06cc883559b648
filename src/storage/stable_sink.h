// Observer interface for durable stable storage.
//
// `StableStorage` and its children (`MessageLog`, `CheckpointStore`) are the
// in-memory source of truth the protocol manipulates; a `StableSink` mirrors
// every stability-relevant mutation to a persistence backend. The split keeps
// the protocol code byte-identical whether it runs purely in memory (the
// simulator default) or on top of a file-backed WAL + snapshot store
// (`src/durable/`).
//
// Semantics mirror the paper's Section 6.3 durability split:
//  - `log_append` records a delivered message into the *volatile* tail; the
//    backend may buffer it but must not consider it durable.
//  - `log_flush` moves everything appended so far into the stable prefix;
//    the backend must make the buffered records durable before returning
//    (group commit: one write + one fsync for the whole batch).
//  - `token_append` is a synchronous commit: the token must be durable
//    before the call returns ("we require all tokens to be logged
//    synchronously"). Note this also hardens any messages buffered before
//    the token — a WAL is strictly ordered, so a sync record cannot become
//    durable without the records in front of it.
//  - `log_crash_wipe` discards the buffered-but-unflushed tail, matching
//    `MessageLog::on_crash()` (an in-memory crash simulation; a real process
//    death discards the backend's buffer for free).
//  - `log_reclaim` lets the backend rewrite its log image from `source()`,
//    the storage it mirrors, instead of reading its own files back.
#pragma once

#include <cstddef>
#include <cstdint>

namespace optrec {

struct Checkpoint;
struct Message;
class StableStorage;
struct Token;

class StableSink {
 public:
  virtual ~StableSink() = default;

  /// A message entered the volatile log tail at global index `index`.
  virtual void log_append(std::uint64_t index, const Message& msg) = 0;
  /// The volatile tail up to global index `upto` became stable (group
  /// commit point).
  virtual void log_flush(std::uint64_t upto) = 0;
  /// Rollback discarded log entries at indices >= `from`.
  virtual void log_truncate(std::uint64_t from) = 0;
  /// GC reclaimed log entries at indices < `before`; source() holds the
  /// live log from `before` on and the token log.
  virtual void log_reclaim(std::uint64_t before) = 0;
  /// The volatile (unflushed) tail was lost to a simulated crash; the log
  /// resumes appending at `stable_frontier`. A backend whose durable
  /// frontier ran ahead (a synchronous token hardened buffered messages the
  /// in-memory log still counted volatile) must discard that excess, or the
  /// next append would collide with the resurrected indices on replay.
  virtual void log_crash_wipe(std::uint64_t stable_frontier) = 0;

  /// A failure token was logged; must be durable on return (sync commit).
  virtual void token_append(const Token& token) = 0;

  /// A checkpoint was appended to the store.
  virtual void checkpoint_append(const Checkpoint& ckpt) = 0;
  /// Rollback kept only the oldest `live_count` checkpoints.
  virtual void checkpoint_truncate(std::size_t live_count) = 0;
  /// GC dropped the oldest checkpoints; `reclaimed` of them are gone.
  virtual void checkpoint_reclaim(std::size_t reclaimed) = 0;

  /// The storage this sink mirrors: set by StableStorage::attach_sink, null
  /// while detached.
  const StableStorage* source() const { return source_; }

 private:
  friend class StableStorage;
  const StableStorage* source_ = nullptr;
};

}  // namespace optrec
