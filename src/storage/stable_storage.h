// Per-process simulated stable storage.
//
// Aggregates the checkpoint store, the message log, and the synchronously
// written token log. The object outlives crashes; `on_crash()` wipes exactly
// the volatile parts (the message log's unflushed tail). Tokens are logged
// synchronously on receipt (paper Section 6.3), so the token log has no
// volatile tail at all.
//
// By default everything is in-memory (a simulation of stable storage). An
// attached `StableSink` (see `src/durable/`) mirrors every mutation to a
// real file-backed WAL + snapshot store so state survives process death.
#pragma once

#include <cstdint>
#include <vector>

#include "src/net/message.h"
#include "src/storage/checkpoint_store.h"
#include "src/storage/message_log.h"

namespace optrec {

class StableSink;

class StableStorage {
 public:
  CheckpointStore& checkpoints() { return checkpoints_; }
  const CheckpointStore& checkpoints() const { return checkpoints_; }

  MessageLog& log() { return log_; }
  const MessageLog& log() const { return log_; }

  /// Synchronous token log (Section 6.3: "we require all tokens to be logged
  /// synchronously").
  void log_token(const Token& token);
  const std::vector<Token>& token_log() const { return tokens_; }

  /// Crash: wipe volatile state. Returns number of unlogged messages lost.
  std::size_t on_crash() { return log_.on_crash(); }

  /// Total stable footprint in bytes (checkpoints + stable log + tokens);
  /// a GC pass reports its drop as reclaimed_bytes.
  std::size_t stable_bytes() const;

  /// Mirror all mutations (checkpoints, log, tokens) to a persistence
  /// backend (nullptr detaches).
  void attach_sink(StableSink* sink);

  /// Recovery: load the token log recovered from a durable backend. Only
  /// valid before any token has been logged.
  void restore_tokens(std::vector<Token> tokens);

 private:
  CheckpointStore checkpoints_;
  MessageLog log_;
  std::vector<Token> tokens_;
  StableSink* sink_ = nullptr;
};

}  // namespace optrec
