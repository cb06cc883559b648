// Append-only receiver-log WAL.
//
// File layout: an 8-byte magic ("OPTRWAL1") followed by framed records:
//
//   [u32le len] [u32le crc] [u8 type] [body: len-1 bytes]
//
// `len` counts the type byte plus the body; `crc` is CRC-32 of type+body, so
// any single-byte corruption of a record's content is detected with
// certainty (a flip inside `len` shifts the checked span and is caught with
// ~2^-32 false-accept probability). Record bodies reuse the LEB128
// serialization of src/util + the Message/Token codecs.
//
// Durability follows the paper's Section 6.3 split:
//  - message records are *buffered* in memory and group-committed — one
//    write(2) + one fdatasync for the whole batch — when the storage layer
//    flushes its volatile tail (`commit()`);
//  - token records are committed synchronously: `append_token` writes any
//    buffered messages plus the token and syncs before returning. WAL
//    ordering means a durable token also hardens every message buffered
//    before it — there are no holes.
//  - truncate (rollback) records are likewise synchronous: once the
//    in-memory state dropped entries, recovery must never resurrect them.
//    A GC reclaim instead starts a new generation (`encode_wal_image`)
//    whose first record is the reclaim marker.
//
// Recovery replays the file sequentially. A bad record at or past the
// manifest's committed offset is a torn tail: truncate there and carry on.
// A bad record *below* the committed offset is corruption of supposedly
// stable bytes: flagged, and the caller refuses warm recovery
// (reject-and-refail, after Salem & Schiller).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/durable/durable_fs.h"
#include "src/net/message.h"

namespace optrec {

class MessageLog;

constexpr char kWalMagic[8] = {'O', 'P', 'T', 'R', 'W', 'A', 'L', '1'};
constexpr std::size_t kWalMagicBytes = 8;
/// Upper bound on a single record (type byte + body). Anything larger in a
/// file is structural damage, not a real record.
constexpr std::uint32_t kMaxWalRecordBytes = 4u << 20;

enum class WalRecordType : std::uint8_t {
  kMessage = 1,   // varint global index + Message
  kToken = 2,     // Token
  kTruncate = 3,  // varint from-index (rollback discarded >= from)
  kReclaim = 4,   // varint new base (GC dropped < base)
};

/// Knobs that deliberately break the implementation, as negative controls
/// for the durability fuzzer: each must make the fault-injection sweep find
/// a violation that the real implementation never produces.
struct WalAblations {
  /// Replay accepts records without verifying their CRC.
  bool skip_crc = false;
  /// Tokens are buffered like messages instead of sync-committed.
  bool async_tokens = false;
};

/// Aggregate counters, incremented by WalWriter as it goes. The owner
/// (DurableBackend) mirrors them into atomics for cross-thread scraping.
struct WalWriterStats {
  std::uint64_t fsyncs = 0;
  std::uint64_t message_commits = 0;  // group commits containing messages
  std::uint64_t token_commits = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t records_written = 0;
};

class WalWriter {
 public:
  /// Opens (creating if needed) `path` on `fs`. A brand-new file gets the
  /// magic written and synced; an existing file is appended to and `size()`
  /// must already be a committed record boundary (recovery guarantees this
  /// by compacting before reopening).
  WalWriter(DurableFs& fs, std::string path, WalAblations ablations = {});

  /// Buffer a message record (volatile until the next commit).
  void append_message(std::uint64_t index, const Message& msg);

  /// Group commit: write every buffered record with one append + one sync.
  /// No-op when nothing is buffered. Returns the number of records
  /// committed.
  std::size_t commit();

  /// Sync commit of a token (plus anything buffered in front of it).
  void append_token(const Token& token);

  /// Sync commit of a rollback truncation / GC reclaim marker.
  void append_truncate(std::uint64_t from);
  void append_reclaim(std::uint64_t new_base);

  /// Drop buffered-but-uncommitted records (simulated crash of the owning
  /// process wiped the in-memory volatile tail they mirror).
  void drop_buffered();

  /// Bytes known durable (magic + committed records).
  std::uint64_t committed_offset() const { return committed_; }
  std::uint64_t buffered_bytes() const { return buffer_.size(); }
  std::size_t buffered_records() const { return buffered_records_; }

  const WalWriterStats& stats() const { return stats_; }
  /// Replace the counters (used when a new WAL generation swaps writers
  /// and the lifetime totals must survive the swap).
  void set_stats(const WalWriterStats& stats) { stats_ = stats; }

 private:
  void sync_commit(WalRecordType type, const Bytes& body);

  std::unique_ptr<DurableFile> file_;
  std::string path_;
  WalAblations ablations_;
  Bytes buffer_;
  std::size_t buffered_records_ = 0;
  std::uint64_t committed_ = 0;
  WalWriterStats stats_;
};

/// Result of replaying a WAL file image.
struct WalReplay {
  /// Final log content after applying message/truncate/reclaim records in
  /// order: entries are contiguous global indices [base, base+size).
  std::vector<Message> entries;
  std::uint64_t base = 0;
  std::vector<Token> tokens;

  /// Offset just past the last good record (where a reopened writer would
  /// continue).
  std::uint64_t valid_bytes = 0;
  /// Bytes discarded as a torn tail (bad record at/after `committed_floor`).
  std::uint64_t torn_bytes = 0;
  /// True when a record *below* `committed_floor` failed validation, or the
  /// record stream is structurally inconsistent: stable bytes are damaged
  /// and the caller must not trust the result.
  bool corrupt = false;
  std::string corrupt_reason;
};

/// Sequentially decode `raw`; see the header comment for torn-vs-corrupt
/// interpretation. `committed_floor` is the manifest's committed offset
/// (conservative: actual synced bytes may extend past it).
WalReplay replay_wal(const Bytes& raw, std::uint64_t committed_floor,
                     const WalAblations& ablations = {});

/// A fresh WAL image of an in-memory log: the magic, a reclaim marker when
/// `log` starts past index 0, one record per entry from its base (the
/// volatile tail included) and one per token. Replaying it rebuilds exactly
/// that log and token log. Recovery and every GC reclaim start a new WAL
/// generation with it.
Bytes encode_wal_image(const MessageLog& log, const std::vector<Token>& tokens);

}  // namespace optrec
