#include "src/durable/durable_storage.h"

#include <chrono>
#include <stdexcept>

namespace optrec {
namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

DurableBackend::DurableBackend(DurableOptions opts)
    : opts_(std::move(opts)), fs_(opts_.fs ? opts_.fs : &posix_fs()) {}

void DurableBackend::start_fresh() {
  fs().mkdirs(opts_.dir);
  for (const auto& name : fs().list_dir(opts_.dir)) {
    fs().remove(opts_.dir + "/" + name);
  }
  wal_gen_ = 0;
  next_seq_ = 0;
  append_frontier_ = 0;
  committed_frontier_ = 0;
  live_seqs_.clear();
  snapshot_bytes_.clear();
  manifest_bytes_ = 0;
  wal_ = std::make_unique<WalWriter>(fs(), wal_path(opts_.dir, wal_gen_),
                                     opts_.ablations);
  refresh_gauges();
}

RecoveryResult DurableBackend::recover_into(StableStorage& storage) {
  const std::uint64_t t0 = now_us();
  RecoveryResult result;
  auto corrupt = [&result](const std::string& why) {
    result.corrupt = true;
    result.warm = false;
    if (result.corrupt_reason.empty()) result.corrupt_reason = why;
    return result;
  };

  const auto manifest_raw = fs().read_file(manifest_path(opts_.dir));
  if (!manifest_raw) {
    // Died before the first checkpoint's manifest write (or a genuinely
    // fresh dir): nothing durable worth restoring.
    return result;
  }
  const auto manifest = Manifest::decode(*manifest_raw);
  if (!manifest) return corrupt("manifest failed validation");
  if (manifest->checkpoint_seqs.empty()) {
    return corrupt("manifest names no checkpoints");
  }

  // Load the checkpoint window the manifest names.
  std::deque<Checkpoint> ckpts;
  for (const auto seq : manifest->checkpoint_seqs) {
    auto c = read_snapshot(fs(), checkpoint_path(opts_.dir, seq));
    if (!c) {
      return corrupt("checkpoint ckpt-" + std::to_string(seq) +
                     ".bin missing or failed validation");
    }
    ckpts.push_back(std::move(*c));
  }

  // Replay the WAL up to the stable frontier.
  const auto wal_raw = fs().read_file(wal_path(opts_.dir, manifest->wal_gen));
  if (!wal_raw) return corrupt("WAL named by manifest is missing");
  WalReplay replay =
      replay_wal(*wal_raw, manifest->wal_committed, opts_.ablations);
  if (replay.corrupt) return corrupt(replay.corrupt_reason);

  const std::uint64_t frontier = replay.base + replay.entries.size();
  if (frontier < ckpts.back().delivered_count) {
    // take_checkpoint commits the WAL before the snapshot is written, so a
    // valid manifest implies log coverage up to the newest checkpoint.
    return corrupt("stable log ends before the newest checkpoint's cursor");
  }

  // Commit point: from here the recovery succeeds. Write the rebuilt
  // storage as a fresh WAL generation (dropping reclaimed/truncated bytes
  // and any torn tail), point the manifest at it, then clear stray files.
  result.warm = true;
  result.replayed_messages = replay.entries.size();
  result.replayed_tokens = replay.tokens.size();
  result.recovered_checkpoints = ckpts.size();
  result.torn_bytes = replay.torn_bytes;
  result.recovered_delivered = frontier;

  next_seq_ = manifest->next_seq;
  live_seqs_.assign(manifest->checkpoint_seqs.begin(),
                    manifest->checkpoint_seqs.end());
  snapshot_bytes_.clear();
  for (std::size_t i = 0; i < live_seqs_.size(); ++i) {
    snapshot_bytes_[live_seqs_[i]] = 12 + ckpts[i].byte_size();
  }

  storage.restore_tokens(std::move(replay.tokens));
  storage.log().restore(std::move(replay.entries), replay.base);
  storage.checkpoints().restore(std::move(ckpts), next_seq_);
  wal_gen_ = manifest->wal_gen;
  write_wal_generation(storage);

  // Anything the manifest does not name is dead: older WAL generations,
  // snapshots from a discarded future, temp files from interrupted writes.
  for (const auto& name : fs().list_dir(opts_.dir)) {
    const std::string path = opts_.dir + "/" + name;
    if (path == manifest_path(opts_.dir) ||
        path == wal_path(opts_.dir, wal_gen_)) {
      continue;
    }
    bool live_snapshot = false;
    for (const auto seq : live_seqs_) {
      if (path == checkpoint_path(opts_.dir, seq)) {
        live_snapshot = true;
        break;
      }
    }
    if (!live_snapshot) fs().remove(path);
  }

  stats_.set<&DurableStats::warm_recovered>(1);
  stats_.set<&DurableStats::recovered_delivered>(result.recovered_delivered);
  stats_.set<&DurableStats::replayed_messages>(result.replayed_messages);
  stats_.set<&DurableStats::replayed_tokens>(result.replayed_tokens);
  stats_.set<&DurableStats::recovered_checkpoints>(
      result.recovered_checkpoints);
  stats_.set<&DurableStats::torn_bytes_truncated>(result.torn_bytes);
  stats_.set<&DurableStats::recovery_us>(now_us() - t0);
  refresh_gauges();
  return result;
}

void DurableBackend::log_append(std::uint64_t index, const Message& msg) {
  wal_->append_message(index, msg);
  append_frontier_ = index + 1;
  stats_.set<&DurableStats::wal_buffered_bytes>(wal_->buffered_bytes());
}

void DurableBackend::log_flush(std::uint64_t upto) {
  if (upto > committed_frontier_) committed_frontier_ = upto;
  const std::uint64_t t0 = now_us();
  wal_->commit();
  const std::uint64_t us = now_us() - t0;
  if (flush_latency_hook_) flush_latency_hook_(us);
  refresh_gauges();
}

void DurableBackend::log_truncate(std::uint64_t from) {
  // The sync record rides any buffered messages into the file first, then
  // the truncate marker clamps replay back: the durable frontier lands
  // exactly at `from`.
  wal_->append_truncate(from);
  append_frontier_ = from;
  committed_frontier_ = from;
  refresh_gauges();
}

void DurableBackend::log_reclaim(std::uint64_t /*before*/) {
  if (source() == nullptr) {
    throw std::logic_error("DurableBackend: log_reclaim with no source");
  }
  write_wal_generation(*source());
}

void DurableBackend::log_crash_wipe(std::uint64_t stable_frontier) {
  wal_->drop_buffered();
  append_frontier_ = stable_frontier;
  if (committed_frontier_ > stable_frontier) {
    // A synchronous token hardened buffered messages the in-memory log
    // still counted volatile; the crash wiped them in memory, so the next
    // append reuses their indices. Truncate the durable excess or replay
    // would see a non-contiguous index stream and refuse warm recovery.
    wal_->append_truncate(stable_frontier);
    committed_frontier_ = stable_frontier;
  }
  stats_.set<&DurableStats::wal_buffered_bytes>(0);
  refresh_gauges();
}

void DurableBackend::token_append(const Token& token) {
  wal_->append_token(token);
  committed_frontier_ = append_frontier_;
  refresh_gauges();
}

void DurableBackend::checkpoint_append(const Checkpoint& ckpt) {
  const std::uint64_t seq = next_seq_++;
  const std::string path = checkpoint_path(opts_.dir, seq);
  snapshot_bytes_[seq] = write_snapshot(fs(), path, ckpt);
  live_seqs_.push_back(seq);
  stats_.add<&DurableStats::snapshot_writes>();
  write_manifest();
  refresh_gauges();
}

void DurableBackend::checkpoint_truncate(std::size_t live_count) {
  std::vector<std::uint64_t> dead;
  while (live_seqs_.size() > live_count) {
    dead.push_back(live_seqs_.back());
    live_seqs_.pop_back();
  }
  // Manifest first: a crash mid-delete must never leave the manifest naming
  // a removed snapshot.
  write_manifest();
  for (const auto seq : dead) {
    fs().remove(checkpoint_path(opts_.dir, seq));
    snapshot_bytes_.erase(seq);
  }
  refresh_gauges();
}

void DurableBackend::checkpoint_reclaim(std::size_t reclaimed) {
  std::vector<std::uint64_t> dead;
  for (std::size_t i = 0; i < reclaimed && !live_seqs_.empty(); ++i) {
    dead.push_back(live_seqs_.front());
    live_seqs_.pop_front();
  }
  write_manifest();
  for (const auto seq : dead) {
    fs().remove(checkpoint_path(opts_.dir, seq));
    snapshot_bytes_.erase(seq);
  }
  refresh_gauges();
}

void DurableBackend::write_manifest() {
  Manifest m;
  m.wal_gen = wal_gen_;
  m.wal_committed = wal_ ? wal_->committed_offset() : 0;
  m.next_seq = next_seq_;
  m.checkpoint_seqs.assign(live_seqs_.begin(), live_seqs_.end());
  const Bytes encoded = m.encode();
  fs().write_file_atomic(manifest_path(opts_.dir), encoded);
  manifest_bytes_ = encoded.size();
  stats_.add<&DurableStats::manifest_writes>();
}

void DurableBackend::refresh_gauges() {
  const WalWriterStats& ws = wal_->stats();
  stats_.set<&DurableStats::fsync_total>(ws.fsyncs);
  stats_.set<&DurableStats::fsync_messages>(ws.message_commits);
  stats_.set<&DurableStats::fsync_tokens>(ws.token_commits);
  stats_.set<&DurableStats::wal_bytes_written>(ws.bytes_written);
  stats_.set<&DurableStats::wal_records_written>(ws.records_written);
  stats_.set<&DurableStats::wal_buffered_bytes>(wal_->buffered_bytes());
  std::uint64_t disk = wal_->committed_offset() + manifest_bytes_;
  for (const auto& [seq, bytes] : snapshot_bytes_) {
    (void)seq;
    disk += bytes;
  }
  stats_.set<&DurableStats::disk_stable_bytes>(disk);
}

void DurableBackend::write_wal_generation(const StableStorage& storage) {
  const std::uint64_t old_gen = wal_gen_;
  const WalWriterStats carried = wal_ ? wal_->stats() : WalWriterStats{};
  ++wal_gen_;
  fs().write_file_atomic(wal_path(opts_.dir, wal_gen_),
                         encode_wal_image(storage.log(), storage.token_log()));
  wal_ = std::make_unique<WalWriter>(fs(), wal_path(opts_.dir, wal_gen_),
                                     opts_.ablations);
  wal_->set_stats(carried);  // lifetime counters survive the writer swap
  append_frontier_ = committed_frontier_ = storage.log().total_count();
  write_manifest();
  fs().remove(wal_path(opts_.dir, old_gen));
  stats_.add<&DurableStats::compactions>();
  refresh_gauges();
}

}  // namespace optrec
