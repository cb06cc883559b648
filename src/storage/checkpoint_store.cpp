#include "src/storage/checkpoint_store.h"

#include <stdexcept>

#include "src/storage/stable_sink.h"

namespace optrec {

void Checkpoint::encode(Writer& w) const {
  w.put_u32(version);
  w.put_u64(delivered_count);
  w.put_u64(send_seq);
  clock.encode(w);
  history.encode(w);
  w.put_bytes(app_state);
  w.put_bytes(extra);
  w.put_bytes(delivered_keys);
  w.put_u64(taken_at);
}

Checkpoint Checkpoint::decode(Reader& r) {
  Checkpoint c;
  c.version = r.get_u32();
  c.delivered_count = r.get_u64();
  c.send_seq = r.get_u64();
  c.clock = Ftvc::decode(r);
  c.history = History::decode(r);
  c.app_state = r.get_bytes();
  c.extra = r.get_bytes();
  c.delivered_keys = r.get_bytes();
  c.taken_at = r.get_u64();
  return c;
}

std::size_t Checkpoint::byte_size() const {
  Writer w;
  encode(w);
  return w.size();
}

void CheckpointStore::append(Checkpoint checkpoint) {
  if (sink_ != nullptr) sink_->checkpoint_append(checkpoint);
  byte_sizes_.push_back(checkpoint.byte_size());
  stable_bytes_ += byte_sizes_.back();
  checkpoints_.push_back(std::move(checkpoint));
  ++total_appended_;
}

std::optional<std::size_t> CheckpointStore::latest_matching(
    const std::function<bool(const Checkpoint&)>& pred) const {
  for (std::size_t i = checkpoints_.size(); i-- > 0;) {
    if (pred(checkpoints_[i])) return i;
  }
  return std::nullopt;
}

void CheckpointStore::truncate_after(std::size_t idx) {
  if (idx >= checkpoints_.size()) return;
  for (std::size_t i = idx + 1; i < byte_sizes_.size(); ++i) {
    stable_bytes_ -= byte_sizes_[i];
  }
  checkpoints_.erase(checkpoints_.begin() + static_cast<std::ptrdiff_t>(idx + 1),
                     checkpoints_.end());
  byte_sizes_.erase(byte_sizes_.begin() + static_cast<std::ptrdiff_t>(idx + 1),
                    byte_sizes_.end());
  if (sink_ != nullptr) sink_->checkpoint_truncate(checkpoints_.size());
}

std::size_t CheckpointStore::reclaim_before_delivered(
    std::uint64_t stable_delivered) {
  std::size_t reclaimed = 0;
  // Keep the newest checkpoint whose delivered_count <= stable_delivered and
  // everything after it; anything older can never be a restore target again.
  while (checkpoints_.size() > 1 &&
         checkpoints_[1].delivered_count <= stable_delivered) {
    stable_bytes_ -= byte_sizes_.front();
    checkpoints_.pop_front();
    byte_sizes_.pop_front();
    ++reclaimed;
  }
  if (reclaimed > 0 && sink_ != nullptr) sink_->checkpoint_reclaim(reclaimed);
  return reclaimed;
}

void CheckpointStore::restore(std::deque<Checkpoint> checkpoints,
                              std::uint64_t total_appended) {
  if (!checkpoints_.empty() || total_appended_ != 0) {
    throw std::logic_error("CheckpointStore::restore on non-empty store");
  }
  checkpoints_ = std::move(checkpoints);
  for (const auto& c : checkpoints_) {
    byte_sizes_.push_back(c.byte_size());
    stable_bytes_ += byte_sizes_.back();
  }
  total_appended_ = total_appended;
}

}  // namespace optrec
