#include "src/storage/message_log.h"

#include <stdexcept>

#include "src/storage/stable_sink.h"

namespace optrec {

void MessageLog::append(Message msg) {
  if (sink_ != nullptr) sink_->log_append(total_count(), msg);
  entries_.push_back(std::move(msg));
}

void MessageLog::flush() {
  const std::uint64_t total = total_count();
  if (stable_ == total) return;
  for (std::uint64_t i = stable_; i < total; ++i) {
    stable_bytes_ += entry(i).wire_size();
  }
  stable_ = total;
  ++flushes_;
  if (sink_ != nullptr) sink_->log_flush(total);
}

std::size_t MessageLog::on_crash() {
  const std::uint64_t total = total_count();
  const auto lost = static_cast<std::size_t>(total - stable_);
  entries_.erase(entries_.end() - static_cast<std::ptrdiff_t>(lost),
                 entries_.end());
  if (sink_ != nullptr) sink_->log_crash_wipe(stable_);
  return lost;
}

const Message& MessageLog::entry(std::uint64_t index) const {
  if (index < base_ || index >= total_count()) {
    throw std::out_of_range("MessageLog::entry index");
  }
  return entries_[static_cast<std::size_t>(index - base_)];
}

std::vector<Message> MessageLog::suffix_from(std::uint64_t from) const {
  std::vector<Message> out;
  if (from < base_) from = base_;
  for (std::uint64_t i = from; i < total_count(); ++i) {
    out.push_back(entry(i));
  }
  return out;
}

void MessageLog::truncate_from(std::uint64_t from) {
  if (from < base_) from = base_;
  const std::uint64_t total = total_count();
  if (from >= total) return;
  for (std::uint64_t i = from; i < stable_; ++i) {
    stable_bytes_ -= entry(i).wire_size();
  }
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(from - base_),
                 entries_.end());
  if (stable_ > from) stable_ = from;
  if (sink_ != nullptr) sink_->log_truncate(from);
}

std::size_t MessageLog::reclaim_before(std::uint64_t before) {
  std::size_t reclaimed = 0;
  // Only the stable prefix may be reclaimed, and never past the total.
  while (base_ < before && base_ < stable_ && !entries_.empty()) {
    stable_bytes_ -= entries_.front().wire_size();
    entries_.pop_front();
    ++base_;
    ++reclaimed;
  }
  if (reclaimed > 0 && sink_ != nullptr) sink_->log_reclaim(base_);
  return reclaimed;
}

void MessageLog::restore(std::vector<Message> entries, std::uint64_t base) {
  if (!entries_.empty() || base_ != 0) {
    throw std::logic_error("MessageLog::restore on non-empty log");
  }
  base_ = base;
  for (auto& m : entries) {
    stable_bytes_ += m.wire_size();
    entries_.push_back(std::move(m));
  }
  stable_ = base_ + entries_.size();
}

}  // namespace optrec
