#include "src/storage/stable_storage.h"

#include <map>
#include <stdexcept>
#include <utility>

#include "src/storage/stable_sink.h"

namespace optrec {

void StableStorage::log_token(const Token& token) {
  if (sink_ != nullptr) sink_->token_append(token);
  tokens_.push_back(token);
}

std::size_t StableStorage::compact_token_log() {
  if (tokens_.size() < 2) return 0;
  // Keep only the last token per (from, failed version), preserving order.
  std::vector<bool> keep(tokens_.size(), true);
  std::map<std::pair<ProcessId, Version>, std::size_t> last;
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    const auto key = std::make_pair(tokens_[i].from, tokens_[i].failed.ver);
    const auto it = last.find(key);
    if (it != last.end()) keep[it->second] = false;
    last[key] = i;
  }
  std::vector<Token> compacted;
  compacted.reserve(last.size());
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (keep[i]) compacted.push_back(std::move(tokens_[i]));
  }
  const std::size_t removed = tokens_.size() - compacted.size();
  tokens_ = std::move(compacted);
  return removed;
}

std::size_t StableStorage::stable_bytes() const {
  std::size_t total = checkpoints_.stable_bytes() + log_.stable_bytes();
  for (const auto& t : tokens_) total += t.wire_size();
  return total;
}

void StableStorage::attach_sink(StableSink* sink) {
  if (sink_ != nullptr) sink_->source_ = nullptr;
  sink_ = sink;
  if (sink_ != nullptr) sink_->source_ = this;
  checkpoints_.attach_sink(sink);
  log_.attach_sink(sink);
}

void StableStorage::restore_tokens(std::vector<Token> tokens) {
  if (!tokens_.empty()) {
    throw std::logic_error("StableStorage::restore_tokens on non-empty log");
  }
  tokens_ = std::move(tokens);
}

}  // namespace optrec
