#include "src/storage/stable_storage.h"

#include <stdexcept>
#include <utility>

#include "src/storage/stable_sink.h"

namespace optrec {

void StableStorage::log_token(const Token& token) {
  if (sink_ != nullptr) sink_->token_append(token);
  tokens_.push_back(token);
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
