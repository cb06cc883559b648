#include "src/durable/wal.h"

#include <algorithm>
#include <cstring>

#include "src/durable/crc32.h"
#include "src/storage/message_log.h"
#include "src/util/serialization.h"

namespace optrec {
namespace {

void put_u32le(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Append one `[len][crc][type][body]` record to `out`.
void frame_into(Bytes& out, WalRecordType type, const Bytes& body) {
  const auto len = static_cast<std::uint32_t>(body.size() + 1);
  put_u32le(out, len);
  Bytes typed;
  typed.reserve(body.size() + 1);
  typed.push_back(static_cast<std::uint8_t>(type));
  typed.insert(typed.end(), body.begin(), body.end());
  put_u32le(out, crc32(typed));
  out.insert(out.end(), typed.begin(), typed.end());
}

}  // namespace

WalWriter::WalWriter(DurableFs& fs, std::string path, WalAblations ablations)
    : path_(std::move(path)), ablations_(ablations) {
  const bool fresh = !fs.exists(path_);
  file_ = fs.open_append(path_);
  if (fresh || file_->size() == 0) {
    Bytes magic(kWalMagic, kWalMagic + kWalMagicBytes);
    file_->append(magic);
    file_->sync();
    ++stats_.fsyncs;
    stats_.bytes_written += magic.size();
  }
  committed_ = file_->size();
}

void WalWriter::append_message(std::uint64_t index, const Message& msg) {
  Writer w;
  w.put_u64(index);
  msg.encode(w);
  frame_into(buffer_, WalRecordType::kMessage, w.buffer());
  ++buffered_records_;
}

std::size_t WalWriter::commit() {
  if (buffer_.empty()) return 0;
  const std::size_t records = buffered_records_;
  file_->append(buffer_);
  file_->sync();
  committed_ = file_->size();
  stats_.bytes_written += buffer_.size();
  stats_.records_written += records;
  ++stats_.fsyncs;
  ++stats_.message_commits;
  buffer_.clear();
  buffered_records_ = 0;
  return records;
}

void WalWriter::sync_commit(WalRecordType type, const Bytes& body) {
  // The sync record rides the same write as any buffered messages: WAL
  // ordering hardens them for free.
  const std::size_t records = buffered_records_ + 1;
  frame_into(buffer_, type, body);
  file_->append(buffer_);
  file_->sync();
  committed_ = file_->size();
  stats_.bytes_written += buffer_.size();
  stats_.records_written += records;
  ++stats_.fsyncs;
  buffer_.clear();
  buffered_records_ = 0;
}

void WalWriter::append_token(const Token& token) {
  Writer w;
  token.encode(w);
  if (ablations_.async_tokens) {
    // Deliberately broken: the token sits in the buffer like a message,
    // violating the paper's synchronous-token requirement. The durability
    // fuzzer must catch this.
    frame_into(buffer_, WalRecordType::kToken, w.buffer());
    ++buffered_records_;
    return;
  }
  ++stats_.token_commits;
  sync_commit(WalRecordType::kToken, w.buffer());
}

void WalWriter::append_truncate(std::uint64_t from) {
  Writer w;
  w.put_u64(from);
  sync_commit(WalRecordType::kTruncate, w.buffer());
}

void WalWriter::append_reclaim(std::uint64_t new_base) {
  Writer w;
  w.put_u64(new_base);
  sync_commit(WalRecordType::kReclaim, w.buffer());
}

void WalWriter::drop_buffered() {
  buffer_.clear();
  buffered_records_ = 0;
}

WalReplay replay_wal(const Bytes& raw, std::uint64_t committed_floor,
                     const WalAblations& ablations) {
  WalReplay out;
  if (raw.size() < kWalMagicBytes ||
      std::memcmp(raw.data(), kWalMagic, kWalMagicBytes) != 0) {
    if (committed_floor > 0) {
      out.corrupt = true;
      out.corrupt_reason = "bad WAL magic";
    } else {
      // Death before the header sync completed: an empty log.
      out.torn_bytes = raw.size();
    }
    return out;
  }

  std::uint64_t off = kWalMagicBytes;
  auto fail = [&](const std::string& why) {
    if (off < committed_floor) {
      out.corrupt = true;
      out.corrupt_reason = why + " at offset " + std::to_string(off) +
                           " below committed floor " +
                           std::to_string(committed_floor);
    } else {
      out.torn_bytes = raw.size() - off;
    }
  };

  while (off < raw.size()) {
    if (raw.size() - off < 9) {
      fail("truncated record header");
      break;
    }
    const std::uint32_t len = get_u32le(raw.data() + off);
    const std::uint32_t crc = get_u32le(raw.data() + off + 4);
    if (len == 0 || len > kMaxWalRecordBytes || raw.size() - off - 8 < len) {
      fail(len == 0 || len > kMaxWalRecordBytes ? "implausible record length"
                                                : "truncated record");
      break;
    }
    const std::uint8_t* typed = raw.data() + off + 8;
    if (!ablations.skip_crc && crc32(typed, len) != crc) {
      fail("record CRC mismatch");
      break;
    }
    const auto type = static_cast<WalRecordType>(typed[0]);
    Bytes body(typed + 1, typed + len);
    try {
      Reader r(body);
      switch (type) {
        case WalRecordType::kMessage: {
          const std::uint64_t index = r.get_u64();
          Message msg = Message::decode(r);
          const std::uint64_t expect = out.base + out.entries.size();
          if (index != expect) {
            out.corrupt = true;
            out.corrupt_reason = "non-contiguous log index " +
                                 std::to_string(index) + " (expected " +
                                 std::to_string(expect) + ")";
          } else {
            out.entries.push_back(std::move(msg));
          }
          break;
        }
        case WalRecordType::kToken:
          out.tokens.push_back(Token::decode(r));
          break;
        case WalRecordType::kTruncate: {
          std::uint64_t from = r.get_u64();
          if (from < out.base) from = out.base;
          const std::uint64_t total = out.base + out.entries.size();
          if (from < total) {
            out.entries.resize(
                out.entries.size() - static_cast<std::size_t>(total - from));
          }
          break;
        }
        case WalRecordType::kReclaim: {
          const std::uint64_t new_base = r.get_u64();
          if (new_base > out.base) {
            const std::uint64_t total = out.base + out.entries.size();
            const auto drop = static_cast<std::ptrdiff_t>(
                std::min(new_base, total) - out.base);
            out.entries.erase(out.entries.begin(), out.entries.begin() + drop);
            out.base = new_base;
          }
          break;
        }
        default:
          out.corrupt = true;
          out.corrupt_reason =
              "unknown record type " + std::to_string(typed[0]);
          break;
      }
      if (!r.at_end() && !out.corrupt) {
        out.corrupt = true;
        out.corrupt_reason = "trailing bytes inside record body";
      }
    } catch (const DecodeError& e) {
      // The CRC passed (or was skipped) but the body does not decode:
      // either we wrote garbage or the CRC check was ablated away. Stable
      // bytes cannot be trusted.
      out.corrupt = true;
      out.corrupt_reason = std::string("record body decode error: ") + e.what();
    }
    if (out.corrupt) break;
    off += 8 + len;
  }
  out.valid_bytes = out.corrupt ? 0 : off;
  return out;
}

Bytes encode_wal_image(const MessageLog& log,
                       const std::vector<Token>& tokens) {
  Bytes out(kWalMagic, kWalMagic + kWalMagicBytes);
  if (log.base() != 0) {
    Writer w;
    w.put_u64(log.base());
    frame_into(out, WalRecordType::kReclaim, w.buffer());
  }
  for (std::uint64_t i = log.base(); i < log.total_count(); ++i) {
    Writer w;
    w.put_u64(i);
    log.entry(i).encode(w);
    frame_into(out, WalRecordType::kMessage, w.buffer());
  }
  for (const auto& token : tokens) {
    Writer w;
    token.encode(w);
    frame_into(out, WalRecordType::kToken, w.buffer());
  }
  return out;
}

}  // namespace optrec
