#include "src/core/output_commit.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/storage/stable_storage.h"
#include "src/util/serialization.h"

namespace optrec {

StabilityTracker::StabilityTracker(std::size_t n) : n_(n) {
  for (ProcessId pid = 0; pid < n; ++pid) {
    stable_[{pid, 0}] = 0;
  }
}

void StabilityTracker::note_stable(ProcessId pid, Version ver, Timestamp ts) {
  auto [it, inserted] = stable_.try_emplace({pid, ver}, ts);
  if (!inserted) it->second = std::max(it->second, ts);
}

std::optional<Timestamp> StabilityTracker::stable_ts(ProcessId pid,
                                                     Version ver) const {
  auto it = stable_.find({pid, ver});
  if (it == stable_.end()) return std::nullopt;
  return it->second;
}

bool StabilityTracker::covers(ProcessId pid, const FtvcEntry& e) const {
  const auto ts = stable_ts(pid, e.ver);
  return ts && *ts >= e.ts;
}

bool StabilityTracker::covers(const Ftvc& clock) const {
  for (ProcessId j = 0; j < clock.size(); ++j) {
    if (!covers(j, clock.entry(j))) return false;
  }
  return true;
}

Bytes StabilityTracker::encode() const {
  Writer w;
  w.put_u32(static_cast<std::uint32_t>(stable_.size()));
  for (const auto& [key, ts] : stable_) {
    w.put_u32(key.first);
    w.put_u32(key.second);
    w.put_u64(ts);
  }
  return w.take();
}

bool StabilityTracker::merge_encoded(const Bytes& gossip) {
  std::vector<std::tuple<ProcessId, Version, Timestamp>> entries;
  try {
    Reader r(gossip);
    const std::uint32_t count = r.get_u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const ProcessId pid = r.get_u32();
      const Version ver = r.get_u32();
      const Timestamp ts = r.get_u64();
      if (pid >= n_) return false;
      entries.emplace_back(pid, ver, ts);
    }
    if (!r.at_end()) return false;
  } catch (const DecodeError&) {
    return false;
  }
  for (const auto& [pid, ver, ts] : entries) note_stable(pid, ver, ts);
  return true;
}

void StabilityTracker::merge(const StabilityTracker& other) {
  for (const auto& [key, ts] : other.stable_) {
    note_stable(key.first, key.second, ts);
  }
}

GcResult collect_garbage(StableStorage& storage,
                         const StabilityTracker& tracker) {
  GcResult result;
  const std::size_t before_bytes = storage.stable_bytes();
  auto& checkpoints = storage.checkpoints();

  if (!checkpoints.empty()) {
    const auto frontier = checkpoints.latest_matching(
        [&](const Checkpoint& c) { return tracker.covers(c.clock); });
    if (frontier) {
      if (*frontier > 0) {
        result.checkpoints_reclaimed = checkpoints.reclaim_before_delivered(
            checkpoints.at(*frontier).delivered_count);
      }
      // Log entries before the oldest surviving checkpoint's replay cursor
      // can never be replayed again.
      result.log_entries_reclaimed =
          storage.log().reclaim_before(checkpoints.at(0).delivered_count);
    }
  }

  const std::size_t after_bytes = storage.stable_bytes();
  result.reclaimed_bytes =
      before_bytes > after_bytes ? before_bytes - after_bytes : 0;
  result.held_intervals = static_cast<std::size_t>(
      storage.log().total_count() - storage.log().base());
  return result;
}

}  // namespace optrec
