#include "src/live/live_channel.h"

#include <algorithm>

namespace optrec {

namespace {

// Heap order for std::push_heap/pop_heap: the earliest not_before on top.
bool later(const LiveFrame& a, const LiveFrame& b) {
  return a.not_before > b.not_before;
}

}  // namespace

void LiveChannel::push(LiveFrame frame) {
  size_.fetch_add(1, std::memory_order_acq_rel);
  ring_.push(std::move(frame));
  bell_.ring();
}

void LiveChannel::route_due(LiveFrame frame) {
  if (frame.kind != LiveFrame::Kind::kWire) {
    due_ctrl_.push_back(std::move(frame));
  } else {
    due_wire_.push_back(std::move(frame));
  }
}

void LiveChannel::intake(SimTime now) {
  LiveFrame f;
  while (ring_.try_pop(f)) {
    if (f.not_before > now) {
      delayed_.push_back(std::move(f));
      std::push_heap(delayed_.begin(), delayed_.end(), later);
    } else {
      route_due(std::move(f));
    }
  }
  while (!delayed_.empty() && delayed_.front().not_before <= now) {
    std::pop_heap(delayed_.begin(), delayed_.end(), later);
    route_due(std::move(delayed_.back()));
    delayed_.pop_back();
  }
}

std::optional<LiveFrame> LiveChannel::pop_ready(const LiveClock& clock,
                                                SimTime wait_until, Rng& rng) {
  for (;;) {
    // Epoch snapshot BEFORE draining: a push that lands after the drain but
    // before the sleep moves the epoch and wait_until returns immediately.
    const std::uint64_t seen = bell_.epoch();
    const SimTime now = clock.now();
    intake(now);
    if (!due_ctrl_.empty()) {
      // Control frames preempt any wire backlog. Oldest injection first.
      LiveFrame out = std::move(due_ctrl_.front());
      due_ctrl_.erase(due_ctrl_.begin());
      size_.fetch_sub(1, std::memory_order_acq_rel);
      return out;
    }
    if (!due_wire_.empty()) {
      // Uniform-random pick keeps delivery order random (the paper's
      // no-ordering assumption), same distribution as the old reservoir
      // scan: every due wire frame is equally likely.
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform(static_cast<std::uint64_t>(due_wire_.size())));
      LiveFrame out = std::move(due_wire_[pick]);
      due_wire_[pick] = std::move(due_wire_.back());
      due_wire_.pop_back();
      size_.fetch_sub(1, std::memory_order_acq_rel);
      return out;
    }
    if (now >= wait_until) return std::nullopt;
    const SimTime sleep_to =
        delayed_.empty() ? wait_until
                         : std::min(wait_until, delayed_.front().not_before);
    bell_.wait_until(seen, clock.to_time_point(sleep_to));
  }
}

}  // namespace optrec
