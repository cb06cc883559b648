// Channel data-plane microbench: the lock-free ring/heap LiveChannel
// against an in-bench mirror of the old mutex+condvar channel, under
// 1/4/16 producers and due-only vs delayed-mix traffic.
//
// Each run moves a fixed frame count through one channel end to end and
// reports wall-clock throughput plus dequeue lag percentiles (pop instant
// minus the frame's not_before — how long an eligible frame waited for the
// consumer). The mutex baseline is the pre-refactor implementation almost
// line for line: vector under a mutex, O(n) reservoir scan per pop,
// condvar broadcast wakeups. The contrast it exists to show: that scan is
// quadratic in backlog, so it collapses under producer contention while
// the ring/heap channel stays flat.
//
// Emits BENCH_channel.json (override with --out=FILE) for CI artifact
// upload; prints a human-readable table. Exits non-zero if any run loses a
// frame or times out, so CI smoke-runs it as a correctness check too.
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "src/harness/table_printer.h"
#include "src/live/live_channel.h"
#include "src/live/live_clock.h"
#include "src/util/json.h"
#include "src/util/rng.h"

using namespace optrec;

namespace {

/// The pre-refactor LiveChannel, kept verbatim as the bench baseline:
/// mutex-guarded vector, reservoir scan over ALL frames per pop, condvar
/// wakeups. Same non-FIFO pick and control-priority semantics.
class MutexChannel {
 public:
  void push(LiveFrame frame) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      frames_.push_back(std::move(frame));
    }
    cv_.notify_one();
  }

  std::optional<LiveFrame> pop_ready(const LiveClock& clock,
                                     SimTime wait_until, Rng& rng) {
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      const SimTime now = clock.now();
      std::size_t pick = kNone;
      std::size_t ready = 0;
      SimTime next_due = kSimTimeMax;
      for (std::size_t i = 0; i < frames_.size(); ++i) {
        const LiveFrame& f = frames_[i];
        if (f.not_before > now) {
          next_due = std::min(next_due, f.not_before);
          continue;
        }
        if (f.kind != LiveFrame::Kind::kWire) {
          pick = i;
          break;
        }
        ++ready;
        if (rng.uniform(ready) == 0) pick = i;
      }
      if (pick != kNone) {
        LiveFrame out = std::move(frames_[pick]);
        frames_[pick] = std::move(frames_.back());
        frames_.pop_back();
        return out;
      }
      if (now >= wait_until) return std::nullopt;
      cv_.wait_until(lock,
                     clock.to_time_point(std::min(wait_until, next_due)));
    }
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<LiveFrame> frames_;
};

struct Run {
  const char* impl = "";
  const char* mix = "";
  int producers = 0;
  std::size_t frames = 0;
  bool ok = false;
  SimTime wall_us = 0;
  double msgs_per_sec = 0;
  bench::LatencySummary lag;
  std::size_t ring_high_water = 0;   // ring impl only
  std::uint64_t ring_overflows = 0;  // ring impl only
};

LiveFrame make_frame(ProcessId src, SimTime not_before, SimTime sent_at) {
  LiveFrame f;
  f.kind = LiveFrame::Kind::kWire;
  f.src = src;
  f.wire = std::make_shared<const Bytes>(
      Bytes{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08});
  f.not_before = not_before;
  f.sent_at = sent_at;
  return f;
}

/// Drive `total` frames through `channel` with `producers` pushers.
/// `max_delay_us` == 0 is the due-only mix; otherwise ~half the frames park
/// in the delay path for up to that long.
template <typename Channel>
Run drive(Channel& channel, const char* impl, int producers,
          std::size_t total, SimTime max_delay_us) {
  Run run;
  run.impl = impl;
  run.mix = max_delay_us == 0 ? "due_only" : "delayed_mix";
  run.producers = producers;
  run.frames = total;

  LiveClock clock;
  Rng pop_rng(17);
  const std::size_t per_producer = total / static_cast<std::size_t>(producers);
  telemetry::FixedHistogram lag_us;

  const SimTime started = clock.now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&channel, &clock, p, per_producer, max_delay_us] {
      Rng rng(static_cast<std::uint64_t>(p) * 31 + 7);
      for (std::size_t i = 0; i < per_producer; ++i) {
        const SimTime now = clock.now();
        const SimTime delay = (max_delay_us == 0 || rng.chance(0.5))
                                  ? 0
                                  : rng.uniform(max_delay_us);
        channel.push(make_frame(static_cast<ProcessId>(p), now + delay, now));
      }
    });
  }

  const std::size_t want = per_producer * static_cast<std::size_t>(producers);
  std::size_t popped = 0;
  bool lost = false;
  while (popped < want) {
    auto f = channel.pop_ready(clock, clock.now() + millis(2000), pop_rng);
    if (!f) {
      lost = true;  // a frame never became poppable: report and fail
      break;
    }
    lag_us.observe(static_cast<double>(clock.now() - f->not_before));
    ++popped;
  }
  for (auto& t : threads) t.join();

  run.ok = !lost && popped == want;
  run.wall_us = clock.now() - started;
  const double wall_s = static_cast<double>(run.wall_us) / 1e6;
  run.msgs_per_sec =
      wall_s > 0 ? static_cast<double>(popped) / wall_s : 0.0;
  run.lag = bench::LatencySummary::of(lag_us);
  if constexpr (std::is_same_v<Channel, LiveChannel>) {
    run.ring_high_water = channel.ring_high_water();
    run.ring_overflows = channel.ring_overflows();
  }
  return run;
}

std::string fmt(double v, int prec = 0) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_file = "BENCH_channel.json";
  // Default sized so the quadratic mutex baseline finishes in ~10s per
  // run; the ring side is indifferent (it does this in well under 100ms).
  std::size_t frames = 48000;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_file = arg + 6;
    } else if (std::strncmp(arg, "--frames=", 9) == 0) {
      frames = std::strtoull(arg + 9, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "bench_channel: unknown flag '%s' (--out= --frames=)\n",
                   arg);
      return 2;
    }
  }

  std::printf("bench_channel: %zu frames per run, producers 1/4/16, "
              "due-only and delayed-mix\n\n",
              frames);

  const int kProducerCounts[] = {1, 4, 16};
  // Delayed runs park ~half the frames for up to 1 ms: long enough to
  // exercise the delay heap and its sleep deadline, short enough that the
  // run is dominated by queueing, not sleeping.
  const SimTime kMaxDelay = 1000;

  std::vector<Run> runs;
  for (int producers : kProducerCounts) {
    for (SimTime delay : {SimTime(0), kMaxDelay}) {
      {
        MutexChannel ch;
        runs.push_back(drive(ch, "mutex_condvar", producers, frames, delay));
      }
      {
        LiveChannel ch;
        runs.push_back(drive(ch, "ring_heap", producers, frames, delay));
      }
    }
  }

  TablePrinter table({"impl", "mix", "producers", "msgs/s", "lag p50 us",
                      "lag p90 us", "lag p99 us", "ring hw", "spills", "ok"});
  for (const Run& r : runs) {
    table.add_row({r.impl, r.mix, std::to_string(r.producers),
                   fmt(r.msgs_per_sec), fmt(r.lag.p50), fmt(r.lag.p90),
                   fmt(r.lag.p99), std::to_string(r.ring_high_water),
                   std::to_string(r.ring_overflows), r.ok ? "yes" : "NO"});
  }
  table.print(std::cout);

  std::ofstream os(out_file, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "bench_channel: cannot open '%s'\n",
                 out_file.c_str());
    return 2;
  }
  JsonWriter w(os);
  w.begin_object();
  bench::write_bench_preamble(w, "channel");
  w.key("config").begin_object();
  w.kv("frames_per_run", std::uint64_t{frames});
  w.kv("max_delay_us", std::uint64_t{kMaxDelay});
  w.end_object();
  w.key("results").begin_array();
  for (const Run& r : runs) {
    w.begin_object();
    w.kv("impl", r.impl);
    w.kv("mix", r.mix);
    w.kv("producers", std::uint64_t(r.producers));
    w.kv("frames", std::uint64_t{r.frames});
    w.kv("ok", r.ok);
    w.kv("wall_time_us", r.wall_us);
    w.kv("msgs_per_sec", r.msgs_per_sec);
    bench::write_latency_fields(w, "dequeue_lag", r.lag);
    w.kv("ring_high_water", std::uint64_t{r.ring_high_water});
    w.kv("ring_overflows", r.ring_overflows);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  os.flush();
  std::printf("\nwrote %s\n", out_file.c_str());

  for (const Run& r : runs) {
    if (!r.ok) {
      std::fprintf(stderr, "FAIL: %s/%s producers=%d lost frames\n", r.impl,
                   r.mix, r.producers);
      return 1;
    }
  }
  return 0;
}
