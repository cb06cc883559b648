// Counter groups, each declared once.
//
// A counter group is a plain struct of std::uint64_t counters plus a static
// kFields table with one row per counter: its --metrics-json key, its
// member, and the /metrics family it exports as. Everything that copies,
// sums, encodes or exports a group iterates that table, so the two exports
// cannot drift apart and a new counter is one member plus one row.
// AtomicCounters<S> stores a group whose counts are bumped concurrently:
// one atomic per row, the row resolved at compile time, so a count stays a
// single relaxed atomic op. The /metrics side lives in
// src/telemetry/wiring.h (export_counters).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/util/json.h"

namespace optrec {

/// How a row exports, and how totals over processes or nodes combine.
enum class CounterKind : std::uint8_t {
  kCounter,   // monotonic; totals add
  kGauge,     // level; totals add
  kMaxGauge,  // level; totals keep the largest
};

template <typename S>
struct CounterField {
  const char* key;  // --metrics-json key
  std::uint64_t S::*member;
  const char* family = nullptr;  // /metrics family; null = JSON only
  const char* help = "";         // /metrics HELP text ("" = none)
  CounterKind kind = CounterKind::kCounter;
};

/// into += from, row by row (kMaxGauge rows keep the larger value).
template <typename S>
void add_counters(S& into, const S& from) {
  for (const auto& f : S::kFields) {
    std::uint64_t& v = into.*f.member;
    v = f.kind == CounterKind::kMaxGauge ? std::max(v, from.*f.member)
                                         : v + from.*f.member;
  }
}

/// One key/value pair per row, into the object `w` has open.
template <typename S>
void write_counters(JsonWriter& w, const S& s) {
  for (const auto& f : S::kFields) w.kv(f.key, s.*f.member);
}

/// "label     key=value key=value ..." for every row, wrapped at 80
/// columns (human-readable run summaries).
template <typename S>
void print_counters(const char* label, const S& s) {
  std::string line = label;
  line.resize(10, ' ');
  for (const auto& f : S::kFields) {
    const std::string item =
        std::string(f.key) + "=" + std::to_string(s.*f.member);
    if (line.size() > 10 && line.size() + 1 + item.size() > 80) {
      std::printf("%s\n", line.c_str());
      line.assign(10, ' ');
    }
    if (line.size() > 10) line += ' ';
    line += item;
  }
  std::printf("%s\n", line.c_str());
}

template <typename S>
class AtomicCounters {
 public:
  using Member = std::uint64_t S::*;

  /// The atomic behind row `M`.
  template <Member M>
  std::atomic<std::uint64_t>& at() {
    return v_[index<M>()];
  }
  template <Member M>
  const std::atomic<std::uint64_t>& at() const {
    return v_[index<M>()];
  }
  /// One relaxed add on row `M`.
  template <Member M>
  void add(std::uint64_t by = 1) {
    at<M>().fetch_add(by, std::memory_order_relaxed);
  }
  /// One relaxed store on row `M` (mirrors of a value kept elsewhere).
  template <Member M>
  void set(std::uint64_t v) {
    at<M>().store(v, std::memory_order_relaxed);
  }
  /// Relaxed snapshot of every row.
  S load() const {
    S s;
    for (std::size_t i = 0; i < v_.size(); ++i) {
      s.*S::kFields[i].member = v_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  template <Member M>
  static constexpr std::size_t index() {
    constexpr std::size_t i = [] {
      std::size_t k = 0;
      while (k < S::kFields.size() && S::kFields[k].member != M) ++k;
      return k;
    }();
    static_assert(i < S::kFields.size(), "member has no kFields row");
    return i;
  }

  std::array<std::atomic<std::uint64_t>, S::kFields.size()> v_{};
};

}  // namespace optrec
