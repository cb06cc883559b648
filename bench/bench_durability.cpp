// Durable-storage bench: the cost of making stability real.
//
// Three experiments against the file-backed WAL + snapshot store
// (src/durable/) on a real filesystem:
//
//   1. Group-commit window vs commit latency — Section 6.3's asynchronous
//      message logging amortizes one fsync over a window of appends; we
//      sweep the window and report per-commit latency percentiles and
//      fsyncs per message. Synchronous token commits ride the same path
//      with a window of one; their latency is reported alongside.
//   2. WAL replay throughput — decode + CRC-check rate over a large log,
//      the CPU-bound half of recovery.
//   3. Recovery time vs log length — full recover_into() (manifest read,
//      checkpoint load, WAL replay, compaction, manifest rewrite) against
//      on-disk stores of increasing log length.
//
// Emits BENCH_durability.json (override with --out=FILE); prints
// human-readable tables. Exits non-zero if any recovery fails to come back
// warm, so CI catches durability regressions.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "src/durable/durable_storage.h"
#include "src/durable/mem_fs.h"
#include "src/harness/table_printer.h"
#include "src/storage/stable_storage.h"
#include "src/telemetry/histogram.h"
#include "src/util/json.h"

using namespace optrec;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_us(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

Message make_msg(std::uint64_t seq) {
  Message m;
  m.kind = MessageKind::kApp;
  m.src = 1;
  m.dst = 0;
  m.send_seq = seq;
  m.clock = Ftvc(1, 4);
  m.payload.assign(64, static_cast<std::uint8_t>(seq));
  return m;
}

Token make_tok(std::uint64_t ts) {
  Token t;
  t.from = 2;
  t.failed.ver = 1;
  t.failed.ts = ts;
  t.origin_pid = 2;
  t.origin_ver = 1;
  return t;
}

Checkpoint make_ckpt(std::uint64_t delivered) {
  Checkpoint c;
  c.version = 1;
  c.delivered_count = delivered;
  c.send_seq = delivered;
  c.clock = Ftvc(1, 4);
  c.app_state.assign(128, 0x5a);
  return c;
}

/// Scratch directory on the real filesystem, wiped on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "optrec-bench-XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      std::perror("bench_durability: mkdtemp");
      std::exit(2);
    }
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// ---- 1. group-commit window sweep -----------------------------------------

struct CommitRow {
  std::uint64_t window = 0;  // 0 = synchronous token commits
  std::uint64_t messages = 0;
  std::uint64_t commits = 0;
  double fsyncs_per_msg = 0;
  bench::LatencySummary latency;
  double wal_bytes_per_msg = 0;
};

CommitRow run_group_commit(std::uint64_t window, std::uint64_t messages) {
  TempDir tmp;
  DurableOptions opts;
  opts.dir = tmp.path + "/store";
  DurableBackend backend(opts);
  backend.start_fresh();
  StableStorage storage;
  storage.attach_sink(&backend);

  telemetry::FixedHistogram commit_us;
  std::uint64_t appended = 0;
  while (appended < messages) {
    for (std::uint64_t i = 0; i < window && appended < messages; ++i) {
      storage.log().append(make_msg(appended++));
    }
    const auto start = Clock::now();
    storage.log().flush();  // one group commit: one append + one fsync
    commit_us.observe(static_cast<double>(elapsed_us(start)));
  }

  const DurableStats stats = backend.stats();
  CommitRow row;
  row.window = window;
  row.messages = messages;
  row.commits = commit_us.count();
  row.fsyncs_per_msg =
      static_cast<double>(stats.fsync_total) / static_cast<double>(messages);
  row.latency = bench::LatencySummary::of(commit_us);
  row.wal_bytes_per_msg = static_cast<double>(stats.wal_bytes_written) /
                          static_cast<double>(messages);
  return row;
}

CommitRow run_token_commit(std::uint64_t tokens) {
  TempDir tmp;
  DurableOptions opts;
  opts.dir = tmp.path + "/store";
  DurableBackend backend(opts);
  backend.start_fresh();
  StableStorage storage;
  storage.attach_sink(&backend);

  telemetry::FixedHistogram commit_us;
  for (std::uint64_t i = 0; i < tokens; ++i) {
    const auto start = Clock::now();
    storage.log_token(make_tok(i));  // synchronous by construction (§6.3)
    commit_us.observe(static_cast<double>(elapsed_us(start)));
  }

  const DurableStats stats = backend.stats();
  CommitRow row;
  row.window = 0;
  row.messages = tokens;
  row.commits = commit_us.count();
  row.fsyncs_per_msg =
      static_cast<double>(stats.fsync_total) / static_cast<double>(tokens);
  row.latency = bench::LatencySummary::of(commit_us);
  row.wal_bytes_per_msg = static_cast<double>(stats.wal_bytes_written) /
                          static_cast<double>(tokens);
  return row;
}

// ---- 2. WAL replay throughput ---------------------------------------------

struct ReplayRow {
  std::uint64_t messages = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t replay_us = 0;
  double msgs_per_sec = 0;
  double mb_per_sec = 0;
};

ReplayRow run_replay(std::uint64_t messages) {
  // Build the log in the in-memory fs: this experiment isolates the decode
  // + CRC-check rate, not disk read bandwidth.
  MemFs fs;
  fs.mkdirs("store");
  WalWriter wal(fs, "store/wal-0.log");
  constexpr std::uint64_t kBatch = 64;
  for (std::uint64_t i = 0; i < messages; ++i) {
    wal.append_message(i, make_msg(i));
    if ((i + 1) % kBatch == 0) wal.commit();
  }
  wal.commit();
  wal.append_token(make_tok(1));
  const Bytes raw = fs.read_file("store/wal-0.log").value();

  const auto start = Clock::now();
  const WalReplay replay = replay_wal(raw, wal.committed_offset());
  const std::uint64_t us = elapsed_us(start);
  if (replay.corrupt || replay.entries.size() != messages) {
    std::fprintf(stderr, "bench_durability: replay mismatch (%s)\n",
                 replay.corrupt_reason.c_str());
    std::exit(1);
  }

  ReplayRow row;
  row.messages = messages;
  row.wal_bytes = raw.size();
  row.replay_us = us;
  const double secs = static_cast<double>(us) / 1e6;
  row.msgs_per_sec = secs > 0 ? static_cast<double>(messages) / secs : 0;
  row.mb_per_sec =
      secs > 0 ? static_cast<double>(raw.size()) / (1 << 20) / secs : 0;
  return row;
}

// ---- 3. recovery time vs log length ---------------------------------------

struct RecoveryRow {
  std::uint64_t log_len = 0;
  std::uint64_t disk_bytes = 0;
  bool warm = false;
  std::uint64_t replayed = 0;
  std::uint64_t recovery_us = 0;
};

RecoveryRow run_recovery(std::uint64_t log_len) {
  TempDir tmp;
  const std::string dir = tmp.path + "/store";
  {
    DurableOptions opts;
    opts.dir = dir;
    DurableBackend backend(opts);
    backend.start_fresh();
    StableStorage storage;
    storage.attach_sink(&backend);
    storage.checkpoints().append(make_ckpt(0));
    for (std::uint64_t i = 0; i < log_len; ++i) {
      storage.log().append(make_msg(i));
      if ((i + 1) % 64 == 0) storage.log().flush();
    }
    storage.log().flush();
    storage.log_token(make_tok(1));
    // The process is SIGKILLed here: no orderly shutdown, the next
    // incarnation sees whatever the store committed.
  }

  DurableOptions opts;
  opts.dir = dir;
  DurableBackend backend(opts);
  StableStorage restored;
  const auto start = Clock::now();
  const RecoveryResult result = backend.recover_into(restored);
  const std::uint64_t us = elapsed_us(start);

  RecoveryRow row;
  row.log_len = log_len;
  row.disk_bytes = backend.stats().disk_stable_bytes;
  row.warm = result.warm && !result.corrupt &&
             restored.log().total_count() == log_len;
  row.replayed = result.replayed_messages;
  row.recovery_us = us;
  return row;
}

std::string fmt(double v, int prec = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_file = "BENCH_durability.json";
  std::uint64_t messages = 4096;
  std::uint64_t tokens = 512;
  std::uint64_t replay_messages = 50000;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_file = arg + 6;
    } else if (std::strncmp(arg, "--messages=", 11) == 0) {
      messages = std::strtoull(arg + 11, nullptr, 10);
    } else if (std::strncmp(arg, "--tokens=", 9) == 0) {
      tokens = std::strtoull(arg + 9, nullptr, 10);
    } else if (std::strncmp(arg, "--replay=", 9) == 0) {
      replay_messages = std::strtoull(arg + 9, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "bench_durability: unknown flag '%s' "
                   "(--out= --messages= --tokens= --replay=)\n",
                   arg);
      return 2;
    }
  }

  bench::print_header(
      "bench_durability", "Section 6.3 logging costs, made durable",
      "async group commit amortizes fsyncs; sync token commits stay rare");

  const std::uint64_t windows[] = {1, 4, 16, 64};
  std::vector<CommitRow> commit_rows;
  for (std::uint64_t w : windows) {
    commit_rows.push_back(run_group_commit(w, messages));
  }
  commit_rows.push_back(run_token_commit(tokens));

  TablePrinter commit_table({"commit", "window", "count", "fsync/msg",
                             "p50 us", "p90 us", "p99 us", "WAL B/msg"});
  for (const CommitRow& r : commit_rows) {
    commit_table.add_row({r.window == 0 ? "token (sync)" : "group (async)",
                          r.window == 0 ? "1" : std::to_string(r.window),
                          std::to_string(r.commits), fmt(r.fsyncs_per_msg, 3),
                          fmt(r.latency.p50, 0), fmt(r.latency.p90, 0),
                          fmt(r.latency.p99, 0), fmt(r.wal_bytes_per_msg, 0)});
  }
  commit_table.print(std::cout);
  std::printf("\n");

  const ReplayRow replay = run_replay(replay_messages);
  std::printf("WAL replay: %llu msgs, %.1f MB in %.1f ms — %.0f msgs/s, "
              "%.0f MB/s\n\n",
              (unsigned long long)replay.messages,
              static_cast<double>(replay.wal_bytes) / (1 << 20),
              static_cast<double>(replay.replay_us) / 1000.0,
              replay.msgs_per_sec, replay.mb_per_sec);

  const std::uint64_t lengths[] = {1000, 10000, 50000};
  std::vector<RecoveryRow> recovery_rows;
  for (std::uint64_t len : lengths) recovery_rows.push_back(run_recovery(len));

  TablePrinter rec_table(
      {"log len", "disk KB", "recovery ms", "replayed", "warm"});
  for (const RecoveryRow& r : recovery_rows) {
    rec_table.add_row({std::to_string(r.log_len),
                       fmt(static_cast<double>(r.disk_bytes) / 1024.0, 0),
                       fmt(static_cast<double>(r.recovery_us) / 1000.0, 2),
                       std::to_string(r.replayed), r.warm ? "yes" : "NO"});
  }
  rec_table.print(std::cout);

  std::ofstream os(out_file, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "bench_durability: cannot open '%s'\n",
                 out_file.c_str());
    return 2;
  }
  JsonWriter w(os);
  w.begin_object();
  bench::write_bench_preamble(w, "durability");
  w.key("config").begin_object();
  w.kv("messages", messages);
  w.kv("tokens", tokens);
  w.kv("replay_messages", replay_messages);
  w.kv("payload_bytes", std::uint64_t{64});
  w.end_object();
  w.key("group_commit").begin_array();
  for (const CommitRow& r : commit_rows) {
    w.begin_object();
    w.kv("kind", r.window == 0 ? "token_sync" : "message_async");
    w.kv("window", r.window == 0 ? std::uint64_t{1} : r.window);
    w.kv("commits", r.commits);
    w.kv("fsyncs_per_msg", r.fsyncs_per_msg);
    bench::write_latency_fields(w, "commit", r.latency);
    w.kv("wal_bytes_per_msg", r.wal_bytes_per_msg);
    w.end_object();
  }
  w.end_array();
  w.key("replay").begin_object();
  w.kv("messages", replay.messages);
  w.kv("wal_bytes", replay.wal_bytes);
  w.kv("replay_us", replay.replay_us);
  w.kv("msgs_per_sec", replay.msgs_per_sec);
  w.kv("mb_per_sec", replay.mb_per_sec);
  w.end_object();
  w.key("recovery").begin_array();
  for (const RecoveryRow& r : recovery_rows) {
    w.begin_object();
    w.kv("log_len", r.log_len);
    w.kv("disk_bytes", r.disk_bytes);
    w.kv("recovery_us", r.recovery_us);
    w.kv("replayed_msgs", r.replayed);
    w.kv("warm", r.warm);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  os.flush();
  std::printf("\nwrote %s\n", out_file.c_str());

  for (const RecoveryRow& r : recovery_rows) {
    if (!r.warm) {
      std::fprintf(stderr, "FAIL: recovery at log_len=%llu was not warm\n",
                   (unsigned long long)r.log_len);
      return 1;
    }
  }
  return 0;
}
