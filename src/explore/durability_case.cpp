#include "src/explore/durability_case.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/durable/durable_storage.h"
#include "src/durable/mem_fs.h"
#include "src/durable/snapshot.h"
#include "src/explore/coverage.h"
#include "src/storage/stable_storage.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/serialization.h"

namespace optrec {
namespace {

/// Pid space for generated traffic; the store under test is pid 0's.
constexpr std::size_t kFakeCluster = 3;
/// crash_at_op values past this never fire (and must not be offset-shifted,
/// or the absolute index would wrap around).
constexpr std::uint64_t kNeverCrash = 1ull << 40;

/// One sink-triggering storage call. Appends never touch the filesystem
/// (they only buffer), so every crash lands inside one of the sync
/// primitives or the composite gestures built from them.
enum class PrimType : std::uint8_t {
  kAppend = 0,
  kFlush,
  kToken,
  kCkptAppend,
  kCkptTruncate,  // arg = surviving window index
  kLogTruncate,   // arg = global from-index
  kLogReclaim,    // arg = global reclaim bound
  kCkptReclaim,   // arg = global reclaim bound (delivered_count)
  kWipe,
};

struct Prim {
  PrimType type = PrimType::kAppend;
  Message msg;
  Token tok;
  Checkpoint ckpt;
  std::uint64_t arg = 0;
};

/// In-memory stable state at one op boundary. `tail` is the volatile log
/// suffix: recovery may legitimately return the boundary state extended by
/// any *prefix* of it (WAL order means partial group commits and
/// token-hardened buffers are always contiguous from the stable frontier).
struct ModelState {
  std::uint64_t base = 0;
  std::vector<Message> stable;
  std::vector<Message> tail;
  std::vector<Token> tokens;
  std::vector<Checkpoint> ckpts;
  std::uint64_t ckpt_total = 0;
};

struct Plan {
  std::vector<Prim> prims;
  /// states[k] = in-memory state after k completed prims (size prims+1).
  std::vector<ModelState> states;
};

Bytes rand_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(static_cast<std::size_t>(rng.uniform(max_len + 1)));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform(256));
  return out;
}

Message make_message(Rng& rng, std::uint64_t seq) {
  Message m;
  m.kind = MessageKind::kApp;
  m.src = static_cast<ProcessId>(1 + rng.uniform(kFakeCluster - 1));
  m.dst = 0;
  m.src_version = static_cast<Version>(rng.uniform(3));
  m.send_seq = seq;
  m.clock = Ftvc(m.src, kFakeCluster);
  for (std::uint64_t i = rng.uniform(4); i > 0; --i) m.clock.tick_send();
  m.payload = rand_bytes(rng, 48);
  return m;
}

Token make_token(Rng& rng) {
  Token t;
  t.from = static_cast<ProcessId>(rng.uniform(kFakeCluster));
  t.failed.ver = static_cast<Version>(rng.uniform(4));
  t.failed.ts = rng.uniform(64);
  if (rng.chance(0.5)) t.restored_clock = Ftvc(t.from, kFakeCluster);
  t.origin_pid = t.from;
  t.origin_ver = t.failed.ver;
  return t;
}

Checkpoint make_ckpt(const StableStorage& st, Rng& rng, std::uint64_t step) {
  Checkpoint c;
  c.version = static_cast<Version>(rng.uniform(3));
  c.delivered_count = st.log().total_count();
  c.send_seq = step;
  c.clock = Ftvc(0, kFakeCluster);
  c.history = History(0, kFakeCluster);
  c.app_state = rand_bytes(rng, 40);
  c.taken_at = static_cast<SimTime>(step);
  return c;
}

void apply(StableStorage& st, const Prim& p) {
  switch (p.type) {
    case PrimType::kAppend:
      st.log().append(p.msg);
      break;
    case PrimType::kFlush:
      st.log().flush();
      break;
    case PrimType::kToken:
      st.log_token(p.tok);
      break;
    case PrimType::kCkptAppend:
      st.checkpoints().append(p.ckpt);
      break;
    case PrimType::kCkptTruncate:
      st.checkpoints().truncate_after(static_cast<std::size_t>(p.arg));
      break;
    case PrimType::kLogTruncate:
      st.log().truncate_from(p.arg);
      break;
    case PrimType::kLogReclaim:
      st.log().reclaim_before(p.arg);
      break;
    case PrimType::kCkptReclaim:
      st.checkpoints().reclaim_before_delivered(p.arg);
      break;
    case PrimType::kWipe:
      st.on_crash();
      break;
  }
}

ModelState capture(const StableStorage& st) {
  ModelState m;
  const MessageLog& log = st.log();
  m.base = log.base();
  for (std::uint64_t i = m.base; i < log.stable_count(); ++i) {
    m.stable.push_back(log.entry(i));
  }
  for (std::uint64_t i = log.stable_count(); i < log.total_count(); ++i) {
    m.tail.push_back(log.entry(i));
  }
  m.tokens = st.token_log();
  for (std::size_t i = 0; i < st.checkpoints().count(); ++i) {
    m.ckpts.push_back(st.checkpoints().at(i));
  }
  m.ckpt_total = st.checkpoints().total_appended();
  return m;
}

/// The whole schedule is concretized up front (payloads, tokens, checkpoint
/// contents, truncate bounds), so replaying the prim list is deterministic
/// and the shadow states computed here are exactly the states the live run
/// passes through.
Plan build_plan(const DurabilityCase& c) {
  Plan plan;
  Rng rng(c.seed);
  StableStorage shadow;
  std::uint64_t seq = 0;

  plan.states.push_back(capture(shadow));
  auto push = [&](Prim p) {
    apply(shadow, p);
    plan.prims.push_back(std::move(p));
    plan.states.push_back(capture(shadow));
  };
  auto push_append = [&] {
    Prim p;
    p.msg = make_message(rng, seq++);
    push(std::move(p));
  };
  // Checkpoints always ride behind a flush, mirroring the protocol layer
  // (take_checkpoint commits the WAL first) and preserving the recovery
  // invariant "stable log frontier >= newest checkpoint cursor".
  auto push_checkpoint = [&] {
    Prim f;
    f.type = PrimType::kFlush;
    push(std::move(f));
    Prim cp;
    cp.type = PrimType::kCkptAppend;
    cp.ckpt = make_ckpt(shadow, rng, plan.prims.size());
    push(std::move(cp));
  };

  // Mirror ProcessBase::start(): an initial checkpoint, so the manifest
  // exists from the first few filesystem ops on.
  push_checkpoint();

  const std::size_t target = std::max<std::uint32_t>(c.ops, 4);
  while (plan.prims.size() < target) {
    const std::uint64_t r = rng.uniform(100);
    if (r < 40) {
      push_append();
    } else if (r < 55) {
      Prim p;
      p.type = PrimType::kFlush;
      push(std::move(p));
    } else if (r < 67) {
      Prim p;
      p.type = PrimType::kToken;
      p.tok = make_token(rng);
      push(std::move(p));
    } else if (r < 79) {
      push_checkpoint();
    } else if (r < 87) {
      // Rollback: flush, discard checkpoints after idx, truncate the log to
      // the surviving checkpoint's cursor.
      const CheckpointStore& cks = shadow.checkpoints();
      if (cks.empty()) {
        push_append();
        continue;
      }
      const auto idx = static_cast<std::size_t>(rng.uniform(cks.count()));
      const std::uint64_t cursor = cks.at(idx).delivered_count;
      if (cursor < shadow.log().base()) {
        push_append();
        continue;
      }
      Prim f;
      f.type = PrimType::kFlush;
      push(std::move(f));
      Prim ct;
      ct.type = PrimType::kCkptTruncate;
      ct.arg = idx;
      push(std::move(ct));
      Prim lt;
      lt.type = PrimType::kLogTruncate;
      lt.arg = cursor;
      push(std::move(lt));
    } else if (r < 95) {
      // GC up to the recovery line: reclaim stable log entries and the
      // checkpoints that precede them.
      const CheckpointStore& cks = shadow.checkpoints();
      if (cks.empty()) {
        push_append();
        continue;
      }
      const std::uint64_t k = std::min<std::uint64_t>(
          shadow.log().stable_count(), cks.latest().delivered_count);
      if (k <= shadow.log().base()) {
        push_append();
        continue;
      }
      Prim lr;
      lr.type = PrimType::kLogReclaim;
      lr.arg = k;
      push(std::move(lr));
      Prim cr;
      cr.type = PrimType::kCkptReclaim;
      cr.arg = k;
      push(std::move(cr));
    } else {
      Prim p;
      p.type = PrimType::kWipe;
      push(std::move(p));
    }
  }
  return plan;
}

WalAblations parse_mutation(const std::string& mutation) {
  WalAblations ab;
  if (mutation.empty()) return ab;
  if (mutation == "skip-crc") {
    ab.skip_crc = true;
  } else if (mutation == "async-tokens") {
    ab.async_tokens = true;
  } else {
    throw std::invalid_argument("unknown durability mutation: " + mutation);
  }
  return ab;
}

std::uint64_t digest_state(const ModelState& m, std::size_t harden) {
  Writer w;
  w.put_u64(m.base);
  w.put_u64(m.stable.size() + harden);
  for (const Message& msg : m.stable) msg.encode(w);
  for (std::size_t j = 0; j < harden; ++j) m.tail[j].encode(w);
  w.put_u64(m.tokens.size());
  for (const Token& t : m.tokens) t.encode(w);
  w.put_u64(m.ckpts.size());
  for (const Checkpoint& ck : m.ckpts) ck.encode(w);
  w.put_u64(m.ckpt_total);
  return fnv1a(w.buffer());
}

std::uint64_t digest_recovered(const StableStorage& st) {
  return digest_state(capture(st), 0);
}

void add_boundary(std::unordered_set<std::uint64_t>& set,
                  const ModelState& m) {
  for (std::size_t j = 0; j <= m.tail.size(); ++j) {
    set.insert(digest_state(m, j));
  }
}

std::uint64_t sig_key(std::uint64_t tag, std::uint64_t v) {
  std::uint64_t x = tag * 0x9e3779b97f4a7c15ull + v + 0x165667b19e3779f9ull;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash_str(const std::string& s) {
  return fnv1a(Bytes(s.begin(), s.end()));
}

/// Flip one durable bit below the committed floor (WAL), or inside a live
/// snapshot / the manifest — all bytes recovery is required to distrust on
/// mismatch. Returns false when the image has no usable manifest to target
/// (nothing there claims to be committed).
bool inject_corruption(MemFs& fs, const std::string& dir, Rng rng) {
  const auto raw = fs.read_file(manifest_path(dir));
  if (!raw) return false;
  const auto man = Manifest::decode(*raw);
  if (!man) return false;

  struct Target {
    std::string path;
    std::uint64_t len;
  };
  std::vector<Target> targets;
  targets.push_back({manifest_path(dir), fs.file_size(manifest_path(dir))});
  for (const auto seq : man->checkpoint_seqs) {
    const std::string p = checkpoint_path(dir, seq);
    if (fs.file_size(p) > 0) targets.push_back({p, fs.file_size(p)});
  }
  const std::string wal = wal_path(dir, man->wal_gen);
  // Stay strictly below the committed floor: a flip past it is a legitimate
  // torn tail and MUST be absorbed, not rejected.
  const std::uint64_t floor =
      std::min<std::uint64_t>(man->wal_committed, fs.file_size(wal));
  if (floor > 0) targets.push_back({wal, floor});

  const Target& t = targets[static_cast<std::size_t>(
      rng.uniform(targets.size()))];
  fs.flip_bit(t.path, rng.uniform(t.len), static_cast<int>(rng.uniform(8)));
  return true;
}

void add_violation(DurabilityOutcome& out, std::string message) {
  out.violations.push_back(
      {"durability", violation_category(message), std::move(message)});
}

}  // namespace

DurabilityOutcome run_durability_case(const DurabilityCase& c) {
  DurabilityOutcome out;
  const Plan plan = build_plan(c);
  const WalAblations ablations = parse_mutation(c.mutation);

  MemFs fs;
  DurableOptions dopts;
  dopts.dir = "store";
  dopts.fs = &fs;
  dopts.ablations = ablations;
  DurableBackend backend(dopts);
  backend.start_fresh();

  const std::uint64_t ops_base = fs.op_count();
  const std::uint64_t abs_crash = c.crash_at_op >= kNeverCrash
                                      ? UINT64_MAX
                                      : ops_base + c.crash_at_op;
  fs.arm_crash(abs_crash, c.seed ^ 0x5bd1e995u, c.garble_tail);

  StableStorage live;
  live.attach_sink(&backend);
  std::size_t completed = 0;
  try {
    for (const Prim& p : plan.prims) {
      apply(live, p);
      ++completed;
    }
  } catch (const CrashSignal&) {
    out.crashed = true;
  }
  out.completed_ops = completed;
  out.fs_ops = fs.op_count() - ops_base;

  auto image = fs.crash_image();
  if (c.corrupt_durable) {
    out.corrupted = inject_corruption(*image, dopts.dir, Rng(c.seed * 31 + 7));
  }
  const bool had_manifest = image->exists(manifest_path(dopts.dir));

  DurableOptions ropts = dopts;
  ropts.fs = image.get();
  DurableBackend recoverer(ropts);
  StableStorage restored;
  RecoveryResult r;
  try {
    r = recoverer.recover_into(restored);
  } catch (const std::exception& e) {
    add_violation(out, std::string("recovery-exception: ") + e.what());
  }

  out.warm = r.warm;
  out.corrupt = r.corrupt;
  out.replayed_messages = r.replayed_messages;
  out.replayed_tokens = r.replayed_tokens;
  out.torn_bytes = r.torn_bytes;

  if (out.violations.empty()) {
    if (out.corrupted) {
      if (!r.corrupt) {
        add_violation(out,
                      std::string("corrupt-accepted: a bit flipped below the "
                                  "committed floor was not rejected (warm=") +
                          (r.warm ? "true" : "false") + ")");
      }
    } else if (r.corrupt) {
      add_violation(out, "unexpected-corrupt: " + r.corrupt_reason);
    } else if (r.warm) {
      std::unordered_set<std::uint64_t> acceptable;
      add_boundary(acceptable, plan.states[completed]);
      if (out.crashed && completed + 1 < plan.states.size()) {
        // The interrupted primitive may have reached durability before the
        // crash landed (e.g. the sync returned bytes to the platter).
        add_boundary(acceptable, plan.states[completed + 1]);
      }
      const std::uint64_t got = digest_recovered(restored);
      if (acceptable.count(got) == 0) {
        // Distinguish "an older legal state" (lost synced data) from "a
        // state the schedule never produced".
        bool in_history = false;
        std::size_t at = 0;
        const std::size_t hi =
            std::min(plan.states.size(), completed + (out.crashed ? 2u : 1u));
        for (std::size_t t = 0; t < hi && !in_history; ++t) {
          for (std::size_t j = 0; j <= plan.states[t].tail.size(); ++j) {
            if (digest_state(plan.states[t], j) == got) {
              in_history = true;
              at = t;
              break;
            }
          }
        }
        if (in_history) {
          add_violation(out, "durable-loss: recovered the state at op " +
                                 std::to_string(at) +
                                 " instead of the durable frontier at op " +
                                 std::to_string(completed));
        } else {
          add_violation(out,
                        "phantom-state: recovered a state the schedule never "
                        "produced (after op " +
                            std::to_string(completed) + ")");
        }
      }
    } else if (had_manifest) {
      // A durably written manifest means warm recovery was promised; falling
      // back cold silently discards committed state.
      add_violation(out, "durable-loss: cold recovery despite a durable "
                         "manifest (completed op " +
                             std::to_string(completed) + ")");
    }
  }

  const std::uint64_t crash_prim =
      out.crashed && completed < plan.prims.size()
          ? static_cast<std::uint64_t>(plan.prims[completed].type)
          : 99;
  const DurableStats ws = backend.stats();
  out.signatures.push_back(sig_key(1, crash_prim));
  out.signatures.push_back(
      sig_key(2, (std::uint64_t{r.warm} << 3) | (std::uint64_t{r.corrupt} << 2) |
                     (std::uint64_t{out.crashed} << 1) |
                     std::uint64_t{out.corrupted}));
  out.signatures.push_back(sig_key(3, std::bit_width(r.replayed_messages)));
  out.signatures.push_back(sig_key(4, std::bit_width(r.replayed_tokens)));
  out.signatures.push_back(sig_key(5, std::bit_width(r.torn_bytes)));
  out.signatures.push_back(
      sig_key(6, completed * 8 / std::max<std::size_t>(1, plan.prims.size())));
  out.signatures.push_back(
      sig_key(7, r.warm ? restored.checkpoints().count() : 0));
  out.signatures.push_back(sig_key(8, std::bit_width(ws.compactions)));
  for (const ViolationRecord& v : out.violations) {
    out.signatures.push_back(sig_key(9, hash_str(v.category)));
  }
  return out;
}

DurabilityCase DurabilityKind::generate(Rng& rng) const {
  DurabilityCase c;
  c.seed = rng.next_u64();
  c.ops = ops;
  c.garble_tail = rng.chance(garble_prob) ? 1.0 : 0.0;
  c.corrupt_durable = rng.chance(corrupt_prob);
  c.mutation = mutation;
  if (rng.chance(0.5)) {
    // Aim inside the schedule: a power-cut run counts its filesystem ops.
    c.crash_at_op = rng.uniform(run_durability_case(c).fs_ops + 2);
  }
  return c;
}

DurabilityCase DurabilityKind::mutate(const DurabilityCase& parent,
                                      Rng& rng) const {
  DurabilityCase c = parent;
  switch (rng.uniform(5)) {
    case 0:
      c.seed = rng.next_u64();
      break;
    case 1:
      c.crash_at_op = c.crash_at_op >= kNeverCrash
                          ? rng.uniform(64)
                          : c.crash_at_op + rng.uniform(9) - 4;
      if (c.crash_at_op >= kNeverCrash) c.crash_at_op = 0;  // underflow wrap
      break;
    case 2:
      c.garble_tail = c.garble_tail > 0 ? 0.0 : 1.0;
      break;
    case 3:
      c.corrupt_durable = !c.corrupt_durable;
      break;
    default:
      c.ops = std::max<std::uint32_t>(
          4, c.ops + static_cast<std::uint32_t>(rng.uniform(17)) - 8);
      break;
  }
  return c;
}

std::vector<DurabilityCase> DurabilityKind::simpler(
    const DurabilityCase& c) const {
  std::vector<DurabilityCase> out;
  const auto with = [&](auto edit) {
    out.push_back(c);
    edit(out.back());
  };
  if (c.ops > 4) {
    with([](DurabilityCase& e) {
      e.ops = std::max<std::uint32_t>(4, e.ops / 2);
    });
    with([](DurabilityCase& e) { --e.ops; });
  }
  if (c.crash_at_op < kNeverCrash && c.crash_at_op > 0) {
    with([](DurabilityCase& e) { e.crash_at_op /= 2; });
    with([](DurabilityCase& e) { --e.crash_at_op; });
  }
  if (c.garble_tail > 0) with([](DurabilityCase& e) { e.garble_tail = 0; });
  if (c.corrupt_durable) {
    with([](DurabilityCase& e) { e.corrupt_durable = false; });
  }
  return out;
}

void DurabilityKind::write_case(JsonWriter& w, const DurabilityCase& c) const {
  w.key("case").begin_object();
  w.kv("seed", c.seed);
  w.kv("ops", static_cast<std::uint64_t>(c.ops));
  if (c.crash_at_op < kNeverCrash) w.kv("crash_at_op", c.crash_at_op);
  w.kv("garble_tail", c.garble_tail);
  w.kv("corrupt_durable", c.corrupt_durable);
  if (!c.mutation.empty()) w.kv("mutation", std::string_view(c.mutation));
  w.end_object();
}

DurabilityCase DurabilityKind::read_case(const JsonValue& artifact) const {
  const JsonValue* cs = artifact.find("case");
  if (cs == nullptr) {
    throw std::runtime_error("durability repro is missing \"case\"");
  }
  DurabilityCase c;
  c.seed = cs->u64_or("seed", 1);
  c.ops = static_cast<std::uint32_t>(cs->u64_or("ops", 48));
  c.crash_at_op = cs->u64_or("crash_at_op", UINT64_MAX);
  if (const JsonValue* g = cs->find("garble_tail")) {
    c.garble_tail = g->as_double();
  }
  if (const JsonValue* b = cs->find("corrupt_durable")) {
    c.corrupt_durable = b->as_bool();
  }
  if (const JsonValue* m = cs->find("mutation")) c.mutation = m->as_string();
  return c;
}

BenchLabels DurabilityKind::bench_labels() const {
  return {{"schema", "optrec-bench-durability-explore-v1"},
          {"mutation", mutation}};
}

}  // namespace optrec
