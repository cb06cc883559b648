#include "src/tcp/tcp_node.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/util/json.h"

namespace optrec {

namespace {

TcpNodeConfig checked(TcpNodeConfig c) {
  c.topology.validate();
  if (c.node >= c.topology.nodes.size()) {
    throw std::invalid_argument("TcpNode: node id out of range");
  }
  if (c.topology.n < 2) throw std::invalid_argument("TcpNode: n must be >= 2");
  // A serving node MUST gate replies behind the Damani-Garg output-commit
  // point; without stability tracking output_commit_gated() is false and a
  // reply produced in a later-rolled-back interval would escape to clients.
  // The same stability line bounds its memory (Remark 2): GC reclaims the
  // logged requests, checkpoints and committed-output ids behind it.
  if (c.serve) {
    c.process.enable_stability_tracking = true;
    c.process.enable_gc = true;
  }
  return c;
}

WorkerHost::Spec host_spec(const TcpNodeConfig& c,
                           telemetry::MetricsRegistry* registry) {
  WorkerHost::Spec spec;
  spec.protocol = c.protocol;
  spec.n = c.topology.n;
  spec.seed = c.seed;
  spec.workload = c.workload;
  spec.process = c.process;
  spec.oracle = c.oracle;
  spec.trace = c.trace;
  spec.registry = registry;
  spec.retry_interval = c.topology.faults.retry_interval;
  return spec;
}

}  // namespace

void TcpCounters::add(const TcpCounters& other) {
  add_counters(tcp, other.tcp);
  add_counters(durable, other.durable);
  add_counters(service, other.service);
  durable.enabled = durable.enabled || other.durable.enabled;
  service.enabled = service.enabled || other.service.enabled;
}

void TcpCounters::write_json(JsonWriter& w) const {
  const auto block = [&w](const char* name, const auto& s) {
    w.key(name).begin_object();
    write_counters(w, s);
    w.end_object();
  };
  block("tcp", tcp);
  if (durable.enabled) block("durable", durable);
  if (service.enabled) block("service", service);
}

void TcpCounters::print() const {
  print_counters("sockets", tcp);
  if (durable.enabled) print_counters("durable", durable);
  if (service.enabled) print_counters("service", service);
}

TcpNode::TcpNode(TcpNodeConfig config)
    : config_(checked(std::move(config))),
      transport_(clock_, config_.topology, config_.node, config_.seed,
                 config_.epoch),
      host_(clock_, transport_, transport_.counters(),
            [this](ProcessId pid) {
              return transport_.is_local(pid) ? &transport_.channel(pid)
                                              : nullptr;
            },
            host_spec(config_, &registry_)) {
  transport_.set_trace(config_.trace);
  if (!config_.data_dir.empty()) {
    for (const auto& w : host_.workers()) attach_durable(*w);
  }
  setup_telemetry();
  setup_service();
}

void TcpNode::attach_durable(WorkerHost::Worker& w) {
  const std::string pid = std::to_string(w.pid);
  DurableOptions dopts;
  dopts.dir = config_.data_dir + "/p" + pid;
  w.durable = std::make_unique<DurableBackend>(std::move(dopts));
  // Warm recovery rebuilds the exact pre-kill storage, which the shared
  // oracle cannot follow across incarnations — in-process clusters with an
  // oracle attached always recover cold.
  if (config_.recover && config_.oracle == nullptr) {
    w.warm = w.durable->recover_into(w.proc->storage()).warm;
  }
  if (!w.warm) w.durable->start_fresh();
  w.proc->storage().attach_sink(w.durable.get());
  telemetry::AtomicHistogram* hist = &registry_.histogram(
      "optrec_wal_flush_latency_us", "WAL group-commit fsync latency",
      {{"pid", pid}});
  w.durable->set_flush_latency_hook(
      [hist](std::uint64_t us) { hist->observe(static_cast<double>(us)); });
}

void TcpNode::setup_service() {
  if (!config_.serve) return;
  const TcpNodeSpec& self = config_.topology.node(config_.node);
  const std::size_t n = config_.topology.n;

  service::ServiceFrontend::Options opts;
  opts.host = self.host;
  opts.port = config_.service_port != 0 ? config_.service_port
                                        : self.service_port;
  opts.n = n;
  opts.local_pids = self.processes;

  // Injected client requests enter the protocol as messages from a pseudo
  // process `n` (outside the fleet): version 0 so no failure token can ever
  // orphan them, an all-zero size-n clock so the obsolete filter never
  // discards them (every restored timestamp is >= 1), and a per-incarnation
  // send_seq stream so every injection has its own identity. The duplicate
  // filter ignores pid n: it never retransmits, and a client retry is a
  // fresh injection that ServiceApp dedups by (client_id, seq).
  inject_seq_.store(transport_.epoch(), std::memory_order_relaxed);
  frontend_ = std::make_unique<service::ServiceFrontend>(
      opts, [this, n](ProcessId dst, Bytes payload) {
        Message msg;
        msg.kind = MessageKind::kApp;
        msg.src = static_cast<ProcessId>(n);
        msg.dst = dst;
        msg.src_version = 0;
        msg.send_seq = inject_seq_.fetch_add(1, std::memory_order_relaxed);
        msg.clock =
            Ftvc::with_entries(msg.src, std::vector<FtvcEntry>(n));
        msg.payload = std::move(payload);
        transport_.inject_local(std::move(msg));
      });
  transport_.set_poll_client(frontend_.get());

  // Output-commit gate instrumentation + reply release. The listener runs
  // on worker threads; counters are atomics and push_reply is thread-safe.
  // The gate wait splits at the moment the process's own log covered the
  // reply; per reply, own + peer == the whole wait.
  telemetry::AtomicHistogram& gate_latency = registry_.histogram(
      "optrec_output_gate_latency_us",
      "Request-to-commit latency of gated client replies");
  telemetry::AtomicHistogram& gate_own = registry_.histogram(
      "optrec_output_gate_own_us",
      "Gate wait until the own log covered the reply (request to own-stable)");
  telemetry::AtomicHistogram& gate_peer = registry_.histogram(
      "optrec_output_gate_peer_us",
      "Gate wait for peer stability (own-stable to commit)");
  telemetry::register_counters(registry_,
                               [this] { return frontend_->stats().load(); });
  for (const auto& w : host_.workers()) {
    w->proc->set_output_listener(
        [this, &gate_latency, &gate_own, &gate_peer](
            OutputEvent event, const CommittedOutput& out) {
          using Stats = service::ServiceStats;
          if (event == OutputEvent::kGated) {
            frontend_->stats().add<&Stats::replies_gated>();
            return;
          }
          if (event == OutputEvent::kDiscarded) {
            frontend_->stats().add<&Stats::replies_discarded>();
            return;
          }
          frontend_->stats().add<&Stats::replies_released>();
          if (out.committed_at >= out.requested_at) {
            gate_latency.observe(
                static_cast<double>(out.committed_at - out.requested_at));
            gate_own.observe(
                static_cast<double>(out.own_stable_at - out.requested_at));
            gate_peer.observe(
                static_cast<double>(out.committed_at - out.own_stable_at));
          }
          frontend_->push_reply(out.data);
        });
  }
}

void TcpNode::setup_telemetry() {
  // Transport counters export through pull collectors — the transport
  // already keeps them as atomics, so scrapes read them without any hot-
  // path double bookkeeping.
  telemetry::register_counters(
      registry_, [this] { return transport_.counters().stats(); });
  telemetry::register_counters(registry_,
                               [this] { return transport_.tcp_stats(); });
  registry_.add_collector([this](std::vector<telemetry::Sample>& out) {
    const auto gauge = [&out](const char* name, const char* label,
                              std::uint32_t id, std::uint64_t v) {
      out.push_back(telemetry::scalar_sample(
          name, telemetry::SampleKind::kGauge, v,
          {{label, std::to_string(id)}}));
    };
    // Per-peer outbound ring occupancy + high water (lock-free reads).
    for (const auto& [node, depth] : transport_.queue_depths()) {
      gauge("optrec_tcp_outbound_queue_depth", "peer", node, depth);
    }
    for (const auto& [node, hw] : transport_.queue_high_waters()) {
      gauge("optrec_tcp_outbound_queue_high_water", "peer", node, hw);
    }
    // Per-process inbox ring high water (lock-free, same scrape).
    for (const auto& w : host_.workers()) {
      gauge("optrec_channel_ring_high_water", "pid", w->pid,
            transport_.channel(w->pid).ring_high_water());
    }
  });
  transport_.set_io_histograms(
      &registry_.histogram("optrec_tcp_writev_batch_segments",
                           "iovec segments per scatter-gather socket write",
                           {}, {1, 2, 4, 8, 16, 32, 64}),
      &registry_.histogram("optrec_tcp_frames_per_wakeup",
                           "Outbound frames staged per IO-thread wakeup", {},
                           {1, 2, 4, 8, 16, 32, 64, 128, 256}));
  registry_
      .gauge("optrec_node_info", "Constant 1, labelled with this node's id",
             {{"node", std::to_string(config_.node)}})
      .set(1);
  quiet_gauge_ = &registry_.gauge(
      "optrec_node_quiet", "1 while this node's local quiet claim holds");
  if (!config_.data_dir.empty()) {
    // Durability counters are atomics inside each backend; scrapes read
    // them directly, same pattern as the transport collectors above.
    registry_.add_collector([this](std::vector<telemetry::Sample>& out) {
      for (const auto& w : host_.workers()) {
        telemetry::export_counters(out, w->durable->stats(),
                                   {{"pid", std::to_string(w->pid)}});
      }
    });
  }

  if (!config_.telemetry) return;
  const TcpNodeSpec& self = config_.topology.node(config_.node);
  const std::uint16_t port = config_.telemetry_port != 0
                                 ? config_.telemetry_port
                                 : self.telemetry_port;
  http_ = std::make_unique<telemetry::TelemetryHttpServer>(self.host, port);
  http_->route("/metrics", "text/plain; version=0.0.4", [this] {
    std::ostringstream os;
    registry_.render_prometheus(os);
    return os.str();
  });
  http_->route("/metrics.json", "application/json", [this] {
    std::ostringstream os;
    registry_.render_json(os);
    return os.str();
  });
  http_->route("/healthz", "text/plain", [] { return std::string("ok\n"); });
  // The cluster table: this node's own live row plus (on the coordinator)
  // the latest gossip row of every peer.
  http_->route("/cluster", "application/json", [this] {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.kv("node", config_.node);
    w.kv("coordinator", config_.node == 0);
    w.key("rows").begin_array();
    const auto row = [&w](std::uint32_t node, bool quiet, std::uint64_t age_us,
                          const NodeStatsBlock& b) {
      w.begin_object();
      w.kv("node", node);
      w.kv("quiet", quiet);
      w.kv("age_us", age_us);
      write_counters(w, b);
      w.end_object();
    };
    row(config_.node, local_quiet(), 0, stats_block());
    const auto statuses = transport_.peer_statuses();
    const SimTime now = clock_.now();
    for (const auto& slot : statuses) {
      if (!slot) continue;
      const NodeStatusReport& s = slot->first;
      row(s.node, s.quiet, now - slot->second, s.stats);
    }
    w.end_array();
    w.end_object();
    os << '\n';
    return os.str();
  });
  transport_.set_poll_client(http_.get());
}

// The status block sums mirrored rows only: a JSON-only Metrics row would
// read 0 on every node.
static_assert(std::ranges::all_of(
    NodeStatsBlock::kFields, [](const NodeStatsField& f) {
      return f.metric == nullptr ||
             std::ranges::any_of(Metrics::kFields, [&f](const auto& row) {
               return row.member == f.metric && row.family != nullptr;
             });
    }));

NodeStatsBlock TcpNode::stats_block() const {
  Metrics sums;
  telemetry::FixedHistogram latency;
  for (const auto& w : host_.workers()) {
    add_counters(sums, w->gauges->mirrored());
    latency.merge_from(w->latency->snapshot());
  }
  NodeStatsBlock b;
  for (const auto& f : NodeStatsBlock::kFields) {
    if (f.metric != nullptr) b.*f.member = sums.*f.metric;
  }
  b.bytes_tx = transport_.tcp_stats().bytes_tx;
  b.latency_p50_us = static_cast<std::uint64_t>(latency.percentile(0.50));
  b.latency_p99_us = static_cast<std::uint64_t>(latency.percentile(0.99));
  return b;
}

TcpNode::~TcpNode() {
  // Emergency shutdown for runs abandoned mid-flight (run() normally joins
  // everything itself): workers first, then the IO thread.
  host_.stop_all();
  transport_.stop();
}

bool TcpNode::local_quiet() const {
  return host_.quiet() && transport_.counters().frames_in_flight() == 0 &&
         transport_.outbound_app_and_tokens() == 0;
}

void TcpNode::coordinate_shutdown(std::uint8_t exit_code, SimTime grace) {
  const SimTime deadline = clock_.now() + grace;
  for (;;) {
    transport_.broadcast_shutdown(exit_code);
    if (transport_.all_shutdowns_acked()) return;
    if (clock_.now() >= deadline) return;
    // Keep respawning crashed workers while the broadcast settles; the
    // cluster is quiet, but restart timers may still be running down.
    host_.drain_exited(/*respawn_crashed=*/true, millis(5));
  }
}

TcpNodeResult TcpNode::run() {
  if (ran_) throw std::logic_error("TcpNode::run: may only be called once");
  ran_ = true;

  // Build the crash plan: scheduled events for LOCAL pids, plus — in
  // recover mode — an immediate crash of every local process, announcing
  // the killed incarnation's failure to the cluster.
  for (const CrashEvent& c : config_.crashes) host_.schedule_crash(c.pid, c.at);
  if (config_.recover) {
    for (const auto& w : host_.workers()) {
      // Warm workers already announce their failure (at the restored point)
      // from start_recovered(); only pids with no usable durable state get
      // the crash-announce-all treatment.
      if (!w->warm) host_.schedule_crash(w->pid, millis(1));
    }
  }

  transport_.start();
  host_.spawn_all();

  const bool coordinator = config_.node == 0;
  const SimTime staleness =
      std::max<SimTime>(3 * config_.status_interval, millis(100));
  bool quiesced = false;
  int exit_code = 4;
  bool have_sig = false;
  std::uint64_t last_sig = 0;
  SimTime sig_since = 0;
  std::uint64_t status_seq = 0;
  SimTime last_status = 0;
  bool last_sent_quiet = false;

  for (;;) {
    host_.drain_exited(/*respawn_crashed=*/true, config_.status_interval);
    const SimTime now = clock_.now();

    std::uint8_t code = 0;
    if (!coordinator && transport_.shutdown_received(&code)) {
      exit_code = code;
      quiesced = code == 0;
      break;
    }
    if (now >= config_.time_cap) {
      // A serving node's cap is its scheduled end of life, not a hang.
      if (config_.serve) exit_code = 0;
      break;
    }

    const bool quiet = local_quiet();
    const std::uint64_t sig = host_.progress_signature();
    quiet_gauge_->set(quiet ? 1 : 0);

    if (!coordinator) {
      // Gossip on the period, plus immediately on a quiet-flag flip so the
      // coordinator is not a full tick behind local state changes.
      if (now - last_status >= config_.status_interval ||
          quiet != last_sent_quiet) {
        NodeStatusReport s;
        s.node = config_.node;
        s.epoch = transport_.epoch();
        s.seq = ++status_seq;
        s.quiet = quiet;
        s.signature = sig;
        s.stats = stats_block();
        transport_.send_status(s);
        last_status = now;
        last_sent_quiet = quiet;
      }
      continue;
    }

    // Serving clusters never settle: load is client-driven, so a quiet
    // moment is just a gap between requests. The time cap ends the run.
    if (config_.serve) continue;

    // Coordinator: every node must claim quiet on a fresh report, and the
    // cluster-wide signature must hold still for a full settle window.
    bool all_quiet = quiet;
    std::uint64_t combined = sig;
    if (all_quiet) {
      const auto statuses = transport_.peer_statuses();
      for (std::uint32_t nid = 1; nid < statuses.size(); ++nid) {
        const auto& slot = statuses[nid];
        if (!slot || !slot->first.quiet || now - slot->second > staleness) {
          all_quiet = false;
          break;
        }
        combined = signature_mix(combined, slot->first.signature);
      }
    }
    if (!all_quiet) {
      have_sig = false;
      continue;
    }
    if (!have_sig || combined != last_sig) {
      have_sig = true;
      last_sig = combined;
      sig_since = now;
      continue;
    }
    if (now - sig_since >= config_.settle) {
      quiesced = true;
      exit_code = 0;
      break;
    }
  }

  // The coordinator tells everyone how the run ended — exit code 0 after a
  // clean settle, 4 when its own time cap fired — so peers do not have to
  // sit out their full caps.
  if (coordinator) {
    coordinate_shutdown(static_cast<std::uint8_t>(exit_code == 0 ? 0 : 4),
                        exit_code == 0 ? seconds(2) : millis(300));
  }

  host_.stop_all();

  // Give queued control traffic (shutdown acks, final token acks) a short
  // window to reach the wire before sockets close.
  const SimTime flush_deadline = clock_.now() + millis(200);
  while (transport_.outbound_pending() != 0 && clock_.now() < flush_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  transport_.stop();

  TcpNodeResult result;
  result.exit_code = exit_code;
  result.quiesced = quiesced;
  result.wall_time = clock_.now();
  host_.merge_into(result.metrics, result.delivery_latency_us);
  for (const auto& w : host_.workers()) {
    if (!w->durable) continue;
    result.durable.enabled = true;
    add_counters<DurableStats>(result.durable, w->durable->stats());
  }
  result.net = transport_.counters().stats();
  result.tcp = transport_.tcp_stats();
  if (frontend_) {
    static_cast<service::ServiceStats&>(result.service) =
        frontend_->stats().load();
    result.service.enabled = true;
  }
  return result;
}

}  // namespace optrec
