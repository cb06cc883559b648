#include "src/live/live_runtime.h"

#include <stdexcept>

namespace optrec {

namespace {

WorkerHost::Spec host_spec(const LiveConfig& c, CausalityOracle* oracle,
                           TraceRecorder* trace) {
  WorkerHost::Spec spec;
  spec.protocol = c.protocol;
  spec.n = c.n;
  spec.seed = c.seed;
  spec.workload = c.workload;
  spec.process = c.process;
  spec.oracle = oracle;
  spec.trace = trace;
  spec.max_block = c.max_block;
  spec.retry_interval = c.faults.retry_interval;
  return spec;
}

}  // namespace

LiveRuntime::LiveRuntime(LiveConfig config)
    : config_(config),
      transport_(clock_, config.n, config.seed, config.faults),
      oracle_(config.enable_oracle ? std::make_unique<CausalityOracle>()
                                   : nullptr),
      trace_(config.enable_trace ? std::make_unique<TraceRecorder>()
                                 : nullptr),
      host_(clock_, transport_, transport_.counters(),
            [this](ProcessId pid) { return &transport_.channel(pid); },
            host_spec(config_, oracle_.get(), trace_.get())) {
  if (config_.n < 2) throw std::invalid_argument("LiveRuntime: n must be >= 2");
  transport_.set_trace(trace_.get());
}

ProcessBase& LiveRuntime::process(ProcessId pid) {
  return *host_.workers().at(pid)->proc;
}

bool LiveRuntime::quiet_now() const {
  const DeliveryCounters& c = transport_.counters();
  return c.app_messages_in_flight() == 0 && c.tokens_in_flight() == 0 &&
         host_.quiet();
}

LiveResult LiveRuntime::run() {
  if (ran_) throw std::logic_error("LiveRuntime::run: may only be called once");
  ran_ = true;

  for (const CrashEvent& c : config_.crashes) host_.schedule_crash(c.pid, c.at);
  host_.spawn_all();

  bool quiesced = false;
  bool have_sig = false;
  std::uint64_t last_sig = 0;
  SimTime sig_since = 0;
  for (;;) {
    host_.drain_exited(/*respawn_crashed=*/true, config_.settle_slice);
    const SimTime now = clock_.now();
    if (now >= config_.time_cap) break;
    if (!quiet_now()) {
      have_sig = false;
      continue;
    }
    const std::uint64_t sig = host_.progress_signature();
    if (!have_sig || sig != last_sig) {
      have_sig = true;
      last_sig = sig;
      sig_since = now;
      continue;
    }
    if (now - sig_since >= config_.settle_slice) {
      quiesced = true;
      break;
    }
  }
  host_.stop_all();

  LiveResult result;
  result.quiesced = quiesced;
  result.wall_time = clock_.now();
  host_.merge_into(result.metrics, result.delivery_latency_us);
  result.net = transport_.counters().stats();
  return result;
}

}  // namespace optrec
