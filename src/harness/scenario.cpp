#include "src/harness/scenario.h"

#include <stdexcept>

namespace optrec {

Scenario::Scenario(ScenarioConfig config)
    : config_(config), sim_(config.seed), net_(sim_, config.network) {
  if (config_.n < 2) throw std::invalid_argument("Scenario: n must be >= 2");
  if (config_.enable_oracle) oracle_ = std::make_unique<CausalityOracle>();
  if (config_.enable_trace) {
    trace_ = std::make_unique<TraceRecorder>();
    net_.set_trace(trace_.get());
  }
  if (config_.schedule_hook != nullptr) {
    net_.set_schedule_hook(config_.schedule_hook);
  }

  const AppFactory factory = config_.workload.make_factory();
  processes_.reserve(config_.n);
  for (ProcessId pid = 0; pid < config_.n; ++pid) {
    processes_.push_back(make_protocol_process(
        config_.protocol, RuntimeEnv(sim_, sim_, net_), pid, config_.n,
        factory(pid, config_.n), config_.process, metrics_, oracle_.get()));
    processes_.back()->set_trace(trace_.get());
  }
}

Scenario::~Scenario() = default;

DamaniGargProcess& Scenario::dg(ProcessId pid) {
  auto* p = dynamic_cast<DamaniGargProcess*>(processes_.at(pid).get());
  if (p == nullptr) {
    throw std::logic_error("Scenario::dg: process is not Damani-Garg");
  }
  return *p;
}

void Scenario::start_all() {
  if (started_) return;
  started_ = true;
  // Start events at t=0 in pid order, then the failure plan.
  for (ProcessId pid = 0; pid < processes_.size(); ++pid) {
    sim_.schedule_at(0, [this, pid] { processes_[pid]->start(); });
  }
  for (const CrashEvent& event : config_.failures.crashes) {
    sim_.schedule_at(event.at, [this, pid = event.pid] {
      processes_.at(pid)->crash();
    });
  }
  for (const PartitionEvent& event : config_.failures.partitions) {
    sim_.schedule_at(event.at, [this, groups = event.groups] {
      net_.set_partition(groups);
    });
    sim_.schedule_at(event.heal_at, [this] { net_.heal_partition(); });
  }
}

std::uint64_t Scenario::progress_signature() const {
  return signature_mix(metrics_.progress_signature(),
                       net_.stats().messages_dropped);
}

bool Scenario::all_up() const {
  for (const auto& p : processes_) {
    if (!p->is_up()) return false;
  }
  return true;
}

std::size_t Scenario::total_pending() const {
  std::size_t total = 0;
  for (const auto& p : processes_) total += p->pending_count();
  return total;
}

void Scenario::run_for(SimTime duration) {
  start_all();
  sim_.run(sim_.now() + duration);
}

bool Scenario::run() {
  start_all();
  // The failure plan must be inside the cap, or crashes would never fire.
  SimTime last_planned = 0;
  for (const auto& c : config_.failures.crashes) {
    last_planned = std::max(last_planned, c.at);
  }
  for (const auto& p : config_.failures.partitions) {
    last_planned = std::max(last_planned, p.heal_at);
  }

  while (sim_.now() < config_.time_cap) {
    const std::uint64_t before = progress_signature();
    sim_.run(sim_.now() + config_.settle_slice);
    const bool pending_plan = sim_.now() <= last_planned;
    if (!pending_plan && progress_signature() == before &&
        net_.app_messages_in_flight() == 0 && net_.tokens_in_flight() == 0 &&
        all_up() && total_pending() == 0 && !net_.partitioned()) {
      return true;
    }
  }
  return false;
}

}  // namespace optrec
