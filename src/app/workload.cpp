#include "src/app/workload.h"

#include <stdexcept>

#include <memory>

#include "src/app/bank_app.h"
#include "src/app/counter_app.h"
#include "src/app/gossip_app.h"
#include "src/app/pingpong_app.h"
#include "src/service/service_app.h"

namespace optrec {

AppFactory WorkloadSpec::make_factory() const {
  switch (kind) {
    case WorkloadKind::kCounter: {
      CounterAppConfig config;
      config.initial_jobs = intensity;
      config.hops = depth;
      config.payload_pad = payload_pad;
      config.all_seed = all_seed;
      return CounterApp::factory(config);
    }
    case WorkloadKind::kPingPong: {
      PingPongConfig config;
      config.rounds = depth;
      return PingPongApp::factory(config);
    }
    case WorkloadKind::kBank: {
      BankAppConfig config;
      config.initial_transfers = intensity;
      config.hops = depth;
      return BankApp::factory(config);
    }
    case WorkloadKind::kGossip: {
      GossipConfig config;
      config.rumors = intensity;
      config.max_forward_hops = depth;
      return GossipApp::factory(config);
    }
    case WorkloadKind::kService: {
      // Client-driven: intensity = accounts per process (scaled), depth
      // unused. Traffic arrives via ServiceFrontend injection, not
      // self-seeding.
      service::ServiceAppConfig config;
      if (intensity > 0) config.accounts = intensity * 16;
      return [config](ProcessId pid, std::size_t n) {
        return std::make_unique<service::ServiceApp>(pid, n, config);
      };
    }
  }
  throw std::invalid_argument("unknown workload kind");
}

std::string WorkloadSpec::name() const {
  switch (kind) {
    case WorkloadKind::kCounter: return "counter";
    case WorkloadKind::kPingPong: return "pingpong";
    case WorkloadKind::kBank: return "bank";
    case WorkloadKind::kGossip: return "gossip";
    case WorkloadKind::kService: return "service";
  }
  return "?";
}

WorkloadKind workload_from_name(const std::string& name) {
  for (WorkloadKind kind :
       {WorkloadKind::kCounter, WorkloadKind::kPingPong, WorkloadKind::kBank,
        WorkloadKind::kGossip, WorkloadKind::kService}) {
    if (WorkloadSpec{kind}.name() == name) return kind;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace optrec
