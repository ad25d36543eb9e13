// The benchmark's fixed fabrics. Each is one DagConfig, built from the
// public DAG types; the seed reaches every random stream through
// DagConfig::seed (edge error streams, hub corruption, arrival processes).
#include <cstddef>
#include <cstdint>
#include <string>

#include "bench.hpp"

namespace bench {
namespace {

using rxl::TimePs;
using rxl::transport::ArrivalKind;
using rxl::transport::DagConfig;
using rxl::transport::DagEdge;
using rxl::transport::DagFlow;
using rxl::transport::DagNode;
using rxl::transport::DagNodeKind;
using rxl::transport::DagScenarioSpec;
using rxl::transport::Protocol;

/// Drain slack after the last payload could have been served: several
/// retry timeouts, so a replay episode at the very end still completes.
constexpr TimePs kDrainSlack = 40'000'000;  // 40 us

std::uint64_t budget(std::uint64_t full, bool tiny) {
  return tiny ? full / 32 : full;
}

/// Open-loop Poisson arrivals at `load_pct` percent of one wire's
/// 1-flit-per-slot capacity, split evenly across the config's flows.
void poisson_arrivals(DagConfig& config, std::uint64_t load_pct) {
  const std::uint64_t flows = config.flows.size();
  for (DagFlow& flow : config.flows) {
    flow.arrival = ArrivalKind::kPoisson;
    flow.interval = config.slot * flows * 100 / load_pct;
  }
}

/// The paper's switch model: 8 host<->device pairs around one transparent
/// hub, 16 greedy flows, RXL at the 4.5e-5 burst-injection operating point.
DagConfig star8_rxl(std::uint64_t seed, bool tiny) {
  constexpr std::uint16_t kPairs = 8;
  const std::uint64_t flits = budget(1'500, tiny);
  DagConfig config;
  config.protocol.protocol = Protocol::kRxl;
  config.seed = seed;
  for (std::uint16_t i = 0; i < kPairs; ++i) {
    std::string name = "host";
    name += std::to_string(i);
    config.nodes.push_back(DagNode{name, DagNodeKind::kTerminal, {}});
  }
  for (std::uint16_t i = 0; i < kPairs; ++i) {
    std::string name = "dev";
    name += std::to_string(i);
    config.nodes.push_back(DagNode{name, DagNodeKind::kTerminal, {}});
  }
  const std::uint16_t hub = 2 * kPairs;
  config.nodes.push_back(DagNode{"hub", DagNodeKind::kHub, {}});
  auto edge = [](std::uint16_t src, std::uint16_t dst) {
    DagEdge e;
    e.src = src;
    e.dst = dst;
    e.burst_injection_rate = 4.5e-5;
    return e;
  };
  for (std::uint16_t i = 0; i < kPairs; ++i) {
    const std::uint16_t host = i;
    const std::uint16_t device = kPairs + i;
    config.edges.push_back(edge(host, hub));
    config.edges.push_back(edge(hub, device));
    config.edges.push_back(edge(device, hub));
    config.edges.push_back(edge(hub, host));
  }
  for (std::uint16_t i = 0; i < kPairs; ++i)
    config.flows.push_back(
        DagFlow{i, static_cast<std::uint16_t>(kPairs + i), flits, 0xD000u + i});
  for (std::uint16_t i = 0; i < kPairs; ++i)
    config.flows.push_back(
        DagFlow{static_cast<std::uint16_t>(kPairs + i), i, flits, 0xB000u + i});
  // Every flow owns its wires: one flit per slot each way, plus slack.
  config.horizon = static_cast<TimePs>(flits) * config.slot * 2 + kDrainSlack;
  return config;
}

DagScenarioSpec relay_spec(std::uint64_t seed, Protocol protocol,
                           double burst, std::uint64_t flits) {
  DagScenarioSpec spec;
  spec.protocol.protocol = protocol;
  spec.burst_injection_rate = burst;
  spec.flits_per_flow = flits;
  spec.seed = seed;
  spec.hop_credits = 32;
  return spec;
}

/// The load-curves table's hottest cell: 4 sources into one relay whose
/// single sink hop is offered 125% of its capacity.
DagConfig incast4_rxl_overload(std::uint64_t seed, bool tiny) {
  constexpr std::size_t kSources = 4;
  const std::uint64_t flits = budget(2'000, tiny);
  DagScenarioSpec spec = relay_spec(seed, Protocol::kRxl, 1e-3, flits);
  spec.sample_latency = true;
  DagConfig config = rxl::transport::make_incast_dag(spec, kSources);
  poisson_arrivals(config, 125);
  // The sink hop serves one flit per slot; replays get a quarter on top.
  config.horizon =
      static_cast<TimePs>(kSources * flits) * config.slot * 5 / 4 + kDrainSlack;
  return config;
}

/// One flow over 3 relays (4 terminating hops) on a lossy CXL link: the
/// retry path, per-hop CRC and the explicit sequence check.
DagConfig chain3_cxl_lossy(std::uint64_t seed, bool tiny) {
  const std::uint64_t flits = budget(4'000, tiny);
  DagConfig config = rxl::transport::make_chain_dag(
      relay_spec(seed, Protocol::kCxl, 1e-2, flits), 3);
  poisson_arrivals(config, 90);
  // Arrivals end after flits / 0.9 slots; replays stretch service.
  config.horizon =
      static_cast<TimePs>(flits) * config.slot * 3 / 2 + kDrainSlack;
  return config;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  static const Workload all[] = {
      {"star8-rxl", star8_rxl},
      {"incast4-rxl-overload", incast4_rxl_overload},
      {"chain3-cxl-lossy", chain3_cxl_lossy},
  };
  for (const Workload& w : all)
    if (w.name == name) return &w;
  return nullptr;
}

}  // namespace bench
