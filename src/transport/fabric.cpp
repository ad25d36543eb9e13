#include "rxl/transport/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "rxl/common/rng.hpp"

namespace rxl::transport {
namespace {

/// Fabric-wide DagConfig fields shared by FabricConfig and StarConfig.
template <typename Scenario>
DagConfig base_dag(const Scenario& config) {
  DagConfig dag;
  dag.protocol = config.protocol;
  dag.slot = config.slot;
  dag.hub_latency = config.switch_latency;
  dag.hub_internal_error_rate = config.switch_internal_error_rate;
  dag.seed = config.seed;
  dag.horizon = config.horizon;
  return dag;
}

/// One wire with the scenario's uniform error process and an explicit,
/// replayed channel seed.
template <typename Scenario>
DagEdge scenario_wire(const Scenario& config, std::uint16_t src,
                      std::uint16_t dst, std::uint64_t seed) {
  DagEdge edge;
  edge.src = src;
  edge.dst = dst;
  edge.ber = config.ber;
  edge.burst_injection_rate = config.burst_injection_rate;
  edge.burst_symbols = config.burst_symbols;
  edge.latency = config.propagation_latency;
  edge.seed = seed;
  return edge;
}

}  // namespace

// ---------------------------------------------------------------------------
// host <-> N switch levels <-> device
// ---------------------------------------------------------------------------

DagConfig make_level_dag(const FabricConfig& config) {
  DagConfig dag = base_dag(config);
  dag.nodes.push_back(DagNode{"host", DagNodeKind::kTerminal, {}});
  dag.nodes.push_back(DagNode{"device", DagNodeKind::kTerminal, {}});
  const unsigned levels = config.switch_levels;
  Xoshiro256 seeder(config.seed);
  // One direction: its L+1 wires (seeds drawn first), then its L switches,
  // chained from -> sw[0] -> ... -> sw[L-1] -> to.
  auto add_direction = [&](std::uint16_t from, std::uint16_t to,
                           const char* prefix) {
    const std::uint16_t first = static_cast<std::uint16_t>(dag.nodes.size());
    for (unsigned hop = 0; hop <= levels; ++hop) {
      const std::uint16_t src =
          hop == 0 ? from : static_cast<std::uint16_t>(first + hop - 1);
      const std::uint16_t dst =
          hop == levels ? to : static_cast<std::uint16_t>(first + hop);
      dag.edges.push_back(scenario_wire(config, src, dst, seeder()));
    }
    for (unsigned level = 0; level < levels; ++level) {
      std::string name = prefix;
      name += std::to_string(level);
      dag.nodes.push_back(
          DagNode{std::move(name), DagNodeKind::kHub, seeder()});
    }
  };
  add_direction(0, 1, "down_sw");
  add_direction(1, 0, "up_sw");
  dag.flows.push_back(DagFlow{0, 1, config.downstream_flits, 0x00D0});
  dag.flows.push_back(DagFlow{1, 0, config.upstream_flits, 0x0B0B});
  return dag;
}

FabricReport run_fabric(const FabricConfig& config) {
  assert(config.horizon > 0);
  const DagReport dag = run_dag_fabric(make_level_dag(config));
  FabricReport report;
  report.horizon = config.horizon;
  report.slots = config.horizon / config.slot;
  // The two directions pair into one bidirectional domain whose side a is
  // the host (flow 0's segment comes first).
  assert(dag.hops.size() == 1);
  const DagLinkStats& hop = dag.hops.front();
  const unsigned levels = config.switch_levels;
  auto direction = [&](bool down) {
    DirectionReport d;
    d.tx = down ? hop.a : hop.b;
    d.rx = down ? hop.b : hop.a;
    d.tx_extra = down ? hop.a_extra : hop.b_extra;
    d.rx_extra = down ? hop.b_extra : hop.a_extra;
    d.scoreboard = dag.flows[down ? 0 : 1].scoreboard;
    for (const DagHubReport& hub : dag.hubs) {
      if ((hub.node < 2 + levels) != down) continue;
      d.switch_dropped_fec += hub.stats.dropped_fec;
      d.switch_dropped_crc += hub.stats.dropped_crc;
      d.switch_fec_corrected += hub.stats.fec_corrected;
      d.switch_internal_corruptions += hub.stats.internal_corruptions;
    }
    const std::size_t first_edge = down ? 0 : levels + 1;
    for (std::size_t e = first_edge; e <= first_edge + levels; ++e)
      d.channel_flits_corrupted += dag.edge_channels[e].flits_corrupted;
    if (report.slots > 0) {
      d.goodput = static_cast<double>(d.scoreboard.in_order) /
                  static_cast<double>(report.slots);
      d.bandwidth_loss = 1.0 - d.goodput;
    }
    return d;
  };
  report.downstream = direction(true);
  report.upstream = direction(false);
  return report;
}

std::string summarize(const FabricReport& report) {
  char buf[512];
  const auto& d = report.downstream.scoreboard;
  const auto& u = report.upstream.scoreboard;
  std::snprintf(
      buf, sizeof buf,
      "downstream: %llu in-order, %llu order-violations, %llu dups, "
      "%llu corrupt | upstream: %llu in-order, %llu order-violations, "
      "%llu dups, %llu corrupt | switch drops (fec) %llu/%llu",
      static_cast<unsigned long long>(d.in_order),
      static_cast<unsigned long long>(d.order_violations),
      static_cast<unsigned long long>(d.duplicates),
      static_cast<unsigned long long>(d.data_corruptions),
      static_cast<unsigned long long>(u.in_order),
      static_cast<unsigned long long>(u.order_violations),
      static_cast<unsigned long long>(u.duplicates),
      static_cast<unsigned long long>(u.data_corruptions),
      static_cast<unsigned long long>(report.downstream.switch_dropped_fec),
      static_cast<unsigned long long>(report.upstream.switch_dropped_fec));
  return buf;
}

// ---------------------------------------------------------------------------
// The scale-out star: N pairs around one hub
// ---------------------------------------------------------------------------

DagConfig make_star_dag(const StarConfig& config) {
  DagConfig dag = base_dag(config);
  const std::size_t n = config.pairs;
  // Seed draw order of the hand-wired star builder: down switch, up switch,
  // then per pair the four channels (host uplink, device downlink, device
  // uplink, host downlink).
  Xoshiro256 seeder(config.seed);
  const std::uint64_t hub_seed = seeder();
  (void)seeder();  // the old up-switch stream; the single hub has one

  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "host";
    name += std::to_string(i);
    dag.nodes.push_back(DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "dev";
    name += std::to_string(i);
    dag.nodes.push_back(DagNode{std::move(name), DagNodeKind::kTerminal, {}});
  }
  const std::uint16_t hub = static_cast<std::uint16_t>(2 * n);
  dag.nodes.push_back(DagNode{"hub", DagNodeKind::kHub, hub_seed});
  // 2N terminals + the hub: keep validation permissive for large stars.
  dag.max_ports = std::max<std::size_t>(dag.max_ports, 4 * n);

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t host = static_cast<std::uint16_t>(i);
    const std::uint16_t device = static_cast<std::uint16_t>(n + i);
    dag.edges.push_back(scenario_wire(config, host, hub, seeder()));
    dag.edges.push_back(scenario_wire(config, hub, device, seeder()));
    dag.edges.push_back(scenario_wire(config, device, hub, seeder()));
    dag.edges.push_back(scenario_wire(config, hub, host, seeder()));
  }
  for (std::size_t i = 0; i < n; ++i)
    dag.flows.push_back(DagFlow{static_cast<std::uint16_t>(i),
                                static_cast<std::uint16_t>(n + i),
                                config.flits_per_direction, 0xD000 + i});
  for (std::size_t i = 0; i < n; ++i)
    dag.flows.push_back(DagFlow{static_cast<std::uint16_t>(n + i),
                                static_cast<std::uint16_t>(i),
                                config.flits_per_direction, 0xB000 + i});
  return dag;
}

StarReport run_star_fabric_via_dag(const StarConfig& config) {
  const DagReport dag = run_dag_fabric(make_star_dag(config));
  StarReport report;
  report.slots = config.slot > 0
                     ? static_cast<std::uint64_t>(config.horizon / config.slot)
                     : 0;
  const std::size_t n = config.pairs;
  report.pairs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    report.pairs[i].downstream = dag.flows[i].scoreboard;
    report.pairs[i].upstream = dag.flows[n + i].scoreboard;
  }
  if (!dag.hubs.empty()) report.hub = dag.hubs.front().stats;
  return report;
}

std::uint64_t StarReport::total_order_failures() const {
  std::uint64_t total = 0;
  for (const PairReport& pair : pairs) {
    total += pair.downstream.order_violations + pair.downstream.duplicates;
    total += pair.upstream.order_violations + pair.upstream.duplicates;
  }
  return total;
}

std::uint64_t StarReport::total_missing() const {
  std::uint64_t total = 0;
  for (const PairReport& pair : pairs)
    total += pair.downstream.missing + pair.upstream.missing;
  return total;
}

std::uint64_t StarReport::total_in_order() const {
  std::uint64_t total = 0;
  for (const PairReport& pair : pairs)
    total += pair.downstream.in_order + pair.upstream.in_order;
  return total;
}

}  // namespace rxl::transport
