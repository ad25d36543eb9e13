// Multi-hop DAG scenario table: chains of growing depth, a two-stage
// butterfly, a folded fat tree, an asymmetric join/branch DAG, and the
// legacy star re-expressed as a one-hub DAG — each under both protocol
// stacks at an inflated burst rate.
//
// Two regimes meet in one table. Relay topologies terminate the link
// protocol per hop (DNP style): every hop retries independently and
// acknowledgments travel standalone, so both stacks deliver cleanly and the
// cost shows up as hop retransmissions. The hub topology keeps the domain
// end-to-end across a transparent switch: silent drops there reopen the
// paper's §4.1 ordering hole for CXL while RXL's ISN stays exact.
//
// Output is deterministic (a pure function of the fixed seeds) and byte
// identical for any RXL_TRIAL_WORKERS; CI diffs the 1-vs-4-worker outputs.
#include <cstdio>
#include <string>

#include "rxl/sim/stats.hpp"
#include "rxl/sim/trial_runner.hpp"
#include "rxl/transport/dag_fabric.hpp"
#include "rxl/transport/fabric.hpp"

using namespace rxl;

namespace {

enum class Family { kChain, kButterfly, kFatTree, kAsymmetric, kStarDag };

struct ScenarioCase {
  const char* name;
  Family family;
  std::size_t relays = 0;  // chain depth
  transport::Protocol protocol;
};

transport::DagConfig build(const ScenarioCase& scenario) {
  transport::DagScenarioSpec spec;
  spec.protocol.protocol = scenario.protocol;
  spec.protocol.coalesce_factor = 10;
  spec.burst_injection_rate = 2e-3;
  spec.flits_per_flow = 2'000;
  spec.seed = 97;
  spec.horizon = 100'000'000;  // 100 us
  switch (scenario.family) {
    case Family::kChain:
      return transport::make_chain_dag(spec, scenario.relays);
    case Family::kButterfly:
      spec.flits_per_flow = 1'200;
      return transport::make_butterfly_dag(spec);
    case Family::kFatTree:
      spec.flits_per_flow = 1'200;
      return transport::make_fat_tree_dag(spec);
    case Family::kAsymmetric:
      return transport::make_asymmetric_dag(spec);
    case Family::kStarDag:
      break;
  }
  transport::StarConfig star;
  star.protocol = spec.protocol;
  star.pairs = 4;
  star.ber = 0.0;
  star.burst_injection_rate = 2e-3;
  star.seed = 97;
  star.flits_per_direction = 1'200;
  star.horizon = 100'000'000;
  return transport::make_star_dag(star);
}

struct Row {
  std::size_t links = 0;  ///< longest flow path, in links
  std::size_t flows = 0;
  std::uint64_t offered = 0;
  std::uint64_t in_order = 0;
  std::uint64_t order_failures = 0;
  std::uint64_t missing = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t hop_retransmissions = 0;
  std::uint64_t max_queue_depth = 0;
};

Row run_scenario(const ScenarioCase& scenario) {
  const transport::DagReport report =
      transport::run_dag_fabric(build(scenario));
  Row row;
  row.flows = report.flows.size();
  for (const transport::DagFlowReport& flow : report.flows)
    if (flow.path_edges.size() > row.links) row.links = flow.path_edges.size();
  row.offered = report.total_offered();
  row.in_order = report.total_in_order();
  row.order_failures = report.total_order_failures();
  row.missing = report.total_missing();
  row.corruptions = report.total_data_corruptions();
  row.hop_retransmissions = report.total_hop_retransmissions();
  for (const transport::DagRelayReport& relay : report.relays)
    for (const transport::DagRelayPort& port : relay.ports)
      if (port.stats.max_queue_depth > row.max_queue_depth)
        row.max_queue_depth = port.stats.max_queue_depth;
  return row;
}

}  // namespace

int main() {
  std::printf(
      "RXL reproduction — multi-hop DAG fabrics (per-hop ISN domains)\n"
      "===============================================================\n\n"
      "Burst injection 2e-3 per link per flit. Relay rows terminate the\n"
      "link protocol at every hop (independent retry domains, standalone\n"
      "acks); the star-dag rows cross one transparent hub, leaving the\n"
      "domain end-to-end as in the paper's switched scenarios.\n\n");

  constexpr transport::Protocol kCxl = transport::Protocol::kCxl;
  constexpr transport::Protocol kRxl = transport::Protocol::kRxl;
  const ScenarioCase cases[] = {
      {"chain-1", Family::kChain, 1, kCxl},
      {"chain-1", Family::kChain, 1, kRxl},
      {"chain-2", Family::kChain, 2, kCxl},
      {"chain-2", Family::kChain, 2, kRxl},
      {"chain-3", Family::kChain, 3, kCxl},
      {"chain-3", Family::kChain, 3, kRxl},
      {"chain-4", Family::kChain, 4, kCxl},
      {"chain-4", Family::kChain, 4, kRxl},
      {"chain-5", Family::kChain, 5, kCxl},
      {"chain-5", Family::kChain, 5, kRxl},
      {"chain-6", Family::kChain, 6, kCxl},
      {"chain-6", Family::kChain, 6, kRxl},
      {"butterfly", Family::kButterfly, 0, kCxl},
      {"butterfly", Family::kButterfly, 0, kRxl},
      {"fat-tree", Family::kFatTree, 0, kCxl},
      {"fat-tree", Family::kFatTree, 0, kRxl},
      {"asymmetric", Family::kAsymmetric, 0, kCxl},
      {"asymmetric", Family::kAsymmetric, 0, kRxl},
      {"star-dag", Family::kStarDag, 0, kCxl},
      {"star-dag", Family::kStarDag, 0, kRxl},
  };
  constexpr std::size_t kCases = sizeof(cases) / sizeof(cases[0]);

  const auto rows = sim::run_trials(
      kCases, [&](std::size_t trial) { return run_scenario(cases[trial]); });

  sim::TextTable table({"scenario", "links", "proto", "flows", "offered",
                        "in order", "ord fail", "missing", "corrupt",
                        "hop retx", "max queue"});
  for (std::size_t i = 0; i < kCases; ++i) {
    const Row& row = rows[i];
    table.add_row({cases[i].name, std::to_string(row.links),
                   transport::protocol_name(cases[i].protocol),
                   std::to_string(row.flows), std::to_string(row.offered),
                   std::to_string(row.in_order),
                   std::to_string(row.order_failures),
                   std::to_string(row.missing),
                   std::to_string(row.corruptions),
                   std::to_string(row.hop_retransmissions),
                   std::to_string(row.max_queue_depth)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: every relay row delivers its full budget exactly once for\n"
      "BOTH stacks — hop-by-hop termination with standalone acks closes the\n"
      "ack-masking hole, at the cost of the listed hop retransmissions and\n"
      "store-and-forward queueing. The transparent-hub star rows keep the\n"
      "domain end-to-end: CXL leaks ordering failures there, RXL does not.\n");
  return 0;
}
