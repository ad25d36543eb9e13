// The paper's canned fabric scenarios, each expressed as a DagFabric
// topology (dag_fabric.hpp) and reported in its historical shape.
//
//  * The evaluation fabric (§7): host <-> N switch levels <-> device, one
//    transparent switch chain per direction (make_level_dag / run_fabric).
//    Every switch decodes FEC and drops bad flits silently and never reads
//    sequence numbers, so each direction is one ISN domain spliced through
//    a chain of hubs. run_fabric reports per-direction protocol statistics
//    and the application-level failure scoreboards (Fail_order /
//    Fail_data).
//  * The scale-out star: N host/device pairs around one shared hub
//    (make_star_dag / run_star_fabric_via_dag). One pair's drops never
//    perturb another pair's ordering, while contention and error handling
//    are shared.
//
// Both builders replay the seed-draw order of the hand-wired builders they
// replaced as explicit DagEdge/DagNode seeds, so a run is trajectory-
// identical to the old wiring; equivalence tests pin counters recorded
// from those builders field for field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rxl/link/link_layer.hpp"
#include "rxl/switchdev/port_switch.hpp"
#include "rxl/transport/config.hpp"
#include "rxl/transport/dag_fabric.hpp"
#include "rxl/transport/endpoint.hpp"
#include "rxl/txn/scoreboard.hpp"

namespace rxl::transport {

struct FabricConfig {
  ProtocolConfig protocol;
  /// Number of switching levels between host and device (0 = direct link).
  unsigned switch_levels = 1;
  /// Independent-bit-error rate per link.
  double ber = 0.0;
  /// Per-link, per-flit probability of a 4-symbol burst (FEC-uncorrectable
  /// with probability 2/3 at a switch). Used to pin the operating point to
  /// the paper's FER_UC regardless of the BER-to-burst conversion.
  double burst_injection_rate = 0.0;
  std::size_t burst_symbols = 4;
  /// Probability of internal corruption per flit transiting each switch.
  double switch_internal_error_rate = 0.0;
  TimePs slot = kFlitSlotPs;                 ///< serialisation per flit
  TimePs propagation_latency = 8'000;        ///< per link, ps
  TimePs switch_latency = 10'000;            ///< per switch, ps
  std::uint64_t seed = 1;
  /// Application flits to offer in each direction (saturating until
  /// exhausted). 0 disables that direction.
  std::uint64_t downstream_flits = 0;
  std::uint64_t upstream_flits = 0;
  /// Simulated duration.
  TimePs horizon = 0;
};

struct DirectionReport {
  link::EndpointStats tx;              ///< sender-side counters
  link::EndpointStats rx;              ///< receiver-side counters
  EndpointExtraStats tx_extra;
  EndpointExtraStats rx_extra;
  txn::StreamScoreboard::Stats scoreboard;
  std::uint64_t switch_dropped_fec = 0;
  std::uint64_t switch_dropped_crc = 0;
  std::uint64_t switch_fec_corrected = 0;
  std::uint64_t switch_internal_corruptions = 0;
  std::uint64_t channel_flits_corrupted = 0;
  /// Fraction of link capacity delivering unique in-order flits.
  double goodput = 0.0;
  /// 1 - goodput/offered: the paper's BW_loss when the source saturates.
  double bandwidth_loss = 0.0;
};

struct FabricReport {
  DirectionReport downstream;  ///< host -> device
  DirectionReport upstream;    ///< device -> host
  TimePs horizon = 0;
  std::uint64_t slots = 0;  ///< link slot capacity over the horizon
};

/// The evaluation fabric as a DAG. Nodes: host (0), device (1), the
/// downstream switches (2 .. L+1), then the upstream switches. Edges: the
/// downstream wires host -> sw -> ... -> device (ids 0 .. L), then the
/// upstream wires device -> ... -> host (ids L+1 .. 2L+1). Flow 0 runs
/// host -> device (salt 0x00D0), flow 1 device -> host (salt 0x0B0B). Seeds
/// are drawn in the order the hand-wired builder drew them: downstream
/// channels, downstream switches, upstream channels, upstream switches.
[[nodiscard]] DagConfig make_level_dag(const FabricConfig& config);

/// Runs make_level_dag() and repackages the DagReport as a FabricReport.
[[nodiscard]] FabricReport run_fabric(const FabricConfig& config);

/// Pretty one-line summary for examples.
[[nodiscard]] std::string summarize(const FabricReport& report);

struct StarConfig {
  ProtocolConfig protocol;
  std::size_t pairs = 4;
  double ber = 0.0;
  double burst_injection_rate = 0.0;
  std::size_t burst_symbols = 4;
  double switch_internal_error_rate = 0.0;
  TimePs slot = kFlitSlotPs;
  TimePs propagation_latency = 8'000;
  TimePs switch_latency = 10'000;
  std::uint64_t seed = 1;
  std::uint64_t flits_per_direction = 0;  ///< per pair, per direction
  TimePs horizon = 0;
};

struct PairReport {
  txn::StreamScoreboard::Stats downstream;  ///< host i -> device i
  txn::StreamScoreboard::Stats upstream;    ///< device i -> host i
};

struct StarReport {
  std::vector<PairReport> pairs;
  /// The shared switch's aggregate counters, both directions.
  switchdev::PortSwitchStats hub;
  std::uint64_t slots = 0;

  /// Aggregate Fail_order events across all pairs and directions.
  [[nodiscard]] std::uint64_t total_order_failures() const;
  [[nodiscard]] std::uint64_t total_missing() const;
  [[nodiscard]] std::uint64_t total_in_order() const;
};

/// The star as a one-hub DAG: hosts 0 .. N-1, devices N .. 2N-1, then the
/// hub. Per pair the edges are host uplink, device downlink, device uplink
/// and host downlink, so hub port 2i leads to device i and port 2i+1 to
/// host i. Seeds are drawn in the order the hand-wired star builder used
/// (down switch, up switch, then per pair the four channels), so a run is
/// trajectory-identical to it on the same StarConfig (when
/// switch_internal_error_rate is zero; with internal corruption the old
/// build used one RNG stream per direction and the single hub uses one in
/// total).
[[nodiscard]] DagConfig make_star_dag(const StarConfig& config);

/// Runs make_star_dag() and repackages the DagReport as a StarReport.
[[nodiscard]] StarReport run_star_fabric_via_dag(const StarConfig& config);

}  // namespace rxl::transport
