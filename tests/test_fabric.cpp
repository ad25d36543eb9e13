// Full-fabric integration: statistical validation of the paper's claims at
// inflated error rates (the benches sweep these; tests pin the qualitative
// results), plus the field-for-field equivalence of the DAG-backed
// run_fabric with the hand-wired builder it replaced.
#include "rxl/transport/fabric.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rxl/obs/metrics.hpp"
#include "rxl/sim/trial_runner.hpp"

namespace rxl::transport {
namespace {

constexpr Protocol kProtocols[] = {Protocol::kCxl, Protocol::kRxl};

FabricConfig base_config(Protocol protocol) {
  FabricConfig config;
  config.protocol.protocol = protocol;
  config.protocol.coalesce_factor = 10;  // p_coalescing = 0.1
  config.switch_levels = 1;
  config.seed = 2024;
  config.downstream_flits = 30'000;
  config.upstream_flits = 30'000;
  config.horizon = 200'000'000;  // 200 us: 100k slots
  return config;
}

TEST(Fabric, CleanFabricDeliversEverything) {
  const auto reports = sim::run_trials(2, [](std::size_t trial) {
    FabricConfig config = base_config(kProtocols[trial]);
    config.downstream_flits = 5'000;
    config.upstream_flits = 5'000;
    return run_fabric(config);
  });
  for (const FabricReport& report : reports) {
    EXPECT_EQ(report.downstream.scoreboard.in_order, 5'000u);
    EXPECT_EQ(report.downstream.scoreboard.order_violations, 0u);
    EXPECT_EQ(report.upstream.scoreboard.in_order, 5'000u);
    EXPECT_EQ(report.downstream.scoreboard.data_corruptions, 0u);
  }
}

TEST(Fabric, SwitchedCxlSuffersOrderingFailuresUnderDrops) {
  // Paper §7.1.2: drops + ACK piggybacking => undetected ordering
  // violations. Inflated burst rate makes them frequent enough to count.
  FabricConfig config = base_config(Protocol::kCxl);
  config.burst_injection_rate = 1e-2;  // ~6.7e-3 drops/flit after FEC
  const FabricReport report = run_fabric(config);
  EXPECT_GT(report.downstream.switch_dropped_fec, 50u);
  EXPECT_GT(report.downstream.scoreboard.order_violations +
                report.downstream.scoreboard.duplicates,
            0u);
}

TEST(Fabric, SwitchedRxlHasZeroOrderingFailuresUnderSameDrops) {
  FabricConfig config = base_config(Protocol::kRxl);
  config.burst_injection_rate = 5e-3;
  const FabricReport report = run_fabric(config);
  EXPECT_GT(report.downstream.switch_dropped_fec, 50u);  // same physics
  EXPECT_EQ(report.downstream.scoreboard.order_violations, 0u);
  EXPECT_EQ(report.downstream.scoreboard.duplicates, 0u);
  EXPECT_EQ(report.downstream.scoreboard.data_corruptions, 0u);
  // And nothing is lost: drops are retried to completion.
  EXPECT_EQ(report.downstream.scoreboard.missing, 0u);
}

TEST(Fabric, SwitchInternalCorruptionEscapesCxlButNotRxl) {
  // §6.3: CXL switches regenerate the link CRC over internally corrupted
  // data; RXL's end-to-end ECRC catches it.
  const auto reports = sim::run_trials(2, [](std::size_t trial) {
    FabricConfig config = base_config(kProtocols[trial]);
    config.switch_internal_error_rate = 1e-3;
    config.downstream_flits = 20'000;
    config.upstream_flits = 20'000;
    return run_fabric(config);
  });
  const FabricReport& cxl_report = reports[0];
  EXPECT_GT(cxl_report.downstream.switch_internal_corruptions, 0u);
  EXPECT_GT(cxl_report.downstream.scoreboard.data_corruptions, 0u);

  const FabricReport& rxl_report = reports[1];
  EXPECT_GT(rxl_report.downstream.switch_internal_corruptions, 0u);
  EXPECT_EQ(rxl_report.downstream.scoreboard.data_corruptions, 0u);
  EXPECT_EQ(rxl_report.downstream.scoreboard.missing, 0u);
}

TEST(Fabric, MoreSwitchLevelsMeanMoreCxlFailures) {
  // The Fig. 8 shape: CXL ordering failures grow with switching depth.
  // The drop rate must stay low enough that the receiver is rarely in a
  // (self-aware) resync episode — the silent-drop hole only opens in the
  // clean state — so use a modest rate over a long run.
  const auto failures = sim::run_trials(2, [](std::size_t trial) {
    FabricConfig config = base_config(Protocol::kCxl);
    config.switch_levels = trial == 0 ? 1u : 4u;
    config.burst_injection_rate = 1e-3;
    config.downstream_flits = 150'000;
    config.upstream_flits = 150'000;
    config.horizon = 700'000'000;  // 700 us = 350k slots
    const FabricReport report = run_fabric(config);
    return report.downstream.scoreboard.order_violations +
           report.downstream.scoreboard.duplicates +
           report.upstream.scoreboard.order_violations +
           report.upstream.scoreboard.duplicates;
  });
  const std::uint64_t shallow = failures[0];
  const std::uint64_t deep = failures[1];
  EXPECT_GT(shallow, 0u);
  EXPECT_GT(deep, shallow);
}

TEST(Fabric, BerDrivenErrorsAreMostlyCorrected) {
  // At BER 1e-5, nearly every corrupted flit carries a single-bit error the
  // FEC fixes; goodput should stay near 1 with zero failures.
  FabricConfig config = base_config(Protocol::kRxl);
  config.ber = 1e-5;
  config.downstream_flits = 20'000;
  config.upstream_flits = 20'000;
  const FabricReport report = run_fabric(config);
  EXPECT_GT(report.downstream.channel_flits_corrupted, 100u);
  EXPECT_EQ(report.downstream.scoreboard.missing, 0u);
  const double corrected_share =
      static_cast<double>(report.downstream.switch_fec_corrected +
                          report.downstream.rx.fec_corrected_flits) /
      static_cast<double>(report.downstream.channel_flits_corrupted);
  EXPECT_GT(corrected_share, 0.95);
}

TEST(Fabric, ReportsChannelCapacity) {
  FabricConfig config = base_config(Protocol::kRxl);
  const FabricReport report = run_fabric(config);
  EXPECT_EQ(report.slots, config.horizon / config.slot);
  EXPECT_GT(report.downstream.goodput, 0.0);
  EXPECT_LE(report.downstream.goodput, 1.0);
}

TEST(Fabric, DeterministicAcrossRunsAndWorkerCounts) {
  // The same config must reproduce exactly, whether the two trials run
  // serially or sharded across TrialRunner workers.
  // Half the old single-comparison traffic per trial: four sims run here
  // (serial pair + sharded pair), so this keeps the suite's wall-time flat
  // while still exercising thousands of flits per universe.
  auto trial = [](std::size_t) {
    FabricConfig config = base_config(Protocol::kCxl);
    config.burst_injection_rate = 2e-3;
    config.downstream_flits = 5'000;
    config.upstream_flits = 5'000;
    return run_fabric(config);
  };
  const auto serial = sim::run_trials(2, trial, /*workers=*/1);
  const auto sharded = sim::run_trials(2, trial, /*workers=*/2);
  for (const auto* reports : {&serial, &sharded}) {
    const FabricReport& first = (*reports)[0];
    const FabricReport& second = (*reports)[1];
    EXPECT_EQ(first.downstream.scoreboard.in_order,
              second.downstream.scoreboard.in_order);
    EXPECT_EQ(first.downstream.scoreboard.order_violations,
              second.downstream.scoreboard.order_violations);
    EXPECT_EQ(first.downstream.switch_dropped_fec,
              second.downstream.switch_dropped_fec);
  }
  EXPECT_EQ(serial[0].downstream.scoreboard.in_order,
            sharded[0].downstream.scoreboard.in_order);
  EXPECT_EQ(serial[0].downstream.switch_dropped_fec,
            sharded[0].downstream.switch_dropped_fec);
}

TEST(Fabric, SummaryMentionsKeyCounters) {
  FabricConfig config = base_config(Protocol::kRxl);
  config.downstream_flits = 1'000;
  config.upstream_flits = 1'000;
  config.horizon = 50'000'000;
  const FabricReport report = run_fabric(config);
  const std::string text = summarize(report);
  EXPECT_NE(text.find("in-order"), std::string::npos);
  EXPECT_NE(text.find("downstream"), std::string::npos);
}

// --------------------------------------------------------------------------
// Equivalence with the hand-wired builder
// --------------------------------------------------------------------------

/// One recorded configuration: L switch levels, a protocol, an error mix.
struct LevelCase {
  unsigned levels;
  Protocol protocol;
  int errors;  ///< 0 clean, 1 burst+BER, 2 switch internal corruption
  std::uint64_t upstream_flits;
};

std::string case_name(const LevelCase& c) {
  std::string name = "L";
  name += std::to_string(c.levels);
  name += c.protocol == Protocol::kCxl ? ".cxl" : ".rxl";
  name += c.errors == 0 ? ".clean" : c.errors == 1 ? ".burst+ber" : ".internal";
  if (c.upstream_flits == 0) name += ".no-upstream";
  return name;
}

FabricConfig case_config(const LevelCase& c) {
  FabricConfig config;
  config.protocol.protocol = c.protocol;
  config.protocol.coalesce_factor = 10;
  config.switch_levels = c.levels;
  if (c.errors == 1) {
    config.ber = 2e-5;
    config.burst_injection_rate = 4e-3;
  } else if (c.errors == 2) {
    config.switch_internal_error_rate = 2e-3;
  }
  config.seed = 0x1E7E1 + c.levels;
  config.downstream_flits = 5'000;
  config.upstream_flits = c.upstream_flits;
  config.horizon = 8'000'000;  // 8 us = 4000 slots: saturating, part drained
  return config;
}

std::vector<LevelCase> level_cases() {
  std::vector<LevelCase> cases;
  for (const unsigned levels : {0u, 1u, 2u, 4u})
    for (const Protocol protocol : {Protocol::kRxl, Protocol::kCxl})
      for (const int errors : {0, 1, 2})
        cases.push_back(LevelCase{levels, protocol, errors, 5'000});
  cases.push_back(LevelCase{2, Protocol::kCxl, 1, 0});
  return cases;
}

/// Every FabricReport field, in a fixed order (doubles by their bits).
obs::MetricsRegistry fabric_fields(const FabricReport& report) {
  obs::MetricsRegistry fields;
  for (const bool down : {true, false}) {
    const DirectionReport& d = down ? report.downstream : report.upstream;
    const std::string prefix = down ? "down" : "up";
    fields.add_endpoint(prefix + ".tx", d.tx);
    fields.add_endpoint(prefix + ".rx", d.rx);
    fields.add_endpoint_extra(prefix + ".tx", d.tx_extra);
    fields.add_endpoint_extra(prefix + ".rx", d.rx_extra);
    fields.add_scoreboard(prefix, d.scoreboard);
    fields.add(prefix + ".switch_dropped_fec", d.switch_dropped_fec);
    fields.add(prefix + ".switch_dropped_crc", d.switch_dropped_crc);
    fields.add(prefix + ".switch_fec_corrected", d.switch_fec_corrected);
    fields.add(prefix + ".switch_internal_corruptions",
               d.switch_internal_corruptions);
    fields.add(prefix + ".channel_flits_corrupted", d.channel_flits_corrupted);
    fields.add(prefix + ".goodput_bits",
               std::bit_cast<std::uint64_t>(d.goodput));
    fields.add(prefix + ".bandwidth_loss_bits",
               std::bit_cast<std::uint64_t>(d.bandwidth_loss));
  }
  fields.add("horizon", report.horizon);
  fields.add("slots", report.slots);
  return fields;
}

TEST(Fabric, DagBackedRunMatchesRecordedHandWiredBuilder) {
  // tests/data/fabric_level_legacy.txt holds these cases' counters as the
  // hand-wired builder (two per-direction chains of single-port switch
  // devices) produced them. The DAG-backed run replays its seed draws, so
  // every field must match: 0, 1, 2 and 4 switch levels, RXL and CXL,
  // clean links, burst+BER links, switch internal corruption, and a
  // direction that offers nothing.
  std::ifstream file(RXL_TEST_DATA_DIR "/fabric_level_legacy.txt");
  ASSERT_TRUE(file.is_open());
  std::vector<std::string> recorded;
  for (std::string line; std::getline(file, line);)
    if (!line.empty() && line[0] != '#') recorded.push_back(line);
  const std::vector<LevelCase> cases = level_cases();
  ASSERT_EQ(recorded.size(), cases.size());
  const auto reports = sim::run_trials(cases.size(), [&](std::size_t i) {
    return run_fabric(case_config(cases[i]));
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::istringstream line(recorded[i]);
    std::string name;
    line >> name;
    ASSERT_EQ(name, case_name(cases[i]));
    const obs::MetricsRegistry fields = fabric_fields(reports[i]);
    for (const obs::Metric& field : fields.metrics()) {
      std::uint64_t expected = 0;
      ASSERT_TRUE(line >> expected) << name << " ends before " << field.name;
      EXPECT_EQ(field.value, expected) << name << " " << field.name;
    }
    std::string extra;
    EXPECT_FALSE(line >> extra) << name << " has unread recorded fields";
  }
}

}  // namespace
}  // namespace rxl::transport
