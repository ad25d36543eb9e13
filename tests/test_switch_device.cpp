// One switching-device stage (a PortSwitch with ports = 1, as each level of
// the host <-> N-switch <-> device fabric uses it): FEC correct/drop, CRC
// handling per protocol, internal corruption semantics (the §6.3/§6.4
// distinction).
#include "rxl/switchdev/port_switch.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "rxl/crc/isn_crc.hpp"
#include "rxl/phy/error_model.hpp"

namespace rxl::switchdev {
namespace {

using transport::FlitCodec;
using transport::Protocol;

PortSwitch::Config stage_config() {
  PortSwitch::Config config;
  config.ports = 1;
  return config;
}

struct Harness {
  sim::EventQueue queue;
  std::optional<PortSwitch> sw;
  std::optional<sim::LinkChannel> out;
  std::vector<sim::FlitEnvelope> received;

  explicit Harness(const PortSwitch::Config& config, std::uint64_t seed = 1) {
    sw.emplace(queue, config, seed);
    out.emplace(queue, std::make_unique<phy::NoErrors>(), seed + 1);
    out->set_receiver(
        [this](sim::FlitEnvelope&& envelope) { received.push_back(envelope); });
    sw->set_output(0, &*out);
  }
};

sim::FlitEnvelope data_envelope(const FlitCodec& codec, std::uint16_t seq) {
  std::vector<std::uint8_t> payload(kPayloadBytes, 0x42);
  sim::FlitEnvelope envelope;
  envelope.flit = codec.encode_data(payload, seq, std::nullopt);
  envelope.pristine = true;
  envelope.origin_fingerprint = flit::flit_fingerprint(envelope.flit);
  envelope.truth_index = seq;
  envelope.has_truth = true;
  return envelope;
}

TEST(SwitchDevice, ForwardsPristineFlit) {
  PortSwitch::Config config = stage_config();
  config.protocol = Protocol::kRxl;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  harness.sw->on_flit(data_envelope(codec, 0));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 1u);
  EXPECT_TRUE(harness.received[0].pristine);
  EXPECT_EQ(harness.sw->stats().flits_forwarded, 1u);
  EXPECT_EQ(harness.sw->stats().dropped_fec, 0u);
}

TEST(SwitchDevice, ForwardLatencyApplied) {
  PortSwitch::Config config = stage_config();
  config.forward_latency = 12'345;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  harness.sw->on_flit(data_envelope(codec, 0));
  harness.queue.run();
  // forward latency + output slot + output latency (2000 + 2000 defaults).
  EXPECT_EQ(harness.queue.now(), 12'345u + 2000u + 2000u);
}

TEST(SwitchDevice, CorrectsSingleSymbolAndRestoresPristine) {
  PortSwitch::Config config = stage_config();
  config.protocol = Protocol::kRxl;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  auto envelope = data_envelope(codec, 1);
  envelope.flit.bytes()[50] ^= 0xFF;
  envelope.pristine = false;
  harness.sw->on_flit(std::move(envelope));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 1u);
  EXPECT_TRUE(harness.received[0].pristine);  // true correction, fingerprint ok
  EXPECT_EQ(harness.sw->stats().fec_corrected, 1u);
}

TEST(SwitchDevice, DropsUncorrectableSilently) {
  // The silent flit drop at the heart of the paper: no NACK, no forward.
  PortSwitch::Config config = stage_config();
  config.protocol = Protocol::kRxl;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  auto envelope = data_envelope(codec, 2);
  envelope.flit.bytes()[10] ^= 0x5A;
  envelope.flit.bytes()[13] ^= 0x5A;  // same-lane equal pair: surely fatal
  envelope.pristine = false;
  harness.sw->on_flit(std::move(envelope));
  harness.queue.run();
  EXPECT_TRUE(harness.received.empty());
  EXPECT_EQ(harness.sw->stats().dropped_fec, 1u);
  EXPECT_EQ(harness.sw->stats().flits_forwarded, 0u);
}

TEST(SwitchDevice, CxlRegeneratesCrcOverInternalCorruption) {
  // CXL: internal corruption is re-signed by the switch's link-layer CRC —
  // the endpoint will accept corrupt data (Fail_data).
  PortSwitch::Config config = stage_config();
  config.protocol = Protocol::kCxl;
  config.internal_error_rate = 1.0;  // corrupt every transit
  Harness harness(config, 99);
  FlitCodec codec(Protocol::kCxl);
  harness.sw->on_flit(data_envelope(codec, 3));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 1u);
  EXPECT_EQ(harness.sw->stats().internal_corruptions, 1u);
  const flit::Flit& out = harness.received[0].flit;
  // Link CRC is VALID over the corrupted content...
  crc::IsnCrc isn;
  EXPECT_EQ(isn.encode_plain(out.crc_protected_region()), out.crc_field());
  // ...yet the content differs from what the endpoint sent.
  const flit::Flit original = codec.encode_data(
      std::vector<std::uint8_t>(kPayloadBytes, 0x42), 3, std::nullopt);
  EXPECT_FALSE(out == original);
}

TEST(SwitchDevice, RxlPreservesEcrcOverInternalCorruption) {
  // RXL: the switch cannot re-sign; the stale ECRC travels on and the
  // endpoint's ISN check will reject the flit.
  PortSwitch::Config config = stage_config();
  config.protocol = Protocol::kRxl;
  config.internal_error_rate = 1.0;
  Harness harness(config, 99);
  FlitCodec codec(Protocol::kRxl);
  harness.sw->on_flit(data_envelope(codec, 4));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 1u);
  const flit::Flit& out = harness.received[0].flit;
  const transport::RxCheck check = codec.check_data(out, /*expected_seq=*/4);
  EXPECT_FALSE(check.crc_ok);
  // But the FEC was refreshed, so the next hop will not drop it.
  rs::FlitFec fec;
  flit::Flit copy = out;
  EXPECT_TRUE(fec.decode(copy.bytes()).accepted());
}

TEST(SwitchDevice, CxlDropsOnLinkCrcMismatch) {
  // A miscorrected-FEC image (valid codeword, wrong bytes) reaches the CXL
  // switch's CRC check and is dropped there.
  PortSwitch::Config config = stage_config();
  config.protocol = Protocol::kCxl;
  Harness harness(config);
  FlitCodec codec(Protocol::kCxl);
  auto envelope = data_envelope(codec, 5);
  // Corrupt payload then re-encode FEC only: FEC passes, CRC stale.
  envelope.flit.payload()[0] ^= 0x01;
  codec.apply_fec(envelope.flit);
  envelope.pristine = false;
  harness.sw->on_flit(std::move(envelope));
  harness.queue.run();
  EXPECT_TRUE(harness.received.empty());
  EXPECT_EQ(harness.sw->stats().dropped_crc, 1u);
}

TEST(SwitchDevice, NoOutputConfiguredIsSafe) {
  PortSwitch::Config config = stage_config();
  sim::EventQueue queue;
  PortSwitch sw(queue, config, 1);
  FlitCodec codec(Protocol::kRxl);
  sw.on_flit(data_envelope(codec, 0));
  queue.run();
  // Processed, nowhere to go: counted as unroutable, never forwarded.
  EXPECT_EQ(sw.stats().flits_in, 1u);
  EXPECT_EQ(sw.stats().dropped_no_route, 1u);
  EXPECT_EQ(sw.stats().flits_forwarded, 0u);
}

}  // namespace
}  // namespace rxl::switchdev
