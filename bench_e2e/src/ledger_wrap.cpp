// Ledger of the traced binary. The link step passes GNU ld
// `--wrap=<symbol>` for every BENCH_SYMBOL_* below (CMakeLists.txt reads
// them from this file), so each call into a layer's public entry point
// from another translation unit of the library lands in a wrapper here,
// which opens a span, calls the real function, and closes the span.
//
// A span's self time is its duration minus the durations of the spans
// nested inside it; the armed interval minus every top-level span is the
// residual. Calls a function makes within its own translation unit are not
// interposed (RelaySwitch::on_delivered, ArrivalProcess::next_gap, the
// latency histogram, event dispatch) and so show up as residual.
//
// The wrappers are declared as free functions taking the object pointer
// first, which on the Itanium C++ ABI is how the member functions they
// stand in for are called. Each signature must match the library's
// declaration exactly; a renamed or re-typed entry point fails the link
// on its __real_ symbol instead of miscompiling.
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

#include "bench.hpp"
#include "rxl/common/bytes.hpp"
#include "rxl/crc/crc64.hpp"
#include "rxl/link/retry_buffer.hpp"
#include "rxl/rs/flit_fec.hpp"
#include "rxl/sim/event_queue.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/switchdev/port_switch.hpp"
#include "rxl/transport/endpoint.hpp"
#include "rxl/transport/flit_codec.hpp"
#include "rxl/txn/scoreboard.hpp"

// clang-format off
#define BENCH_SYMBOL_CRC_UPDATE "_ZNK3rxl3crc5Crc646updateEmSt4spanIKhLm18446744073709551615EE"
#define BENCH_SYMBOL_CRC_UPDATE_SLICED "_ZNK3rxl3crc5Crc6413update_slicedEmSt4spanIKhLm18446744073709551615EE"
#define BENCH_SYMBOL_FEC_ENCODE "_ZNK3rxl2rs7FlitFec6encodeESt4spanIhLm18446744073709551615EE"
#define BENCH_SYMBOL_FEC_DECODE "_ZNK3rxl2rs7FlitFec6decodeESt4spanIhLm18446744073709551615EE"
#define BENCH_SYMBOL_CODEC_ENCODE_DATA "_ZNK3rxl9transport9FlitCodec11encode_dataESt4spanIKhLm18446744073709551615EEtSt8optionalItE"
#define BENCH_SYMBOL_CODEC_CHECK_DATA "_ZNK3rxl9transport9FlitCodec10check_dataERKNS_4flit4FlitEt"
#define BENCH_SYMBOL_CODEC_CHECK_CONTROL "_ZNK3rxl9transport9FlitCodec13check_controlERKNS_4flit4FlitE"
#define BENCH_SYMBOL_CODEC_APPLY_FEC "_ZNK3rxl9transport9FlitCodec9apply_fecERNS_4flit4FlitE"
#define BENCH_SYMBOL_CODEC_REGENERATE_CRC "_ZNK3rxl9transport9FlitCodec19regenerate_link_crcERNS_4flit4FlitE"
#define BENCH_SYMBOL_FNV1A64 "_ZN3rxl7fnv1a64ESt4spanIKhLm18446744073709551615EE"
#define BENCH_SYMBOL_RETRY_PUSH "_ZN3rxl4link11RetryBuffer4pushEtRKNS_4flit4FlitEmth"
#define BENCH_SYMBOL_RETRY_ACK "_ZN3rxl4link11RetryBuffer9ack_up_toEt"
#define BENCH_SYMBOL_CHANNEL_SEND "_ZN3rxl3sim11LinkChannel4sendENS0_12FlitEnvelopeE"
#define BENCH_SYMBOL_EVENT_PUSH "_ZN3rxl3sim10EventQueue10push_eventEmNS0_11InlineEventE"
#define BENCH_SYMBOL_HUB_ON_FLIT "_ZN3rxl9switchdev10PortSwitch7on_flitEONS_3sim12FlitEnvelopeE"
#define BENCH_SYMBOL_ENDPOINT_ON_FLIT "_ZN3rxl9transport8Endpoint7on_flitEONS_3sim12FlitEnvelopeE"
#define BENCH_SYMBOL_ENDPOINT_KICK "_ZN3rxl9transport8Endpoint4kickEv"
#define BENCH_SYMBOL_SCOREBOARD_ON_DELIVER "_ZN3rxl3txn16StreamScoreboard10on_deliverESt4spanIKhLm18446744073709551615EERKNS_3sim12FlitEnvelopeE"
#define BENCH_SYMBOL_SCOREBOARD_REGISTER "_ZN3rxl3txn16StreamScoreboard13register_sentEmSt4spanIKhLm18446744073709551615EE"
// clang-format on

#define BENCH_REAL(symbol) __asm__("__real_" symbol)
#define BENCH_WRAP(symbol) __asm__("__wrap_" symbol)

namespace bench::ledger {
namespace {

// Indices into kLayerNames.
enum Layer : std::uint16_t {
  kCrc,
  kRs,
  kCodec,
  kFingerprint,
  kRetryBuffer,
  kChannel,
  kEventQueue,
  kHub,
  kEndpoint,
  kScoreboard,
};
static_assert(kScoreboard + 1 == kLayers);

constexpr std::size_t kMaxDepth = 128;
/// Spans kept for the trace file: the first ones of the recorded run.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 16;
constexpr std::uint32_t kNoRecord = 0xFFFFFFFFu;

struct Frame {
  std::uint64_t start = 0;
  std::uint64_t child_ticks = 0;
  std::uint32_t record = kNoRecord;
};

struct SpanRecord {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t parent = kNoRecord;  ///< enclosing span's record index
  std::uint16_t layer = 0;
  std::uint16_t depth = 0;
};

struct State {
  bool armed = false;
  bool recording = false;
  std::size_t depth = 0;
  std::uint64_t armed_at = 0;
  Totals totals;
  std::array<Frame, kMaxDepth> stack{};
  std::size_t spans = 0;
  std::array<SpanRecord, kSpanCapacity> records{};
};

State g_state;

inline std::uint64_t ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// One interposed call. Spans nest strictly (the simulation is one
/// thread), so a fixed stack suffices; calls nested deeper than kMaxDepth
/// are charged to their enclosing span.
class Span {
 public:
  explicit Span(Layer layer) noexcept
      : layer_(layer), active_(g_state.armed && g_state.depth < kMaxDepth) {
    if (!active_) return;
    Frame& frame = g_state.stack[g_state.depth++];
    frame.child_ticks = 0;
    frame.record = kNoRecord;
    if (g_state.recording && g_state.spans < kSpanCapacity)
      frame.record = static_cast<std::uint32_t>(g_state.spans++);
    frame.start = ticks();
  }
  ~Span() {
    if (!active_) return;
    const std::uint64_t end = ticks();
    const Frame frame = g_state.stack[--g_state.depth];
    const std::uint64_t duration = end - frame.start;
    g_state.totals.calls[layer_] += 1;
    g_state.totals.self_ticks[layer_] += duration - frame.child_ticks;
    std::uint32_t parent = kNoRecord;
    if (g_state.depth > 0) {
      Frame& enclosing = g_state.stack[g_state.depth - 1];
      enclosing.child_ticks += duration;
      parent = enclosing.record;
    }
    if (frame.record != kNoRecord)
      g_state.records[frame.record] =
          SpanRecord{frame.start, end, parent, layer_,
                     static_cast<std::uint16_t>(g_state.depth)};
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
  bool active_;
};

}  // namespace

bool traced() noexcept { return true; }

void arm(bool record_spans) noexcept {
  g_state.totals = Totals{};
  g_state.depth = 0;
  g_state.recording = record_spans;
  if (record_spans) g_state.spans = 0;
  g_state.armed = true;
  g_state.armed_at = ticks();
}

Totals disarm() noexcept {
  g_state.totals.run_ticks = ticks() - g_state.armed_at;
  g_state.armed = false;
  g_state.recording = false;
  return g_state.totals;
}

bool write_spans(const char* path, double ns_per_tick) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return false;
  const std::uint64_t origin =
      g_state.spans > 0 ? g_state.records[0].start : 0;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < g_state.spans; ++i) {
    const SpanRecord& span = g_state.records[i];
    const double start_us =
        static_cast<double>(span.start - origin) * ns_per_tick / 1000.0;
    const double dur_us =
        static_cast<double>(span.end - span.start) * ns_per_tick / 1000.0;
    std::fprintf(out,
                 "%s{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.4f,\"dur\":%.4f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"depth\":%u}}\n",
                 i == 0 ? "" : ",",
                 static_cast<int>(kLayerNames[span.layer].size()),
                 kLayerNames[span.layer].data(), start_us, dur_us, i,
                 span.parent == kNoRecord ? -1LL
                                          : static_cast<long long>(span.parent),
                 static_cast<unsigned>(span.depth));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace bench::ledger

// --- Interposed entry points ----------------------------------------------
// Declared outside any anonymous namespace: the linker must see the
// __wrap_ definitions. The asm labels fix the symbol names.

namespace bench::wrap {

using bench::ledger::Span;
using namespace rxl;

// crc
std::uint64_t real_crc_update(const crc::Crc64*, std::uint64_t,
                              std::span<const std::uint8_t>)
    BENCH_REAL(BENCH_SYMBOL_CRC_UPDATE);
std::uint64_t wrap_crc_update(const crc::Crc64*, std::uint64_t,
                              std::span<const std::uint8_t>)
    BENCH_WRAP(BENCH_SYMBOL_CRC_UPDATE);
std::uint64_t wrap_crc_update(const crc::Crc64* self, std::uint64_t state,
                              std::span<const std::uint8_t> data) {
  Span span(ledger::kCrc);
  return real_crc_update(self, state, data);
}

std::uint64_t real_crc_update_sliced(const crc::Crc64*, std::uint64_t,
                                     std::span<const std::uint8_t>)
    BENCH_REAL(BENCH_SYMBOL_CRC_UPDATE_SLICED);
std::uint64_t wrap_crc_update_sliced(const crc::Crc64*, std::uint64_t,
                                     std::span<const std::uint8_t>)
    BENCH_WRAP(BENCH_SYMBOL_CRC_UPDATE_SLICED);
std::uint64_t wrap_crc_update_sliced(const crc::Crc64* self,
                                     std::uint64_t state,
                                     std::span<const std::uint8_t> data) {
  Span span(ledger::kCrc);
  return real_crc_update_sliced(self, state, data);
}

// rs
void real_fec_encode(const rs::FlitFec*, std::span<std::uint8_t>)
    BENCH_REAL(BENCH_SYMBOL_FEC_ENCODE);
void wrap_fec_encode(const rs::FlitFec*, std::span<std::uint8_t>)
    BENCH_WRAP(BENCH_SYMBOL_FEC_ENCODE);
void wrap_fec_encode(const rs::FlitFec* self, std::span<std::uint8_t> flit) {
  Span span(ledger::kRs);
  real_fec_encode(self, flit);
}

rs::FecDecodeResult real_fec_decode(const rs::FlitFec*,
                                    std::span<std::uint8_t>)
    BENCH_REAL(BENCH_SYMBOL_FEC_DECODE);
rs::FecDecodeResult wrap_fec_decode(const rs::FlitFec*,
                                    std::span<std::uint8_t>)
    BENCH_WRAP(BENCH_SYMBOL_FEC_DECODE);
rs::FecDecodeResult wrap_fec_decode(const rs::FlitFec* self,
                                    std::span<std::uint8_t> flit) {
  Span span(ledger::kRs);
  return real_fec_decode(self, flit);
}

// transport.codec
flit::Flit real_codec_encode_data(const transport::FlitCodec*,
                                  std::span<const std::uint8_t>,
                                  std::uint16_t, std::optional<std::uint16_t>)
    BENCH_REAL(BENCH_SYMBOL_CODEC_ENCODE_DATA);
flit::Flit wrap_codec_encode_data(const transport::FlitCodec*,
                                  std::span<const std::uint8_t>,
                                  std::uint16_t, std::optional<std::uint16_t>)
    BENCH_WRAP(BENCH_SYMBOL_CODEC_ENCODE_DATA);
flit::Flit wrap_codec_encode_data(const transport::FlitCodec* self,
                                  std::span<const std::uint8_t> payload,
                                  std::uint16_t seq,
                                  std::optional<std::uint16_t> acknum) {
  Span span(ledger::kCodec);
  return real_codec_encode_data(self, payload, seq, acknum);
}

transport::RxCheck real_codec_check_data(const transport::FlitCodec*,
                                         const flit::Flit&, std::uint16_t)
    BENCH_REAL(BENCH_SYMBOL_CODEC_CHECK_DATA);
transport::RxCheck wrap_codec_check_data(const transport::FlitCodec*,
                                         const flit::Flit&, std::uint16_t)
    BENCH_WRAP(BENCH_SYMBOL_CODEC_CHECK_DATA);
transport::RxCheck wrap_codec_check_data(const transport::FlitCodec* self,
                                         const flit::Flit& flit,
                                         std::uint16_t expected_seq) {
  Span span(ledger::kCodec);
  return real_codec_check_data(self, flit, expected_seq);
}

bool real_codec_check_control(const transport::FlitCodec*, const flit::Flit&)
    BENCH_REAL(BENCH_SYMBOL_CODEC_CHECK_CONTROL);
bool wrap_codec_check_control(const transport::FlitCodec*, const flit::Flit&)
    BENCH_WRAP(BENCH_SYMBOL_CODEC_CHECK_CONTROL);
bool wrap_codec_check_control(const transport::FlitCodec* self,
                              const flit::Flit& flit) {
  Span span(ledger::kCodec);
  return real_codec_check_control(self, flit);
}

void real_codec_apply_fec(const transport::FlitCodec*, flit::Flit&)
    BENCH_REAL(BENCH_SYMBOL_CODEC_APPLY_FEC);
void wrap_codec_apply_fec(const transport::FlitCodec*, flit::Flit&)
    BENCH_WRAP(BENCH_SYMBOL_CODEC_APPLY_FEC);
void wrap_codec_apply_fec(const transport::FlitCodec* self, flit::Flit& flit) {
  Span span(ledger::kCodec);
  real_codec_apply_fec(self, flit);
}

void real_codec_regenerate_crc(const transport::FlitCodec*, flit::Flit&)
    BENCH_REAL(BENCH_SYMBOL_CODEC_REGENERATE_CRC);
void wrap_codec_regenerate_crc(const transport::FlitCodec*, flit::Flit&)
    BENCH_WRAP(BENCH_SYMBOL_CODEC_REGENERATE_CRC);
void wrap_codec_regenerate_crc(const transport::FlitCodec* self,
                               flit::Flit& flit) {
  Span span(ledger::kCodec);
  real_codec_regenerate_crc(self, flit);
}

// common.fingerprint
std::uint64_t real_fnv1a64(std::span<const std::uint8_t>) noexcept
    BENCH_REAL(BENCH_SYMBOL_FNV1A64);
std::uint64_t wrap_fnv1a64(std::span<const std::uint8_t>) noexcept
    BENCH_WRAP(BENCH_SYMBOL_FNV1A64);
std::uint64_t wrap_fnv1a64(std::span<const std::uint8_t> buf) noexcept {
  Span span(ledger::kFingerprint);
  return real_fnv1a64(buf);
}

// link.retry_buffer
bool real_retry_push(link::RetryBuffer*, std::uint16_t, const flit::Flit&,
                     std::uint64_t, std::uint16_t, std::uint8_t)
    BENCH_REAL(BENCH_SYMBOL_RETRY_PUSH);
bool wrap_retry_push(link::RetryBuffer*, std::uint16_t, const flit::Flit&,
                     std::uint64_t, std::uint16_t, std::uint8_t)
    BENCH_WRAP(BENCH_SYMBOL_RETRY_PUSH);
bool wrap_retry_push(link::RetryBuffer* self, std::uint16_t seq,
                     const flit::Flit& encoded, std::uint64_t user_tag,
                     std::uint16_t flow_tag, std::uint8_t vc) {
  Span span(ledger::kRetryBuffer);
  return real_retry_push(self, seq, encoded, user_tag, flow_tag, vc);
}

std::size_t real_retry_ack(link::RetryBuffer*, std::uint16_t)
    BENCH_REAL(BENCH_SYMBOL_RETRY_ACK);
std::size_t wrap_retry_ack(link::RetryBuffer*, std::uint16_t)
    BENCH_WRAP(BENCH_SYMBOL_RETRY_ACK);
std::size_t wrap_retry_ack(link::RetryBuffer* self, std::uint16_t acked_seq) {
  Span span(ledger::kRetryBuffer);
  return real_retry_ack(self, acked_seq);
}

// sim.channel
TimePs real_channel_send(sim::LinkChannel*, sim::FlitEnvelope)
    BENCH_REAL(BENCH_SYMBOL_CHANNEL_SEND);
TimePs wrap_channel_send(sim::LinkChannel*, sim::FlitEnvelope)
    BENCH_WRAP(BENCH_SYMBOL_CHANNEL_SEND);
TimePs wrap_channel_send(sim::LinkChannel* self, sim::FlitEnvelope envelope) {
  Span span(ledger::kChannel);
  return real_channel_send(self, envelope);
}

// sim.event_queue
void real_event_push(sim::EventQueue*, TimePs, sim::InlineEvent)
    BENCH_REAL(BENCH_SYMBOL_EVENT_PUSH);
void wrap_event_push(sim::EventQueue*, TimePs, sim::InlineEvent)
    BENCH_WRAP(BENCH_SYMBOL_EVENT_PUSH);
void wrap_event_push(sim::EventQueue* self, TimePs when,
                     sim::InlineEvent event) {
  Span span(ledger::kEventQueue);
  real_event_push(self, when, event);
}

// switchdev.hub
void real_hub_on_flit(switchdev::PortSwitch*, sim::FlitEnvelope&&)
    BENCH_REAL(BENCH_SYMBOL_HUB_ON_FLIT);
void wrap_hub_on_flit(switchdev::PortSwitch*, sim::FlitEnvelope&&)
    BENCH_WRAP(BENCH_SYMBOL_HUB_ON_FLIT);
void wrap_hub_on_flit(switchdev::PortSwitch* self,
                      sim::FlitEnvelope&& envelope) {
  Span span(ledger::kHub);
  real_hub_on_flit(self, static_cast<sim::FlitEnvelope&&>(envelope));
}

// transport.endpoint
void real_endpoint_on_flit(transport::Endpoint*, sim::FlitEnvelope&&)
    BENCH_REAL(BENCH_SYMBOL_ENDPOINT_ON_FLIT);
void wrap_endpoint_on_flit(transport::Endpoint*, sim::FlitEnvelope&&)
    BENCH_WRAP(BENCH_SYMBOL_ENDPOINT_ON_FLIT);
void wrap_endpoint_on_flit(transport::Endpoint* self,
                           sim::FlitEnvelope&& envelope) {
  Span span(ledger::kEndpoint);
  real_endpoint_on_flit(self, static_cast<sim::FlitEnvelope&&>(envelope));
}

void real_endpoint_kick(transport::Endpoint*)
    BENCH_REAL(BENCH_SYMBOL_ENDPOINT_KICK);
void wrap_endpoint_kick(transport::Endpoint*)
    BENCH_WRAP(BENCH_SYMBOL_ENDPOINT_KICK);
void wrap_endpoint_kick(transport::Endpoint* self) {
  Span span(ledger::kEndpoint);
  real_endpoint_kick(self);
}

// txn.scoreboard
void real_scoreboard_on_deliver(txn::StreamScoreboard*,
                                std::span<const std::uint8_t>,
                                const sim::FlitEnvelope&)
    BENCH_REAL(BENCH_SYMBOL_SCOREBOARD_ON_DELIVER);
void wrap_scoreboard_on_deliver(txn::StreamScoreboard*,
                                std::span<const std::uint8_t>,
                                const sim::FlitEnvelope&)
    BENCH_WRAP(BENCH_SYMBOL_SCOREBOARD_ON_DELIVER);
void wrap_scoreboard_on_deliver(txn::StreamScoreboard* self,
                                std::span<const std::uint8_t> payload,
                                const sim::FlitEnvelope& envelope) {
  Span span(ledger::kScoreboard);
  real_scoreboard_on_deliver(self, payload, envelope);
}

void real_scoreboard_register(txn::StreamScoreboard*, std::uint64_t,
                              std::span<const std::uint8_t>)
    BENCH_REAL(BENCH_SYMBOL_SCOREBOARD_REGISTER);
void wrap_scoreboard_register(txn::StreamScoreboard*, std::uint64_t,
                              std::span<const std::uint8_t>)
    BENCH_WRAP(BENCH_SYMBOL_SCOREBOARD_REGISTER);
void wrap_scoreboard_register(txn::StreamScoreboard* self, std::uint64_t index,
                              std::span<const std::uint8_t> payload) {
  Span span(ledger::kScoreboard);
  real_scoreboard_register(self, index, payload);
}

}  // namespace bench::wrap
