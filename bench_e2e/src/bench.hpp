// Shared declarations of the end-to-end fabric benchmark: the workloads,
// the correctness gate, and the host-cost probes (allocation counter and
// the per-layer ledger) that main.cpp drives.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rxl/transport/dag_fabric.hpp"

namespace bench {

// --- Workloads (workloads.cpp) --------------------------------------------

/// The fixed simulated fabrics. Every flow has a finite payload budget and
/// the horizon leaves room for the fabric to drain, so a correct run ends
/// quiescent: every offered payload delivered, every credit returned.
/// `tiny` shrinks budget and horizon for the self-test.
struct Workload {
  std::string_view name;
  rxl::transport::DagConfig (*build)(std::uint64_t seed, bool tiny);
};

/// The workload called `name`, or nullptr.
[[nodiscard]] const Workload* find_workload(std::string_view name);

// --- Correctness gate (gate.cpp) ------------------------------------------

/// Invariants every run must satisfy. An empty result means the report
/// passed; otherwise one line per violated invariant, each starting with
/// the invariant's name.
[[nodiscard]] std::vector<std::string> check_report(
    const rxl::transport::DagConfig& config,
    const rxl::transport::DagReport& report);

/// Application-visible failures as the benchmark counts them: Fail_order
/// (gap skips + duplicates), missing payloads, delivered data corruptions
/// and misrouted deliveries.
[[nodiscard]] std::uint64_t failure_count(
    const rxl::transport::DagReport& report);

/// Deliberately breaks one invariant in `report` (the self-test's proof that
/// the gate has teeth). Returns false for an unknown invariant name.
/// "digest" is applied only on repetitions after the first, so it shows up
/// as a cross-repetition digest mismatch rather than a report fault.
bool break_invariant(std::string_view invariant, std::size_t repetition,
                     rxl::transport::DagReport& report);

// --- Heap allocation counter (alloc_count.cpp) ----------------------------

/// Counts global operator new calls while armed. Single-threaded use only:
/// the benchmark runs every simulation on its main thread.
namespace alloc {
void arm() noexcept;
std::uint64_t disarm() noexcept;  ///< allocations since arm()
}  // namespace alloc

// --- Per-layer ledger (ledger_wrap.cpp in the traced binary, ledger_off.cpp
// in the untraced one) ----------------------------------------------------

/// Layers named after the library's modules, in reporting order.
inline constexpr std::array<std::string_view, 10> kLayerNames = {
    "crc",
    "rs",
    "transport.codec",
    "common.fingerprint",
    "link.retry_buffer",
    "sim.channel",
    "sim.event_queue",
    "switchdev.hub",
    "transport.endpoint",
    "txn.scoreboard",
};
inline constexpr std::size_t kLayers = kLayerNames.size();

namespace ledger {

struct Totals {
  std::array<std::uint64_t, kLayers> calls{};
  std::array<std::uint64_t, kLayers> self_ticks{};
  std::uint64_t run_ticks = 0;  ///< whole armed interval
};

/// True in the traced binary, whose link step interposes every layer entry
/// point; false in the untraced binary, which contains no interposition.
[[nodiscard]] bool traced() noexcept;
/// Starts the armed interval. Span records are kept (up to a fixed,
/// preallocated capacity) only while `record_spans` is set.
void arm(bool record_spans) noexcept;
/// Ends the armed interval and returns its aggregates.
[[nodiscard]] Totals disarm() noexcept;
/// Writes the recorded spans as a Chrome trace (chrome://tracing, Perfetto)
/// with timestamps converted by `ns_per_tick`. Returns false on I/O error.
bool write_spans(const char* path, double ns_per_tick);

}  // namespace ledger

}  // namespace bench
