// bench_e2e: host cost of simulating one fixed DAG fabric, end to end.
//
// Modes (run.py drives both; see README.md):
//   --setup-only   times plan_dag() plus a one-slot run_dag_fabric() of the
//                  workload, cold: run it in a fresh process so first-use
//                  table initialisation is included. Prints one line,
//                  "setup_s <seconds>".
//   (default)      one untimed warm-up run, then timed repetitions of the
//                  same run_dag_fabric() call until --seconds have passed.
//                  Every repetition goes through the correctness gate and
//                  must reproduce the warm-up's results digest. Prints a
//                  human-readable summary and, as the last line, one JSON
//                  object of raw results.
//
// Host time is wall time (steady_clock) spent inside run_dag_fabric(). On a
// shared host that time drifts by tens of percent over seconds as other
// tenants contend for the core's caches, so each timing is paired with a
// calibration kernel timed right after it (fixed work, no library code) and
// reported as calibrated time: measured ns x kCalibrationNominalNs / kernel
// ns, i.e. host time at the kernel's nominal speed. A run reports the 10th
// percentile of its repetitions' calibrated times, which drops repetitions
// that a burst of interference hit. Raw wall-time quartiles are printed too.
// The same source builds two binaries: bench_e2e, and bench_e2e_traced,
// whose link step interposes every layer entry point (ledger_wrap.cpp).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "rxl/obs/metrics.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using rxl::transport::DagConfig;
using rxl::transport::DagReport;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool tiny = false;
  bool setup_only = false;
  std::string break_invariant;
  std::string spans_out;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] "
               "[--tiny] [--setup-only] [--break INVARIANT] "
               "[--spans-out FILE]\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value after an option");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value(), nullptr);
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (arg == "--break") {
      options.break_invariant = value();
    } else if (arg == "--spans-out") {
      options.spans_out = value();
    } else {
      usage("unknown option");
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

std::uint64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// FNV-1a over the metrics CSV: two runs agree on every simulated counter
/// exactly when their digests agree.
std::uint64_t digest(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Sum of every registered metric whose name starts with `prefix` and ends
/// with `suffix`.
std::uint64_t sum_metrics(const rxl::obs::MetricsRegistry& registry,
                          std::string_view prefix, std::string_view suffix) {
  std::uint64_t total = 0;
  for (const rxl::obs::Metric& metric : registry.metrics()) {
    const std::string_view name = metric.name;
    if (name.size() >= prefix.size() + suffix.size() &&
        name.substr(0, prefix.size()) == prefix &&
        name.substr(name.size() - suffix.size()) == suffix)
      total += metric.value;
  }
  return total;
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Quantile q of `values` (sorted copy, linear interpolation).
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Nominal time of calibration_kernel_ns() on an idle core (measured on a
/// 4-core x86-64 container, GCC 12 -O3): the unit calibrated times are in.
constexpr double kCalibrationNominalNs = 5.0e6;

/// Fixed work independent of the library: xorshift-indexed read-modify-
/// writes over a 1 MiB table, so its speed follows the core's and the
/// cache's the way the simulator's does. Returns its wall time in ns.
std::uint64_t calibration_kernel_ns() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 17, 1);
  static volatile std::uint64_t sink = 0;
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 0x139408DCBBF7A44ULL;
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (table.size() - 1)] += x;
  }
  sink = sink + table[x & (table.size() - 1)];
  return elapsed_ns(start, Clock::now());
}

double calibrated_ns(std::uint64_t measured_ns, std::uint64_t kernel_ns) {
  return static_cast<double>(measured_ns) * kCalibrationNominalNs /
         static_cast<double>(kernel_ns);
}

/// Peak resident set size of this process image in KiB. VmHWM is reset by
/// exec; getrusage's ru_maxrss is not on Linux, so when a larger parent
/// (run.py) forks this process it would report the parent's peak instead.
/// getrusage remains the fallback where /proc is missing.
long peak_rss_kib() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, status) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    std::fclose(status);
    if (kib >= 0) return kib;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

int run_setup_only(const DagConfig& config) {
  DagConfig one_slot = config;
  one_slot.horizon = config.slot;
  const Clock::time_point start = Clock::now();
  const rxl::transport::DagPlan plan = rxl::transport::plan_dag(one_slot);
  const DagReport report = rxl::transport::run_dag_fabric(one_slot);
  const Clock::time_point end = Clock::now();
  // The first kernel run pays its table's page faults; time the second.
  calibration_kernel_ns();
  const std::uint64_t kernel_ns = calibration_kernel_ns();
  if (plan.segments.empty() || report.flows.size() != config.flows.size()) {
    std::fprintf(stderr, "bench_e2e: setup produced an empty fabric\n");
    return 1;
  }
  std::printf("setup_s %.9f\n",
              calibrated_ns(elapsed_ns(start, end), kernel_ns) * 1e-9);
  return 0;
}

struct Repetition {
  std::uint64_t wall_ns = 0;
  std::uint64_t kernel_ns = 0;  ///< calibration kernel, timed right after
  std::uint64_t allocs = 0;
  bench::ledger::Totals ledger;
};

int run_measure(const Options& options, const DagConfig& config) {
  const bool traced = bench::ledger::traced();
  // Warm-up: fills caches and runs lazy initialisation, and fixes the
  // reference digest every timed repetition must reproduce.
  const DagReport reference = rxl::transport::run_dag_fabric(config);
  const rxl::obs::MetricsRegistry registry =
      rxl::obs::collect_metrics(reference);
  const std::uint64_t reference_digest = digest(registry.to_csv());
  std::vector<std::string> violations =
      bench::check_report(config, reference);
  calibration_kernel_ns();

  std::vector<Repetition> reps;
  const Clock::time_point begin = Clock::now();
  const auto budget_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  while (violations.empty() &&
         (reps.size() < 3 || elapsed_ns(begin, Clock::now()) < budget_ns)) {
    Repetition rep;
    bench::alloc::arm();
    bench::ledger::arm(reps.empty() && !options.spans_out.empty());
    const Clock::time_point start = Clock::now();
    DagReport report = rxl::transport::run_dag_fabric(config);
    const Clock::time_point end = Clock::now();
    rep.ledger = bench::ledger::disarm();
    rep.allocs = bench::alloc::disarm();
    rep.wall_ns = elapsed_ns(start, end);
    rep.kernel_ns = calibration_kernel_ns();

    if (!options.break_invariant.empty() &&
        !bench::break_invariant(options.break_invariant, reps.size(), report))
      usage("unknown --break invariant");
    violations = bench::check_report(config, report);
    const std::uint64_t rep_digest =
        digest(rxl::obs::collect_metrics(report).to_csv());
    if (rep_digest != reference_digest) {
      char line[96];
      std::snprintf(line, sizeof line,
                    "digest: repetition %zu gave %016llx, warm-up %016llx",
                    reps.size(), static_cast<unsigned long long>(rep_digest),
                    static_cast<unsigned long long>(reference_digest));
      violations.push_back(line);
    }
    attempted += report.total_offered();
    failed += bench::failure_count(report);
    reps.push_back(rep);
  }
  if (!violations.empty()) {
    for (const std::string& line : violations)
      std::fprintf(stderr, "bench_e2e: %s: gate violated: %s\n",
                   options.workload.c_str(), line.c_str());
    return 1;
  }

  // Simulated quantities: identical in every repetition (digest-checked).
  const std::uint64_t flit_hops =
      sum_metrics(registry, "wire.", ".flits_carried");
  const std::uint64_t delivered = reference.total_in_order();
  const std::uint64_t data_sent =
      sum_metrics(registry, "endpoint.", ".data_flits_sent");

  std::vector<double> wall;
  std::vector<double> calibrated;
  std::vector<double> allocs;
  for (const Repetition& rep : reps) {
    wall.push_back(static_cast<double>(rep.wall_ns));
    calibrated.push_back(calibrated_ns(rep.wall_ns, rep.kernel_ns));
    allocs.push_back(static_cast<double>(rep.allocs));
  }
  const double wall_median = quantile(wall, 0.5);
  const double run_ns = quantile(calibrated, 0.1);

  const double peak_rss_mib = static_cast<double>(peak_rss_kib()) / 1024.0;

  std::printf("workload %s seed %llu%s: %zu repetitions, digest %016llx\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              traced ? " (traced)" : "", reps.size(),
              static_cast<unsigned long long>(reference_digest));
  std::printf(
      "  flit-hops %llu, delivered %llu, offered %llu, failures %llu "
      "(failed_share %.6f)\n",
      static_cast<unsigned long long>(flit_hops),
      static_cast<unsigned long long>(delivered),
      static_cast<unsigned long long>(reference.total_offered()),
      static_cast<unsigned long long>(bench::failure_count(reference)),
      ratio(bench::failure_count(reference), reference.total_offered()));
  std::printf("  run_dag_fabric wall ms: p25 %.3f  median %.3f  p75 %.3f\n",
              quantile(wall, 0.25) * 1e-6, wall_median * 1e-6,
              quantile(wall, 0.75) * 1e-6);
  std::printf("  calibrated ms: p10 %.3f  median %.3f\n", run_ns * 1e-6,
              quantile(calibrated, 0.5) * 1e-6);

  // Raw results for run.py, which names and gates the benchmark metrics.
  std::string json = "{";
  auto field = [&json](const char* key, double value) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "%s\"%s\": %.10g",
                  json.size() > 1 ? ", " : "", key, value);
    json += buffer;
  };
  auto count = [&json](const char* key, std::uint64_t value) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "%s\"%s\": %llu",
                  json.size() > 1 ? ", " : "", key,
                  static_cast<unsigned long long>(value));
    json += buffer;
  };
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "\"digest\": \"%016llx\"",
                static_cast<unsigned long long>(reference_digest));
  json += digest_hex;
  count("repetitions", reps.size());
  count("attempted", attempted);
  count("failed", failed);
  count("flit_hops", flit_hops);
  count("delivered", delivered);
  field("run_ns", run_ns);
  field("allocs_median", quantile(allocs, 0.5));
  field("peak_rss_mib", peak_rss_mib);
  field("link.retransmit_ratio",
        ratio(sum_metrics(registry, "endpoint.", ".retries"), data_sent));
  field("link.control_per_data_flit",
        ratio(sum_metrics(registry, "endpoint.", ".control_flits_sent"),
              data_sent));
  field("link.retry_rounds_per_corrupted_flit",
        ratio(sum_metrics(registry, "endpoint.", ".retry_rounds"),
              sum_metrics(registry, "wire.", ".flits_corrupted")));
  field("switchdev.relay.credit_stalls_per_flit",
        ratio(reference.total_credit_stalls(), delivered));
  count("switchdev.relay.max_queue_depth", reference.max_relay_queue_depth());

  if (traced) {
    // Totals over every repetition, in calibrated ns. Each repetition's
    // ticks convert at its own measured rate, so per repetition the layers'
    // self times plus the residual equal its calibrated time exactly.
    std::vector<double> self_ns(bench::kLayers, 0.0);
    std::uint64_t calls[bench::kLayers] = {};
    double traced_ns = 0.0;
    double ns_per_tick = 0.0;
    for (const Repetition& rep : reps) {
      if (rep.ledger.run_ticks == 0) continue;
      const double ticks = static_cast<double>(rep.ledger.run_ticks);
      if (ns_per_tick == 0.0)
        ns_per_tick = static_cast<double>(rep.wall_ns) / ticks;
      const double rep_ns = calibrated_ns(rep.wall_ns, rep.kernel_ns);
      const double rate = rep_ns / ticks;
      traced_ns += rep_ns;
      for (std::size_t l = 0; l < bench::kLayers; ++l) {
        self_ns[l] += static_cast<double>(rep.ledger.self_ticks[l]) * rate;
        calls[l] += rep.ledger.calls[l];
      }
    }
    const double hops_total =
        static_cast<double>(flit_hops) * static_cast<double>(reps.size());
    double covered_ns = 0.0;
    std::printf("  per flit-hop:   calls   self ns\n");
    for (std::size_t l = 0; l < bench::kLayers; ++l) {
      const std::string name(bench::kLayerNames[l]);
      const double per_hop_calls = static_cast<double>(calls[l]) / hops_total;
      const double per_hop_ns = self_ns[l] / hops_total;
      covered_ns += self_ns[l];
      std::printf("  %-20s %8.4f %8.2f\n", name.c_str(), per_hop_calls,
                  per_hop_ns);
      field((name + ".calls_per_flit_hop").c_str(), per_hop_calls);
      field((name + ".self_ns_per_flit_hop").c_str(), per_hop_ns);
    }
    std::printf("  %-20s %8s %8.2f\n  %-20s %8s %8.2f\n", "residual", "",
                (traced_ns - covered_ns) / hops_total, "traced run", "",
                traced_ns / hops_total);
    field("residual.self_ns_per_flit_hop", (traced_ns - covered_ns) / hops_total);
    field("trace.ns_per_flit_hop", traced_ns / hops_total);
    if (!options.spans_out.empty() &&
        !bench::ledger::write_spans(options.spans_out.c_str(), ns_per_tick)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                   options.spans_out.c_str());
      return 1;
    }
  }
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const bench::Workload* workload = bench::find_workload(options.workload);
  if (workload == nullptr) usage("unknown workload");
  const DagConfig config = workload->build(options.seed, options.tiny);
  return options.setup_only ? run_setup_only(config)
                            : run_measure(options, config);
}
