// Correctness gate: the invariants every benchmark run must satisfy before
// its timings count. The simulated results themselves are compared across
// runs by digest (main.cpp); this file checks one report in isolation.
#include <cstddef>
#include <cstdint>
#include <string>

#include "bench.hpp"

namespace bench {
namespace {

std::string flow_line(const char* invariant, std::size_t flow,
                      const char* what, std::uint64_t got,
                      std::uint64_t want) {
  std::string line = invariant;
  line += ": flow ";
  line += std::to_string(flow);
  line += ' ';
  line += what;
  line += ' ';
  line += std::to_string(got);
  line += ", expected ";
  line += std::to_string(want);
  return line;
}

}  // namespace

std::uint64_t failure_count(const rxl::transport::DagReport& report) {
  return report.total_order_failures() + report.total_missing() +
         report.total_data_corruptions() + report.misrouted;
}

std::vector<std::string> check_report(const rxl::transport::DagConfig& config,
                                      const rxl::transport::DagReport& report) {
  std::vector<std::string> violations;
  auto require_zero = [&](const char* invariant, std::uint64_t value) {
    if (value == 0) return;
    std::string line = invariant;
    line += ": ";
    line += std::to_string(value);
    line += ", expected 0";
    violations.push_back(line);
  };
  require_zero("order", report.total_order_failures());
  require_zero("missing", report.total_missing());
  require_zero("corruption", report.total_data_corruptions());
  require_zero("misrouted", report.misrouted);
  require_zero("latency-miss", report.total_latency_sample_misses());

  if (report.flows.size() != config.flows.size()) {
    std::string line = "drained: report has ";
    line += std::to_string(report.flows.size());
    line += " flows, config ";
    line += std::to_string(config.flows.size());
    violations.push_back(line);
    return violations;
  }
  for (std::size_t f = 0; f < report.flows.size(); ++f) {
    const rxl::transport::DagFlowReport& flow = report.flows[f];
    if (flow.scoreboard.delivered > flow.offered)
      violations.push_back(flow_line("offered", f, "delivered",
                                     flow.scoreboard.delivered, flow.offered));
    // Every workload drains before its horizon: each budgeted payload was
    // offered and delivered exactly once, in order.
    if (flow.offered != config.flows[f].flits)
      violations.push_back(flow_line("drained", f, "offered", flow.offered,
                                     config.flows[f].flits));
    if (flow.scoreboard.in_order != flow.offered)
      violations.push_back(flow_line("drained", f, "delivered in order",
                                     flow.scoreboard.in_order, flow.offered));
  }

  // Per-VC credit conservation at quiescence, both directions of every hop:
  // the slots one side charged equal the slots its peer freed.
  for (const rxl::transport::DagLinkStats& hop : report.hops) {
    for (std::size_t v = 0; v < rxl::link::kMaxVcs; ++v) {
      if (hop.a_vc_consumed[v] != hop.b_vc_returned[v] ||
          hop.b_vc_consumed[v] != hop.a_vc_returned[v]) {
        std::string line = "credit: segment ";
        line += std::to_string(hop.segment);
        line += " vc ";
        line += std::to_string(v);
        line += " consumed a/b ";
        line += std::to_string(hop.a_vc_consumed[v]);
        line += '/';
        line += std::to_string(hop.b_vc_consumed[v]);
        line += " returned b/a ";
        line += std::to_string(hop.b_vc_returned[v]);
        line += '/';
        line += std::to_string(hop.a_vc_returned[v]);
        violations.push_back(line);
      }
    }
  }
  return violations;
}

bool break_invariant(std::string_view invariant, std::size_t repetition,
                     rxl::transport::DagReport& report) {
  if (report.flows.empty() || report.hops.empty()) return false;
  rxl::txn::StreamScoreboard::Stats& board = report.flows.front().scoreboard;
  if (invariant == "order") {
    ++board.duplicates;
  } else if (invariant == "missing") {
    ++board.missing;
  } else if (invariant == "corruption") {
    ++board.data_corruptions;
  } else if (invariant == "misrouted") {
    ++report.misrouted;
  } else if (invariant == "latency-miss") {
    ++report.flows.front().latency_sample_misses;
  } else if (invariant == "credit") {
    ++report.hops.front().a_vc_consumed[0];
  } else if (invariant == "offered") {
    board.delivered = report.flows.front().offered + 1;
  } else if (invariant == "drained") {
    --board.in_order;
  } else if (invariant == "digest") {
    if (repetition > 0) ++report.hops.front().forward_channel.flits_carried;
  } else {
    return false;
  }
  return true;
}

}  // namespace bench
