#!/usr/bin/env python3
"""End-to-end fabric benchmark: host cost per simulated flit-hop.

Usage, from the repository root:

    python3 bench_e2e/run.py --workload star8-rxl --seed 1 --seconds 20 --trace 0
    python3 bench_e2e/run.py --self-test

The first call configures and builds bench_e2e/ (and through it the rxl
library) with CMake into $CARGO_TARGET_DIR/bench_e2e, or
.bench_build/bench_e2e when that variable is unset; later calls rebuild
only what changed.

--trace 0 runs the untraced binary and prints the end-to-end metrics.
--trace 1 splits --seconds between the untraced binary and the traced one
(whose link step interposes every layer entry point) and prints the
per-layer metrics; the traced spans of one repetition are written to
spans-<workload>.json in the build directory (Chrome trace format).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Any correctness violation prints
correct=false and exits 1. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("star8-rxl", "incast4-rxl-overload", "chain3-cxl-lossy")
DEFAULT_SEED = 1

# Cold set-up is timed in this many fresh processes; setup_s is the median.
SETUP_SAMPLES = 25
# A bench binary that runs this long is hung; a normal one exits after
# --seconds plus one warm-up repetition.
BINARY_TIMEOUT_S = 150

LAYERS = (
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
)

END_TO_END_UNITS = {
    "flit_hops_per_s": "1/s",
    "ns_per_delivered_flit": "ns",
    "allocs_per_flit": "allocs/flit",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {}
for _layer in LAYERS:
    PER_LAYER_UNITS[_layer + ".calls_per_flit_hop"] = "calls/flit-hop"
    PER_LAYER_UNITS[_layer + ".self_ns_per_flit_hop"] = "ns/flit-hop"
PER_LAYER_UNITS.update({
    "residual.self_ns_per_flit_hop": "ns/flit-hop",
    "trace.ns_per_flit_hop": "ns/flit-hop",
    "trace.overhead_ratio": "ratio",
    # Model ratios the binary computes from collect_metrics().
    "link.retransmit_ratio": "ratio",
    "link.control_per_data_flit": "ratio",
    "link.retry_rounds_per_corrupted_flit": "ratio",
    "switchdev.relay.credit_stalls_per_flit": "stalls/flit",
    "switchdev.relay.max_queue_depth": "flits",
})

# Invariants the correctness gate checks; the self-test breaks each one.
INVARIANTS = ("order", "missing", "corruption", "misrouted", "latency-miss",
              "credit", "offered", "drained", "digest")


class GateFailure(Exception):
    """The program's output failed a correctness check."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "bench_e2e")


def build():
    """Configures and builds both binaries (incrementally after the first
    call); exits 1 on failure."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--parallel", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            log(done.stdout)
            log("bench_e2e: build failed: " + " ".join(step))
            sys.exit(1)
    return out


def run_binary(binary, args):
    """Runs one bench binary; returns its last stdout line parsed as JSON."""
    done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False,
                          timeout=BINARY_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise GateFailure(done.stderr.strip() or
                          f"{os.path.basename(binary)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    log("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def setup_seconds(out, workload, seed, tiny):
    """Median cold set-up time over fresh processes."""
    args = ["--setup-only", "--workload", workload, "--seed", str(seed)]
    if tiny:
        args.append("--tiny")
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([os.path.join(out, "bench_e2e")] + args,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, check=False, timeout=BINARY_TIMEOUT_S)
        if done.returncode != 0:
            raise GateFailure(done.stderr.strip())
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def measure(workload, seed, seconds, trace, tiny=False):
    """Runs one benchmark measurement; returns the result object."""
    out = build()
    common = ["--workload", workload, "--seed", str(seed)]
    if tiny:
        common.append("--tiny")
    untraced = os.path.join(out, "bench_e2e")
    if not trace:
        raw = run_binary(untraced, common + ["--seconds", str(seconds)])
        values = {
            "flit_hops_per_s": raw["flit_hops"] / (raw["run_ns"] * 1e-9),
            "ns_per_delivered_flit": raw["run_ns"] / raw["delivered"],
            "allocs_per_flit": raw["allocs_median"] / raw["delivered"],
            "peak_rss_mib": raw["peak_rss_mib"],
            "setup_s": setup_seconds(out, workload, seed, tiny),
        }
        units = END_TO_END_UNITS
        attempted, failed = raw["attempted"], raw["failed"]
    else:
        base = run_binary(untraced, common + ["--seconds", str(seconds / 2)])
        spans = os.path.join(out, f"spans-{workload}.json")
        raw = run_binary(os.path.join(out, "bench_e2e_traced"),
                         common + ["--seconds", str(seconds / 2), "--spans-out", spans])
        if raw["digest"] != base["digest"]:
            raise GateFailure(f"digest: traced run {raw['digest']} != "
                              f"untraced run {base['digest']}")
        values = {name: raw[name] for name in PER_LAYER_UNITS if name in raw}
        values["trace.overhead_ratio"] = raw["run_ns"] / base["run_ns"]
        units = PER_LAYER_UNITS
        attempted = base["attempted"] + raw["attempted"]
        failed = base["failed"] + raw["failed"]
    if failed != 0:
        raise GateFailure(f"{failed} application-visible failures")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def self_test():
    """Tiny-horizon run of every workload in both modes, checked against
    BENCHMARK.json, plus one deliberately broken invariant per gate check."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, DEFAULT_SEED, 0.2, trace, tiny=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics {got} "
                                f"!= BENCHMARK.json {expected[trace]}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: not correct")
            if not trace:
                continue
            m = {name: v["value"] for name, v in result["metrics"].items()}
            covered = sum(m[layer + ".self_ns_per_flit_hop"] for layer in LAYERS)
            covered += m["residual.self_ns_per_flit_hop"]
            if abs(covered - m["trace.ns_per_flit_hop"]) > 1e-6 * m["trace.ns_per_flit_hop"]:
                problems.append(f"{workload}: self times + residual {covered} != "
                                f"traced run {m['trace.ns_per_flit_hop']}")
            hub_calls = m["switchdev.hub.calls_per_flit_hop"]
            if (hub_calls > 0) != (workload == "star8-rxl"):
                problems.append(f"{workload}: switchdev.hub calls {hub_calls}")
            for layer in LAYERS:
                if layer != "switchdev.hub" and m[layer + ".calls_per_flit_hop"] <= 0:
                    problems.append(f"{workload}: layer {layer} never called")
    binary = os.path.join(build_dir(), "bench_e2e")
    for workload in WORKLOADS:
        for invariant in INVARIANTS:
            done = subprocess.run(
                [binary, "--workload", workload, "--tiny", "--seconds", "0",
                 "--break", invariant],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
            if done.returncode != 1 or f"gate violated: {invariant}" not in done.stderr:
                problems.append(f"{workload}: breaking '{invariant}' was not rejected "
                                f"(exit {done.returncode})")
    for problem in problems:
        log("self-test: " + problem)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except GateFailure as failure:
        log(f"bench_e2e: correctness check failed: {failure}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
