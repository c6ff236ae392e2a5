#!/usr/bin/env python3
"""Host-speed benchmark of the LADDER simulator.

Run from the repository root:

    python3 perfbench/run.py --workload quick-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call builds perfbench/ladder_perfbench (with the simulator
sources from src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset. Each repetition is a fresh process, so every repetition pays the
cold circuit timing-table build a user pays on every run.

--trace 0 repeats the workload for --seconds (at least three
repetitions), checks every repetition's outputs, and reports the median
of each end-to-end metric. --trace 1 makes one untraced and one traced
repetition of the same workload and seed; the traced one records spans
around every layer call, replays the workload's stream layer by layer,
and writes a Chrome-trace JSON to .bench_out/trace-<workload>.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
WORKLOADS = ["quick-mix", "lbm-write", "mcf-read", "sweep"]
MIN_REPS = 3
# Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 150.0
REP_TIMEOUT_S = 120.0
MIN_SPAN_COVERAGE = 0.95

# name -> unit. Host time unless the unit says sim-ns.
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "warmup_minstr_per_s": "Minstr/s",
    "timed_minstr_per_s": "Minstr/s",
    "peak_rss_mb": "MB",
    "cells_per_s": "1/s",
}
PER_LAYER = {
    "circuit.table_build_s": "s",
    "circuit.solve_us": "us",
    "sim.ctor_s": "s",
    "sim.timed_s": "s",
    "sim.export_s": "s",
    "sim.cell_s": "s",
    "cpu.warmup_s": "s",
    "trace.next_ns": "ns",
    "cache.access_ns": "ns",
    "cache.l3_miss_per_kinstr": "1/kinstr",
    "cache.writeback_per_kinstr": "1/kinstr",
    "ctrl.write_ns": "ns",
    "ctrl.read_ns": "ns",
    "ctrl.events_per_req": "events/req",
    "ctrl.refused_frac": "ratio",
    "ctrl.trace_record_ns": "ns",
    "ctrl.trace_bytes_per_record": "B/record",
    "schemes.write_extra_ns": "ns",
    "mem.store_write_ns": "ns",
    "mem.store_read_ns": "ns",
    "reram.surface_lookup_ns": "ns",
    "common.evq_event_ns": "ns",
    "common.pool_efficiency": "ratio",
    "sim.ipc": "instr/cycle",
    "sim.read_latency_ns": "sim-ns",
    "sim.write_service_ns": "sim-ns",
    "sim.data_writes": "count",
    "sim.fingerprint": "hash",
    "bench.trace_overhead_s": "s",
    "bench.span_coverage": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configure once, then build incrementally; returns the binary path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # cmake.check_cache appears only once a configure step succeeded.
    if not os.path.exists(os.path.join(out, "CMakeFiles", "cmake.check_cache")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "ladder_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "ladder_perfbench")


class Runner:
    """Runs single repetitions of ladder_perfbench."""

    def __init__(self, exe, seed, short):
        self.exe = exe
        self.seed = seed
        self.short = short
        self.count = 0

    def rep(self, workload, mode="run", traced=False):
        """One repetition in a fresh process; returns (result, error)."""
        self.count += 1
        tag = "%s-%d-%d-%d" % (workload, self.seed, os.getpid(), self.count)
        out = os.path.join(OUT_DIR, tag)
        result_path = out + ".result.json"
        cmd = [self.exe, "--workload", workload, "--seed", str(self.seed),
               "--mode", mode, "--out", out, "--result", result_path]
        if traced:
            cmd += ["--trace-json",
                    os.path.join(OUT_DIR, "trace-%s.json" % workload)]
        if self.short:
            cmd.append("--short")
        # A fixed describe string keeps exportRun from spawning git.
        env = dict(os.environ, LADDER_GIT_DESCRIBE="perfbench")
        os.makedirs(OUT_DIR, exist_ok=True)
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=REP_TIMEOUT_S)
            if proc.returncode != 0:
                return None, "exit code %d" % proc.returncode
            with open(result_path) as f:
                result = json.load(f)
        except (subprocess.TimeoutExpired, OSError, ValueError) as e:
            return None, str(e)
        finally:
            shutil.rmtree(out, ignore_errors=True)
            if os.path.exists(result_path):
                os.remove(result_path)
        bad = [c["name"] + " (" + c["detail"] + ")"
               for c in result["checks"] if not c["ok"]]
        return result, "; ".join(bad)


def end_to_end(workload, runner):
    """One repetition's end-to-end metrics, its fingerprint and error."""
    setup_s = None
    if workload == "sweep":
        # Cold set-up of the sweep's first cell, in its own process, so
        # the sweep itself still starts with the timing tables unbuilt.
        setup, error = runner.rep(workload, mode="setup")
        if setup is None or error:
            return None, None, error or "setup failed"
        setup_s = setup["phases"]["setup_s"]
    result, error = runner.rep(workload)
    if result is None or error:
        return None, None, error
    phases = result["phases"]
    total = phases["total_s"]
    if setup_s is None:
        setup_s = phases["table_s"] + phases["ctor_s"]
        warmup_s, timed_s = phases["warmup_s"], phases["timed_s"]
    else:
        # runMatrixParallel runs both phases inside every job, so the
        # sweep's rates are whole-sweep rates over its wall time.
        warmup_s = timed_s = total
    metrics = {
        "setup_s": setup_s,
        "total_s": total,
        "warmup_minstr_per_s": result["warmup_instr"] / warmup_s / 1e6,
        "timed_minstr_per_s": result["timed_instr"] / timed_s / 1e6,
        "peak_rss_mb": result["peak_rss_mb"],
        "cells_per_s": result["cells"] / total,
    }
    return metrics, result["sim"]["fingerprint"], ""


def measure_end_to_end(workload, runner, seconds, min_reps):
    """Repeat until --seconds is spent; medians of every metric."""
    start = time.monotonic()
    samples, fingerprints, errors = [], set(), []
    attempted = 0
    durations = []
    while True:
        t0 = time.monotonic()
        metrics, fingerprint, error = end_to_end(workload, runner)
        durations.append(time.monotonic() - t0)
        attempted += 1
        if metrics is None or error:
            errors.append(error)
        else:
            samples.append(metrics)
            fingerprints.add(fingerprint)
        elapsed = time.monotonic() - start
        next_rep = statistics.median(durations)
        if attempted >= min_reps and elapsed + next_rep > seconds:
            break
        if elapsed + next_rep > RUN_LIMIT_S:
            break
    if len(fingerprints) > 1:
        errors.append("sim.fingerprint differs across repetitions of one "
                      "seed: %s" % sorted(fingerprints))
    metrics = {name: statistics.median(s[name] for s in samples)
               for name in END_TO_END} if samples else {}
    failed = attempted - len(samples)
    if len(fingerprints) > 1:
        failed = attempted
    return metrics, attempted, failed, errors, END_TO_END


def measure_layers(workload, runner):
    """One untraced and one traced repetition; the traced one's layers."""
    errors = []
    untraced, untraced_fingerprint, error = end_to_end(workload, runner)
    if untraced is None or error:
        errors.append("untraced: " + error)
    traced, error = runner.rep(workload, traced=True)
    if traced is None or error:
        errors.append("traced: " + error)
    attempted, failed = 2, len(errors)
    metrics = {}
    if traced is not None:
        layers = traced["layers"]
        if untraced is not None:
            layers["bench.trace_overhead_s"] = (
                traced["phases"]["total_s"] - untraced["total_s"])
        metrics = {name: layers[name] for name in PER_LAYER if name in layers}
        missing = sorted(set(PER_LAYER) - set(metrics))
        if missing:
            errors.append("per-layer metrics missing: %s" % missing)
        coverage = layers.get("bench.span_coverage", 0.0)
        if coverage < MIN_SPAN_COVERAGE:
            errors.append("top-level spans cover %.3f of total_s" % coverage)
        log("self time per span (run:name):")
        for name, seconds in sorted(traced["self_s"].items()):
            log("  %-40s %10.4f s" % (name, seconds))
        if (untraced is not None and
                traced["sim"]["fingerprint"] != untraced_fingerprint):
            errors.append("sim.fingerprint differs between the traced and "
                          "untraced runs")
    if errors and failed == 0:
        failed = 1
    return metrics, attempted, failed, errors, PER_LAYER


def measure(workload, seed, seconds, trace, short=False, min_reps=MIN_REPS):
    """Everything one benchmark run prints; returns (output, lines)."""
    exe = build()
    if exe is None:
        return None, []
    runner = Runner(exe, seed, short)
    if trace:
        metrics, attempted, failed, errors, units = measure_layers(
            workload, runner)
    else:
        metrics, attempted, failed, errors, units = measure_end_to_end(
            workload, runner, seconds, min_reps)
    if not metrics:
        for error in errors:
            log("perfbench: " + error)
        return None, []
    lines = ["%-28s %18.6f %s" % (name, value, units[name])
             for name, value in metrics.items()]
    lines.append("%-28s %18.6f %s" % ("failed_frac", failed / attempted,
                                       "ratio"))
    for error in errors:
        lines.append("check failed: " + error)
    output = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return output, lines


def self_test():
    """Short windows, same code paths: every metric present with its unit."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("self-test: cannot read BENCHMARK.json: %s" % e)
        return 1
    declared = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            output, lines = measure(workload, 1, 0, trace == "1",
                                    short=True, min_reps=2)
            label = "%s --trace %s" % (workload, trace)
            if output is None:
                problems.append(label + ": no result")
                continue
            if set(output) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(label + ": wrong result keys")
            if not output["correct"]:
                problems.append(label + ": incorrect: %s" % lines)
            expected = dict(END_TO_END if trace == "0" else PER_LAYER)
            expected.update(declared[trace])
            for name, unit in expected.items():
                got = output["metrics"].get(name)
                if got is None:
                    problems.append("%s: %s missing" % (label, name))
                elif got.get("unit") != unit:
                    problems.append("%s: %s printed as %r, not %r"
                                    % (label, name, got.get("unit"), unit))
                elif not any(line.split()[:1] == [name] and
                             line.split()[-1] == unit for line in lines):
                    problems.append("%s: %s not printed with its unit"
                                    % (label, name))
            if not any(line.startswith("failed_frac") for line in lines):
                problems.append(label + ": failed_frac not printed")
            log("self-test: %s done" % label)
    for problem in problems:
        print("self-test: " + problem)
    print("self-test: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    output, lines = measure(args.workload, args.seed, args.seconds,
                            args.trace == 1)
    if output is None:
        return 1
    for line in lines:
        print(line)
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
