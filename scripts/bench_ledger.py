#!/usr/bin/env python3
"""Record the perfbench ledger of one change as BENCH_<pr>.json.

Runs perfbench/run.py for every workload at seeds 1 and 7 with
--trace 0, and once per workload (seed 1) with --trace 1. Each run's
last output line (perfbench's JSON result) is recorded with the
checkout's `git rev-parse HEAD`, whether its tree differs from HEAD,
and the host's CPU count:

    python3 scripts/bench_ledger.py --pr N
    python3 scripts/bench_ledger.py --pr N --label parent --repo ../parent
    python3 scripts/bench_ledger.py --pr N --label change

Without --label the file is overwritten with one run set. With
--label, the run set is merged into the file under that key, so a
parent and a change measured on the same host sit side by side.
--repo names the checkout to measure (default: this one); the ledger
is always written at the root of this script's repository. Each
checkout builds perfbench into its own .bench_build.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ["quick-mix", "lbm-write", "mcf-read", "sweep"]
SEEDS = [1, 7]


def plan():
    """(workload, seed, trace) of every run, in order."""
    runs = [(w, s, 0) for s in SEEDS for w in WORKLOADS]
    return runs + [(w, SEEDS[0], 1) for w in WORKLOADS]


def git(repo, *args):
    return subprocess.run(["git", *args], cwd=repo, stdout=subprocess.PIPE,
                          text=True, check=True).stdout.strip()


def run_one(repo, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=repo, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace,
              "exit": proc.returncode, "result": None}
    if lines:
        try:
            record["result"] = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--label", choices=("parent", "change"))
    parser.add_argument("--repo", default=str(ROOT))
    args = parser.parse_args()

    repo = pathlib.Path(args.repo).resolve()
    commit = git(repo, "rev-parse", "HEAD")
    # A ledger committed with its change measures a tree on top of HEAD.
    dirty = bool(git(repo, "status", "--porcelain"))
    runs = []
    for workload, seed, trace in plan():
        print(f"bench_ledger: {workload} seed {seed} trace {trace}",
              file=sys.stderr, flush=True)
        runs.append(run_one(repo, workload, seed, trace))
    entry = {"commit": commit, "dirty": dirty, "cpus": os.cpu_count(),
             "runs": runs}

    out = ROOT / f"BENCH_{args.pr}.json"
    if args.label:
        ledger = json.loads(out.read_text()) if out.exists() else {}
        ledger["pr"] = args.pr
        ledger[args.label] = entry
    else:
        ledger = {"pr": args.pr, **entry}
    out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")

    failed = [r for r in runs if r["exit"] != 0 or r["result"] is None]
    for r in failed:
        print(f"bench_ledger: {r['workload']} seed {r['seed']} trace "
              f"{r['trace']} failed (exit {r['exit']})", file=sys.stderr)
    print(f"bench_ledger: wrote {out}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
