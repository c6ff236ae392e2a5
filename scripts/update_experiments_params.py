#!/usr/bin/env python3
"""Regenerate the parameter reference table in EXPERIMENTS.md.

The table between the BEGIN/END GENERATED PARAMS markers is the
output of `workload_sim --help-config=md`, i.e. the typed parameter
registry rendered as markdown. Run after adding or changing a
registered parameter:

    python3 scripts/update_experiments_params.py [path/to/workload_sim]

The gtest ParamRegistry.ExperimentsTableMatchesRegistry fails while
the committed table differs from the registry.
"""

import argparse
import pathlib
import subprocess
import sys

BEGIN = "<!-- BEGIN GENERATED PARAMS " \
        "(scripts/update_experiments_params.py) -->"
END = "<!-- END GENERATED PARAMS -->"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "binary", nargs="?", default="build/examples/workload_sim",
        help="any registry-driven binary accepting --help-config=md")
    args = parser.parse_args()

    repo = pathlib.Path(__file__).resolve().parent.parent
    doc = repo / "EXPERIMENTS.md"
    text = doc.read_text()

    try:
        table = subprocess.run(
            [args.binary, "--help-config=md"], check=True,
            capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"error: cannot run {args.binary!r}: {e}")
    if not table.startswith("| parameter |"):
        sys.exit(f"error: {args.binary!r} did not print a markdown "
                 "parameter table")

    begin = text.find(BEGIN)
    end = text.find(END)
    if begin < 0 or end < 0 or end < begin:
        sys.exit(f"error: {doc} is missing the GENERATED PARAMS "
                 "markers")
    begin += len(BEGIN)
    updated = text[:begin] + "\n" + table + text[end:]

    if updated == text:
        print("EXPERIMENTS.md parameter table is up to date")
        return
    doc.write_text(updated)
    print(f"updated {doc}")


if __name__ == "__main__":
    main()
