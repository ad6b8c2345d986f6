#!/usr/bin/env python3
"""Runs the five paper-figure binaries and compares the exact half of what
they print with the committed `results/<name>.txt`.

One rule splits a harness output into its exact and timed halves:

* a CSV column whose header name ends in `_ms` is timed, and so is a
  `timed-check` line (a claim read from wall time);
* every other column, every `shape-check` line (detail text included) and
  every other line is exact: every run on every host prints it the same.

Timed columns and lines are dropped from both sides; what is left must be
equal. Run from anywhere, after building the binaries:

    cargo build --release -p ndss-bench
    python3 results/check.py

Exits 1, after printing a diff of each output that differs.
"""

import difflib
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIGURES = [
    "fig2_indexing",
    "fig3_query",
    "fig4_memorization",
    "table1_examples",
    "baseline_comparison",
]


def exact_lines(text):
    """The lines of one harness output with the timed half dropped."""
    kept, timed, header_next = [], set(), False
    for line in text.splitlines():
        if line.startswith("timed-check "):
            continue
        if line.startswith("#panel "):
            timed, header_next = set(), True
        elif header_next:
            names = line.split(",")
            timed = {i for i, name in enumerate(names) if name.endswith("_ms")}
            header_next = False
        elif not line or line.startswith("shape-check "):
            timed = set()  # a panel's rows end at a blank or a check line
        if timed:
            line = ",".join(v for i, v in enumerate(line.split(",")) if i not in timed)
        kept.append(line)
    return kept


def main():
    failed = []
    for name in FIGURES:
        binary = ROOT / "target" / "release" / name
        run = subprocess.run([binary], check=True, capture_output=True, text=True)
        committed = (ROOT / "results" / f"{name}.txt").read_text()
        want, got = exact_lines(committed), exact_lines(run.stdout)
        if want == got:
            print(f"{name}: exact panels reproduce results/{name}.txt")
            continue
        failed.append(name)
        diff = difflib.unified_diff(
            want, got, f"results/{name}.txt", f"{name} (this run)", lineterm=""
        )
        print("\n".join(diff))
    if failed:
        print(f"exact panels differ: {', '.join(failed)}")
        sys.exit(1)


if __name__ == "__main__":
    main()
