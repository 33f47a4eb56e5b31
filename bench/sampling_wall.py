"""Wall timings and peak memory of `concentration` at the sizes where its
facet ranks are the limit.

Usage (from the repository root):
    python3 bench/sampling_wall.py [--src DIR] [--repeat N] [CASE ...]

Each run of a case starts a fresh interpreter that imports simdist from DIR
(default ./src), so two checkouts can be timed with one copy of this script.
It runs `simdist concentration --eps 0.5 --seed 1 --out FILE` through the
CLI's entry point and prints one JSON line per run: the case, the command's
time in seconds after `import simdist.cli`, the peak RSS in MB from
`ru_maxrss`, and the sha256 of the written document, so that two checkouts
can be checked for the same output. The cases:

    conc200      N=200 p=0.5 k=1, 25 trials (the benchmark's `sample` job)
    conc600      N=600 p=0.05 k=1, 4 trials
    conc120k2    N=120 p=0.1 k=2, 4 trials
    conc200k2    N=200 p=0.05 k=2, 2 trials
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

CASES = {
    "conc200": (200, 0.5, 1, 25),
    "conc600": (600, 0.05, 1, 4),
    "conc120k2": (120, 0.1, 2, 4),
    "conc200k2": (200, 0.05, 2, 2),
}


def run_case(case: str) -> dict:
    from simdist.cli import main

    if case not in CASES:
        raise SystemExit(f"unknown case {case!r}; choose from {', '.join(CASES)}")
    n, p, k, trials = CASES[case]
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "concentration.json")
        argv = ["concentration", "--n", str(n), "--p", str(p), "--k", str(k),
                "--eps", "0.5", "--trials", str(trials), "--seed", "1", "--out", out]
        start = time.perf_counter()
        main.main(args=argv, prog_name="simdist", standalone_mode=False)
        elapsed = time.perf_counter() - start
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "case": case,
        "concentration_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sha256": digest,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--inline", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("cases", nargs="*", default=list(CASES))
    args = parser.parse_args()
    if args.inline:  # the child: one case in this interpreter
        sys.path.insert(0, os.path.abspath(args.src))
        print(json.dumps(run_case(args.cases[0])))
        return
    for _ in range(args.repeat):
        for case in args.cases:
            child = subprocess.run(
                [sys.executable, __file__, "--inline", "--src", args.src, case],
                check=True, capture_output=True, text=True,
            )
            print(child.stdout.strip(), flush=True)


if __name__ == "__main__":
    main()
