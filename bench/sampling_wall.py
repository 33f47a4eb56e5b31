"""Wall timings and peak memory of `concentration`, `lmgen` and the
Linial–Meshulam build at the sizes where sampling is the limit.

Usage (from the repository root):
    python3 bench/sampling_wall.py [--src DIR] [--repeat N] [CASE ...]

Each run of a case starts a fresh interpreter that imports simdist from DIR
(default ./src), so two checkouts can be timed with one copy of this script.
A `conc*` case runs `simdist concentration --eps 0.5 --seed 1 --out FILE`
and an `lmgen*` case `simdist lmgen --seed 1 --out FILE`, both through the
CLI's entry point. `build200` builds `linial_meshulam(LmParams(200, 0.15, 1,
1))` once untimed and five times timed, reports the median, and writes the
last complex with `save_complex_text`. Each run prints one JSON line: the
case, the time in seconds after `import simdist.cli`, the peak RSS in MB
from `ru_maxrss`, and the sha256 of the written file, so that two checkouts
can be checked for the same output. The cases:

    conc200      N=200 p=0.5 k=1, 25 trials (the benchmark's `sample` job)
    conc600      N=600 p=0.05 k=1, 4 trials
    conc120k2    N=120 p=0.1 k=2, 4 trials
    conc200k2    N=200 p=0.05 k=2, 2 trials
    lmgen300     N=300 p=0.05 k=1
    lmgen600     N=600 p=0.05 k=1
    build200     N=200 p=0.15 k=1, warm
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

# case: (command, n, p, k, trials of a concentration run)
CASES = {
    "conc200": ("concentration", 200, 0.5, 1, 25),
    "conc600": ("concentration", 600, 0.05, 1, 4),
    "conc120k2": ("concentration", 120, 0.1, 2, 4),
    "conc200k2": ("concentration", 200, 0.05, 2, 2),
    "lmgen300": ("lmgen", 300, 0.05, 1, None),
    "lmgen600": ("lmgen", 600, 0.05, 1, None),
    "build200": ("build", 200, 0.15, 1, None),
}


def warm_build_seconds(n: int, p: float, k: int, out: str) -> float:
    from simdist.complexes import save_complex_text
    from simdist.random_complexes import LmParams, linial_meshulam

    params = LmParams(n, p, k, 1)
    linial_meshulam(params)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        complex_ = linial_meshulam(params)
        times.append(time.perf_counter() - start)
    save_complex_text(complex_, out)
    return statistics.median(times)


def run_case(case: str) -> dict:
    from simdist.cli import main

    if case not in CASES:
        raise SystemExit(f"unknown case {case!r}; choose from {', '.join(CASES)}")
    command, n, p, k, trials = CASES[case]
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out")
        if command == "build":
            elapsed = warm_build_seconds(n, p, k, out)
        else:
            argv = [command, "--n", str(n), "--p", str(p), "--k", str(k),
                    "--seed", "1", "--out", out]
            if command == "concentration":
                argv += ["--eps", "0.5", "--trials", str(trials)]
            start = time.perf_counter()
            main.main(args=argv, prog_name="simdist", standalone_mode=False)
            elapsed = time.perf_counter() - start
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "case": case,
        f"{command}_s": elapsed,
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
