"""Wall timings and peak memory of `concentration`, `lmgen` and the
Linial–Meshulam build at the sizes where sampling is the limit.

Usage (from the repository root):
    python3 bench/sampling_wall.py [--src DIR ...] [--repeat N] [CASE ...]

`bench/wall.py` runs each case in a fresh interpreter. A `conc*` case runs
`simdist concentration --eps 0.5 --seed 1 --out FILE` and an `lmgen*` case
`simdist lmgen --seed 1 --out FILE`, both through the CLI's entry point.
`build200` builds `linial_meshulam(LmParams(200, 0.15, 1, 1))` once untimed
and five times timed, reports the median, and writes the last complex with
`save_complex_text`. Each run prints one JSON line: the case, the time in
seconds after `import simdist.cli`, the sha256 of the written file, so that
two checkouts can be checked for the same output, and the peak RSS. The
cases:

    conc200      N=200 p=0.5 k=1, 25 trials (the benchmark's `sample` job)
    conc600      N=600 p=0.05 k=1, 4 trials
    conc120k2    N=120 p=0.1 k=2, 4 trials
    conc200k2    N=200 p=0.05 k=2, 2 trials
    lmgen300     N=300 p=0.05 k=1
    lmgen600     N=600 p=0.05 k=1
    build200     N=200 p=0.15 k=1, warm
"""

from __future__ import annotations

import hashlib
import os
import statistics
import tempfile
import time

import wall

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
    return {"case": case, f"{command}_s": elapsed, "sha256": digest}


if __name__ == "__main__":
    wall.main(__doc__, CASES, run_case)
