"""Wall timings of the upper-Laplacian eigensolves: the gap the hypotheses
ask for, and the `spectrum` command, at the sizes where they are the limit.

Usage (from the repository root):
    python3 bench/spectrum_wall.py [--src DIR ...] [--repeat N] [CASE ...]

Each run of a case starts a fresh interpreter that imports simdist from DIR
(default ./src), so two checkouts can be timed with one copy of this script.
Given `--src` more than once, each repeat runs every case in every tree, the
trees in turn and in reverse order on every other repeat, and a last line per
case and tree gives the median and quartiles of every number. Each run prints
one JSON line: the case, its timings in seconds, the eigenvalues found, and
the peak RSS in MB from `ru_maxrss`. LM means `linial_meshulam(LmParams(N, p,
k, seed=1))`. The cases:

    gap190 .. gap4060
                 the gap at n_k = 190, 435, 561, 630, 780, 1,225, 2,024,
                 2,926 and 4,060 k-simplices: LM(20, 0.5, 1), LM(30, 0.35,
                 1), LM(34, 0.33, 1), LM(36, 0.32, 1), LM(40, 0.3, 1),
                 LM(50, 0.25, 1), LM(24, 0.4, 2), LM(77, 0.2, 1) and
                 LM(30, 0.3, 2)
    annulus300   the same on a 300-step annulus at k=1 (1,200 edges), whose
                 eigenvalues above the gap are 1/M² apart
    spec40k2     `spectrum` of LM(40, 0.3, 2), as the command calls it
    spec60k2     `spectrum` of LM(60, 0.2, 2)
    annulus760   `spectrum` of a 760-step annulus at k=1 (3,040 edges)

A gap case times three solves, each on a fresh complex whose exact ranks are
already computed: `routed_s`, the solve that `compute_hypotheses` makes, with
`routed` naming its path; `dense_s`, numpy's `eigvalsh` of the dense
Laplacian; and `iterative_s`, the iterative solve forced by setting the
dense limit that routes it to 0. Their peak RSS is that of all three.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import statistics
import subprocess
import sys
import time

GAPS = {
    "gap190": (20, 0.5, 1), "gap435": (30, 0.35, 1), "gap561": (34, 0.33, 1),
    "gap630": (36, 0.32, 1), "gap780": (40, 0.3, 1),
    "gap1225": (50, 0.25, 1), "gap2024": (24, 0.4, 2), "gap2926": (77, 0.2, 1),
    "gap4060": (30, 0.3, 2), "annulus300": (300, None, 1),
}
SPECTRA = {
    "spec40k2": (40, 0.3, 2), "spec60k2": (60, 0.2, 2), "annulus760": (760, None, 1),
}
CASES = (*GAPS, *SPECTRA)


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _complex(n: int, p: float | None, k: int):
    from simdist.complexes import build_complex
    from simdist.random_complexes import LmParams, linial_meshulam

    if p is not None:
        return linial_meshulam(LmParams(n, p, k, seed=1))
    tops = []  # an annulus of n steps
    for i in range(n):
        j = (i + 1) % n
        tops += [(i, n + i, j), (n + i, n + j, j)]
    return build_complex(tops)


def _ranked(n: int, p: float | None, k: int):
    """A fresh complex whose exact coboundary ranks are already kept."""
    from simdist.cochains import cohomology_dim

    x = _complex(n, p, k)
    cohomology_dim(x, k)
    return x


def run_case(case: str) -> dict:
    import numpy as np

    from simdist import cochains

    np.linalg.eigvalsh(np.eye(2))  # start the linear algebra library untimed
    gap_only = "whole" in inspect.signature(cochains.spectrum).parameters
    out: dict = {"case": case}
    if case in GAPS:
        shape = GAPS[case]
        routed = {"whole": False} if gap_only else {}
        x = _ranked(*shape)
        start = time.perf_counter()
        result = cochains.spectrum(x, shape[2], **routed)
        out["routed_s"] = time.perf_counter() - start
        out["routed"] = "dense" if result.dense else "iterative"
        lap = cochains.upper_laplacian(_ranked(*shape), shape[2])
        start = time.perf_counter()
        values = np.linalg.eigvalsh(lap.dense())
        out["dense_s"] = time.perf_counter() - start
        out["dense_lambda"] = float(values[values > cochains.DEFAULT_TOLERANCE][0])
        x = _ranked(*shape)
        limit = "GAP_DENSE_LIMIT" if gap_only else "DENSE_EIGENSOLVE_LIMIT"
        setattr(cochains, limit, 0)
        start = time.perf_counter()
        result = cochains.spectrum(x, shape[2], **routed)
        out["iterative_s"] = time.perf_counter() - start
        out["iterative_lambda"] = result.lambda_min_nonzero
        out["n_k"] = lap.dim
    elif case in SPECTRA:
        shape = SPECTRA[case]
        x = _ranked(*shape)
        start = time.perf_counter()
        result = cochains.spectrum(x, shape[2])
        out["spectrum_s"] = time.perf_counter() - start
        out["path"] = "dense" if result.dense else "iterative"
        out["lambda"] = result.lambda_min_nonzero
        out["n_k"] = x.simplex_count(shape[2])
    else:
        raise SystemExit(f"unknown case {case!r}; choose from {', '.join(CASES)}")
    out["peak_rss_mb"] = _peak_mb()
    return out


def _summary(runs: list[dict]) -> dict:
    """Median and quartiles of every number the runs of one case share."""
    out = {}
    for key, value in runs[0].items():
        if isinstance(value, float):
            values = [run[key] for run in runs]
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else [values[0]] * 3)
            out[key] = {"median": median, "q1": q1, "q3": q3}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--inline", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("cases", nargs="*", default=list(CASES))
    args = parser.parse_args()
    trees = args.src or ["src"]
    if args.inline:  # the child: one case in this interpreter
        sys.path.insert(0, os.path.abspath(trees[0]))
        print(json.dumps(run_case(args.cases[0])))
        return
    runs: dict = {}
    for repeat in range(args.repeat):
        for case in args.cases:
            for tree in trees if repeat % 2 == 0 else trees[::-1]:
                child = subprocess.run(
                    [sys.executable, __file__, "--inline", "--src", tree, case],
                    check=True, capture_output=True, text=True,
                )
                line = json.loads(child.stdout)
                print(json.dumps({"src": tree, **line}), flush=True)
                runs.setdefault((case, tree), []).append(line)
    if args.repeat > 1 or len(trees) > 1:
        for (case, tree), lines in runs.items():
            print(json.dumps({"summary": case, "src": tree, **_summary(lines)}), flush=True)


if __name__ == "__main__":
    main()
