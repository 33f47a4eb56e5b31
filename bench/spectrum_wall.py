"""Wall timings of the upper-Laplacian eigensolves: the gap the hypotheses
ask for, and the `spectrum` command, at the sizes where they are the limit.

Usage (from the repository root):
    python3 bench/spectrum_wall.py [--src DIR ...] [--repeat N] [CASE ...]

`bench/wall.py` runs each case in a fresh interpreter. Each run prints one
JSON line: the case, its timings in seconds, the eigenvalues found, and the
peak RSS. LM means `linial_meshulam(LmParams(N, p, k, seed=1))`. The cases:

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
`routed` naming its path, timed after one untimed routed solve on another
fresh complex, since a first solve can read many times its repeats;
`dense_s`, numpy's `eigvalsh` of the dense Laplacian; and `iterative_s`, the
iterative solve forced by setting the dense limit that routes it to 0. Each
solve runs in a fresh interpreter of its own, so each has its own peak RSS:
`routed_peak_rss_mb`, `dense_peak_rss_mb` and `iterative_peak_rss_mb`. Each
includes the interpreter, numpy and the complex with its ranks, and the
routed one also its untimed solve.
"""

from __future__ import annotations

import time

import wall

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
SOLVERS = {case: ["routed", "dense", "iterative"] for case in GAPS}


def _complex(n: int, p: float | None, k: int):
    from simdist.random_complexes import LmParams, linial_meshulam

    if p is None:
        return wall.annulus(n)
    return linial_meshulam(LmParams(n, p, k, seed=1))


def _ranked(n: int, p: float | None, k: int):
    """A fresh complex whose exact coboundary ranks are already kept."""
    from simdist.cochains import cohomology_dim

    x = _complex(n, p, k)
    cohomology_dim(x, k)
    return x


def run_case(case: str, solver: str | None = None) -> dict:
    import numpy as np

    from simdist import cochains

    np.linalg.eigvalsh(np.eye(2))  # start the linear algebra library untimed
    out: dict = {"case": case}
    if case in GAPS:
        shape = GAPS[case]
        x = _ranked(*shape)
        out["n_k"] = x.simplex_count(shape[2])
        if solver == "routed":
            cochains.spectrum(_ranked(*shape), shape[2], whole=False)
            start = time.perf_counter()
            result = cochains.spectrum(x, shape[2], whole=False)
            out["routed_s"] = time.perf_counter() - start
            out["routed"] = "dense" if result.dense else "iterative"
        elif solver == "dense":
            lap = cochains.upper_laplacian(x, shape[2])
            start = time.perf_counter()
            values = np.linalg.eigvalsh(lap.dense())
            out["dense_s"] = time.perf_counter() - start
            out["dense_lambda"] = float(values[values > cochains.DEFAULT_TOLERANCE][0])
        else:
            cochains.GAP_DENSE_LIMIT = 0
            start = time.perf_counter()
            result = cochains.spectrum(x, shape[2], whole=False)
            out["iterative_s"] = time.perf_counter() - start
            out["iterative_lambda"] = result.lambda_min_nonzero
    else:
        shape = SPECTRA[case]
        x = _ranked(*shape)
        start = time.perf_counter()
        result = cochains.spectrum(x, shape[2])
        out["spectrum_s"] = time.perf_counter() - start
        out["path"] = "dense" if result.dense else "iterative"
        out["lambda"] = result.lambda_min_nonzero
        out["n_k"] = x.simplex_count(shape[2])
    return out


if __name__ == "__main__":
    wall.main(__doc__, CASES, run_case, SOLVERS)
