"""Workload definitions shared by the runner and the input generator.

Each workload runs one simdist CLI command over a pool of inputs derived from
the benchmark seed. Pools hold many small random complexes rather than one
large one: the cost of the fill search varies several-fold between complexes
drawn with different seeds, and the median job over a pool of distinct complexes is
what keeps a run's figure steady from one seed to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Candidate complex j of benchmark seed s is sampled with LM seed
# s * SEED_STRIDE + j, so distinct benchmark seeds never share a complex.
SEED_STRIDE = 1_000_000
MAX_SEED = 2**40


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "eval", "verify" or "concentration"
    n: int
    p: float
    k: int
    pool: int  # distinct inputs per run; the jobs cycle through them
    why: str
    trials: int = 0  # concentration only
    eps: float = 0.5  # concentration only

    @property
    def members(self) -> int:
        """Members of the vertex-set family: C(N, k+2)."""
        return math.comb(self.n, self.k + 2)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "fill-k1", "eval", n=12, p=0.6, k=1, pool=80,
            why="distortion eval on k=1 complexes: many moderate fill "
                "searches over 3-face members, so gallery.fill_number is "
                "nearly all of the time",
        ),
        Workload(
            "fill-k2", "eval", n=7, p=0.6, k=2, pool=250,
            why="distortion eval on k=2 complexes: 4-face members whose "
                "few slow searches dominate, plus the k=2 volume kernel",
        ),
        Workload(
            "verify-k1", "verify", n=50, p=0.25, k=1, pool=5,
            why="verify all on a k=1 complex with about a thousand edges: "
                "exact rank, incidence matrices and boundary pairings",
        ),
        Workload(
            "sample", "concentration", n=200, p=0.5, k=1, pool=1, trials=25,
            why="concentration over repeated samples: top-simplex draws and "
                "facet ranks, the only workload that builds no complex",
        ),
    )
}


def job_argv(wl: Workload, item: dict, out_path: str) -> list[str]:
    """CLI arguments of one job on one pool input."""
    if wl.command == "concentration":
        return ["concentration", "--n", str(wl.n), "--p", str(wl.p),
                "--k", str(wl.k), "--eps", str(wl.eps),
                "--trials", str(wl.trials), "--seed", str(item["seed"]),
                "--out", out_path]
    embedding = f"gaussian:4:{item['seed']}"
    if wl.command == "eval":
        return ["distortion", "eval", "--complex", item["path"],
                "--k", str(wl.k), "--embedding", embedding, "--out", out_path]
    return ["verify", "all", "--complex", item["path"], "--k", str(wl.k),
            "--embedding", embedding, "--out", out_path]
