"""The runner behind the wall scripts: one fresh interpreter per run.

A wall script holds a table of case names and `run_case(case) -> dict`, and
ends in `wall.main(__doc__, CASES, run_case)`. Its command line is

    python3 bench/<script>.py [--src DIR ...] [--repeat N] [CASE ...]

Each run of a case starts a fresh interpreter that imports simdist from DIR
(default ./src), so two checkouts can be timed with one copy of the script.
Given `--src` more than once, each repeat runs every case in every tree, the
trees in turn and in reverse order on every other repeat. Each run prints one
JSON line: the tree as `src`, then what `run_case` returns, then the peak RSS
in MB from `ru_maxrss` as `peak_rss_mb`. A case listed in `parts` runs each
of its parts in a fresh interpreter of its own, as `run_case(case, part)`,
and its line joins what the parts return, each part's peak RSS as
`<part>_peak_rss_mb`. With more than one tree or repeat, a last line per
case and tree gives the median and quartiles of every number.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def annulus(steps: int):
    """A triangulated annulus of `steps` steps at k=1: 4·steps edges."""
    from simdist.complexes import build_complex

    tops = []
    for i in range(steps):
        j = (i + 1) % steps
        tops += [(i, steps + i, j), (steps + i, steps + j, j)]
    return build_complex(tops)


def torus(side: int):
    """A side × side grid torus, each square cut along its diagonal:
    2·side² triangles, and 3·side² edges at k=1."""
    from simdist.complexes import build_complex

    def at(i, j):
        return (i % side) * side + j % side

    tops = []
    for i in range(side):
        for j in range(side):
            tops += [(at(i, j), at(i + 1, j), at(i + 1, j + 1)),
                     (at(i, j), at(i, j + 1), at(i + 1, j + 1))]
    return build_complex([tuple(sorted(t)) for t in tops])


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


def main(doc: str, cases, run_case, parts=None) -> None:
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--src", action="append")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--inline", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--part", help=argparse.SUPPRESS)
    parser.add_argument("cases", nargs="*", default=list(cases))
    args = parser.parse_args()
    unknown = [case for case in args.cases if case not in cases]
    if unknown:
        parser.error(f"unknown case {unknown[0]!r}; choose from {', '.join(cases)}")
    trees = args.src or ["src"]
    if args.inline:  # the child: one case, or one part of it, in this interpreter
        sys.path.insert(0, os.path.abspath(trees[0]))
        if args.part is None:
            line = {**run_case(args.cases[0]), "peak_rss_mb": peak_mb()}
        else:
            line = {**run_case(args.cases[0], args.part),
                    f"{args.part}_peak_rss_mb": peak_mb()}
        print(json.dumps(line))
        return
    runs: dict = {}
    for repeat in range(args.repeat):
        for case in args.cases:
            for tree in trees if repeat % 2 == 0 else trees[::-1]:
                line: dict = {}
                for part in (parts or {}).get(case, [None]):
                    child = subprocess.run(
                        [sys.executable, sys.argv[0], "--inline", "--src", tree, case,
                         *(["--part", part] if part else [])],
                        check=True, stdout=subprocess.PIPE, text=True,
                    )
                    line.update(json.loads(child.stdout))
                print(json.dumps({"src": tree, **line}), flush=True)
                runs.setdefault((case, tree), []).append(line)
    if args.repeat > 1 or len(trees) > 1:
        for (case, tree), lines in runs.items():
            print(json.dumps({"summary": case, "src": tree, **_summary(lines)}), flush=True)
