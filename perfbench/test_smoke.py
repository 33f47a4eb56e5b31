"""Smoke test of the benchmark itself at tiny sizes.

Run from the repository root:
    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced on a pool of tiny complexes.
The test checks that every metric BENCHMARK.json names is emitted with its
unit, that every job passes its output checks, and that the top-level spans
of each traced job account for no more than the job's wall time.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "fill-k1": dict(n=8, pool=2),
    "fill-k2": dict(n=6, p=0.7, pool=2),
    "verify-k1": dict(n=10, p=0.6, pool=1),
    "sample": dict(n=100, trials=2),
}


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_benchmark_names_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics(name):
    wl = dataclasses.replace(WORKLOADS[name], **TINY[name])
    result, bench, _ = run(wl, seed=1, seconds=0.1, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(bench.jobs) >= 2
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _declared("end_to_end")
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_and_spans(name):
    wl = dataclasses.replace(WORKLOADS[name], **TINY[name])
    result, bench, tracer = run(wl, seed=1, seconds=0.1, trace=True)
    assert result["correct"]
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _declared("per_layer")

    traced = [i for i, job in enumerate(bench.jobs) if job["traced"]]
    assert traced
    roots = {s.job: (i, s) for i, s in enumerate(tracer.spans) if s.parent == -1}
    assert sorted(roots) == traced
    for job_id in traced:
        root_index, root = roots[job_id]
        assert root.duration <= bench.jobs[job_id]["wall"]
        top = [s for s in tracer.spans if s.parent == root_index]
        assert top, "the job made no traced calls"
        assert sum(s.duration for s in top) <= root.duration
