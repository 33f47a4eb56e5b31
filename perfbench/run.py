"""Benchmark of the simdist CLI pipeline, end to end and layer by layer.

Usage (from the repository root):
    python3 perfbench/run.py --workload fill-k1 --seed 1 --seconds 25 --trace 0

One closed-loop client: the jobs of a workload run one after another in this
process, each through the CLI's click entry point with the same arguments a
user would type, from argv to the written output document. Every document is
checked. The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; with `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones. See perfbench/README.md
for the workloads and the definition of every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from tracing import Tracer, layer_metrics, percentile, tail_level  # noqa: E402
from workloads import MAX_SEED, WORKLOADS, Workload, job_argv  # noqa: E402

SETUP_REPEATS = 3
WORK_ROOT = ".perfbench"
# The mean top count of `concentration` is checked against its expectation at
# this many standard errors; see perfbench/README.md for why not three.
TOP_COUNT_SE = 4.0


class Run:
    """One benchmark run: set-up, the closed job loop and the output checks."""

    def __init__(self, wl: Workload, seed: int, work: str):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.out = os.path.join(work, "out.json")
        self.inputs: list[dict] = []
        self.first_doc: dict[int, bytes] = {}
        self.jobs: list[dict] = []
        self.members = 0
        self.exact_members = 0

    def setup(self, repeats: int) -> list[float]:
        """Generate the inputs `repeats` times in fresh interpreters; each
        time covers interpreter start, `import simdist.cli` and `lmgen`."""
        spec = json.dumps(dataclasses.asdict(self.wl))
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, os.path.join(HERE, "make_inputs.py"), spec,
                 str(self.seed), self.work],
                check=True, timeout=150,
            )
            times.append(time.perf_counter() - start)
        with open(os.path.join(self.work, "manifest.json"), encoding="utf-8") as fh:
            self.inputs = json.load(fh)
        return times

    def job(self, index: int, tracer: Tracer | None = None) -> float:
        """Run one job on pool input `index`, check it, return its wall time."""
        from simdist.cli import main

        argv = job_argv(self.wl, self.inputs[index], self.out)
        if os.path.exists(self.out):
            os.remove(self.out)

        def call():
            main.main(args=argv, prog_name="simdist", standalone_mode=False)

        job_id = len(self.jobs)
        code = None
        start = time.perf_counter()
        try:
            if tracer is None:
                call()
            else:
                tracer.job(job_id, call)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a failed job is counted, and the run goes on
            traceback.print_exc()
        wall = time.perf_counter() - start
        problem = f"exit code {code}" if code != 0 else self.check(index)
        if problem:
            print(f"job {job_id} on input {index} failed: {problem}", file=sys.stderr)
        self.jobs.append({"input": index, "wall": wall, "ok": not problem,
                          "traced": tracer is not None})
        return wall

    def check(self, index: int) -> str | None:
        """Problem with the job's output document, or None when it is right."""
        try:
            with open(self.out, "rb") as fh:
                doc = fh.read()
        except OSError as exc:
            return f"no output document ({exc})"
        if doc != self.first_doc.setdefault(index, doc):
            return "document differs from the first job's on the same input"
        result = json.loads(doc)["result"]
        if self.wl.command == "eval":
            evaluated = result["evaluated_members"]
            self.members += evaluated
            if result["exact_fill"]:
                self.exact_members += evaluated
            if evaluated != self.wl.members:
                return f"evaluated {evaluated} members, expected {self.wl.members}"
            if not result["exact_fill"]:
                return "exact_fill is false"
            lo, hi = result["distortion_lo"], result["distortion_hi"]
            if lo is None or lo != hi:
                return f"distortion interval [{lo}, {hi}] is not a point"
        elif self.wl.command == "verify":
            for flag in ("ok", "hypotheses_ok"):
                if result[flag] is not True:
                    return f"{flag} is not true"
            if result["checks"]["dd_zero"] is not True:
                return "checks.dd_zero is not true"
        else:
            for event in ("count", "degree", "min_degree"):
                if result[f"{event}_event_frequency"] != 1.0:
                    return f"{event} event frequency is not 1.0"
            gap = abs(result["mean_top_count"] - result["expected_top_count"])
            if gap > TOP_COUNT_SE * result["top_count_std_error"]:
                return f"mean top count is {gap} from its expectation"
        return None

    def measure(self, seconds: float, tracer: Tracer | None = None) -> list[float]:
        """Run jobs over the pool in order, from its first input and cycling
        when it runs out, while a median job still fits in `seconds`; return
        their times. At least one job runs."""
        walls = []
        start = time.perf_counter()
        while not walls or (time.perf_counter() - start
                            + statistics.median(walls) <= seconds):
            walls.append(self.job(len(walls) % len(self.inputs), tracer))
        return walls


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "DISTORTION_THREADS": "unset (1)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _openblas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for lib in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def run(wl: Workload, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns (result, Run, Tracer or None)."""
    os.environ.pop("DISTORTION_THREADS", None)
    work = os.path.join(WORK_ROOT, f"{wl.name}-seed{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Run(wl, seed, work)
    try:
        setup_times = bench.setup(1 if trace else SETUP_REPEATS)
        src = os.path.abspath("src")
        if src not in sys.path:
            sys.path.insert(0, src)
        env = environment()
        bench.job(0)  # warm-up: lazy imports and caches; checked, not timed
        tracer = None
        if trace:
            plain = bench.measure(seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                timed = bench.measure(seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            timed = bench.measure(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(bench.jobs)
    failed = sum(not j["ok"] for j in bench.jobs)
    if trace:
        metrics = layer_metrics(tracer.spans, timed)
        metrics["trace.overhead_s"] = (
            statistics.median(timed) - statistics.median(plain), "s")
        os.makedirs(os.path.join(WORK_ROOT, "traces"), exist_ok=True)
        tracer.write(
            os.path.join(WORK_ROOT, "traces", f"{wl.name}-seed{seed}.jsonl"),
            {"workload": wl.name, "seed": seed, "env": env, "jobs": bench.jobs},
        )
    else:
        metrics = {
            "job_s": (statistics.median(timed), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
            "exact_fill_ratio": (
                bench.exact_members / bench.members if bench.members else 1.0,
                "ratio"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    level = tail_level(len(timed))
    tail = f"p{level:g} {percentile(timed, level):.4f} s" if level else "no tail"
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name} seed {seed}: {len(bench.inputs)} inputs; "
          f"{attempted} jobs, {len(timed)} timed, {failed} failed; "
          f"timed job p50 {statistics.median(timed):.4f} s, {tail}, "
          f"max {max(timed):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, bench, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < MAX_SEED:
        parser.error(f"--seed must lie in [0, {MAX_SEED})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "simdist", "cli.py")):
        print("error: run from the repository root; src/simdist is missing",
              file=sys.stderr)
        return 2
    result, _, _ = run(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
