"""Write a workload's seeded inputs; this is the benchmark's timed set-up.

Usage (from the repository root):
    python3 perfbench/make_inputs.py '<workload as JSON>' <seed> <out-dir>

It starts from a fresh interpreter, imports simdist.cli from ./src and writes
each input complex with the CLI's `lmgen`, then a manifest.json listing the
inputs. Candidate complexes that are not pure or not gallery-connected are
skipped: `distortion eval` and `verify all` exit 1 on them by design, and the
benchmark times only jobs that succeed.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import SEED_STRIDE, Workload


def make_inputs(wl: Workload, seed: int, out_dir: str) -> list[dict]:
    from simdist.cli import main as cli
    from simdist.gallery import is_gallery_connected
    from simdist.random_complexes import LmParams, linial_meshulam

    base = seed * SEED_STRIDE
    if wl.command == "concentration":
        return [{"seed": base}]
    inputs = []
    candidate = base
    while len(inputs) < wl.pool:
        lm_seed, candidate = candidate, candidate + 1
        complex_ = linial_meshulam(LmParams(wl.n, wl.p, wl.k, lm_seed))
        if not (complex_.is_pure and is_gallery_connected(complex_, wl.k)):
            continue
        path = os.path.join(out_dir, f"in{len(inputs):03d}.cplx")
        cli(["lmgen", "--n", str(wl.n), "--p", str(wl.p), "--k", str(wl.k),
             "--seed", str(lm_seed), "--out", path], standalone_mode=False)
        inputs.append({"path": path, "seed": lm_seed})
    return inputs


if __name__ == "__main__":
    sys.path.insert(0, os.path.abspath("src"))
    spec, seed_text, directory = sys.argv[1:4]
    items = make_inputs(Workload(**json.loads(spec)), int(seed_text), directory)
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(items, fh)
