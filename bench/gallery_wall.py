"""Wall timings of the gallery face search at the sizes where it is the limit.

Usage (from the repository root):
    python3 bench/gallery_wall.py [--src DIR ...] [--repeat N] [CASE ...]

`bench/wall.py` runs each case in a fresh interpreter. Each run prints one
JSON line: the case, its timings in seconds (best of a few calls for the
sub-millisecond ones) and the peak RSS. The cases:

    eval80       compute_hypotheses, then evaluate_distortion with the
                 vertex-set family and gaussian:4:1, on LM(80, 0.2, 1)
    tables80     face tables of all 3,160 edges of LM(80, 0.2, 1)
    tables120    face tables of all 7,140 edges of LM(120, 0.15, 1)
    graph200     GalleryGraph(LM(200, 0.15, 1), 1), then its node adjacency,
                 which is built on first use where a checkout defers it,
                 with the RSS growth of both
    annulus760   face tables of all 3,040 edges of a 760-step annulus
                 (761 levels), and of 4 of them
    strip5000    gallery_distance between the end edges of a 5,000-step
                 strip (10,000 levels), the one-source search of `gallery
                 dist`: the first call, which builds what the complex keeps,
                 and the best of two more
    book5000     on a book of 5,000 triangles sharing the edge (0, 1), whose
                 one face holds every coface: gallery_distance between two
                 page edges, then the face tables of the spine and 3 pages
"""

from __future__ import annotations

import time

import wall

CASES = ("eval80", "tables80", "tables120", "graph200", "annulus760", "strip5000",
         "book5000")


def _strip(steps: int):
    from simdist.complexes import build_complex

    tops = []
    for i in range(steps):
        tops += [(i, steps + 1 + i, i + 1), (steps + 1 + i, steps + 2 + i, i + 1)]
    return build_complex(tops)


def run_case(case: str) -> dict:
    import numpy as np

    from simdist.complexes import build_complex
    from simdist.distortion import (
        compute_hypotheses, evaluate_distortion, vertex_set_family,
    )
    from simdist.gallery import GalleryGraph, gallery_distance
    from simdist.geometry import Embedding
    from simdist.random_complexes import LmParams, linial_meshulam

    out: dict = {"case": case}
    if case == "eval80":
        x = linial_meshulam(LmParams(80, 0.2, 1, seed=1))
        start = time.perf_counter()
        compute_hypotheses(x, 1)
        out["hypotheses_s"] = time.perf_counter() - start
        start = time.perf_counter()
        evaluate_distortion(x, vertex_set_family(x, 1), Embedding.gaussian(80, 4, seed=1))
        out["eval_s"] = time.perf_counter() - start
    elif case in ("tables80", "tables120"):
        n, p = (80, 0.2) if case == "tables80" else (120, 0.15)
        graph = GalleryGraph(linial_meshulam(LmParams(n, p, 1, seed=1)), 1)
        start = time.perf_counter()
        graph.face_tables(np.arange(graph.complex.simplex_count(1)))
        out["tables_s"] = time.perf_counter() - start
    elif case == "graph200":
        x = linial_meshulam(LmParams(200, 0.15, 1, seed=1))
        before = wall.peak_mb()
        start = time.perf_counter()
        graph = GalleryGraph(x, 1)
        out["graph_s"] = time.perf_counter() - start
        graph._adjacency  # built on first use
        out["with_adjacency_s"] = time.perf_counter() - start
        out["rss_growth_mb"] = wall.peak_mb() - before
    elif case == "annulus760":
        graph = GalleryGraph(wall.annulus(760), 1)
        start = time.perf_counter()
        graph.face_tables(np.arange(graph.complex.simplex_count(1)))
        out["tables_s"] = time.perf_counter() - start
        few = []
        for _ in range(5):
            start = time.perf_counter()
            graph.face_tables(np.array([0, 700, 1500, 3000]))
            few.append(time.perf_counter() - start)
        out["four_tables_s"] = min(few)
    elif case == "strip5000":
        x = _strip(5000)
        ends = (0, 5001), (5000, 10001)
        calls = []
        for _ in range(3):
            start = time.perf_counter()
            assert gallery_distance(x, *ends) == 10000
            calls.append(time.perf_counter() - start)
        out["first_dist_s"] = calls[0]
        out["dist_s"] = min(calls[1:])
    elif case == "book5000":
        x = build_complex([(0, 1, i) for i in range(2, 5002)])
        start = time.perf_counter()
        assert gallery_distance(x, (0, 2), (1, 3)) == 2
        out["dist_s"] = time.perf_counter() - start
        faces = [x.index_of(f) for f in [(0, 1), (0, 2), (1, 3), (0, 5001)]]
        start = time.perf_counter()
        GalleryGraph(x, 1).face_tables(faces)
        out["four_tables_s"] = time.perf_counter() - start
    return out


if __name__ == "__main__":
    wall.main(__doc__, CASES, run_case)
