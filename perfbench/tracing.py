"""In-memory span recorder installed from outside the program.

`Tracer.install()` replaces each layer's public functions, as bound in the
module that calls them, by timing wrappers; `uninstall()` restores them. A
span records its layer, function, start, end, parent span and job, plus the
counts its counter reads off the arguments and the returned object. Self time
is a span's duration minus the durations of its child spans: calls run on one
thread and nest, so the children never overlap.
"""

from __future__ import annotations

import importlib
import json
import math
import time

# -- counters: read work done off the arguments and the returned object -------


def _fill_counts(args, kwargs, result):
    return {"states": result.states_visited,
            "searched": int(result.states_visited > 0),
            "exact": int(result.exact is not None)}


def _rank_counts(args, kwargs, result):
    rows, cols = args[0].shape  # the dense int64 copy exact_rank makes
    return {"bytes": rows * cols * 8}


def _spectrum_counts(args, kwargs, result):
    return {"dense": int(result.dense), "iterative": int(not result.dense)}


def _draw_counts(args, kwargs, result):
    params = args[0]
    draws = math.comb(params.num_vertices, params.k + 2)
    return {"draws": draws, "bytes": draws * 8}  # one float64 uniform each


# (module, attribute, layer, counter). The module is the one whose code makes
# the call, so the wrapper sees exactly the calls that module makes.
TARGETS = [
    ("simdist.serialize", "dumps", "serialize",
     lambda a, k, r: {"bytes": len(r)}),
    ("simdist.cli", "load_complex", "complexes",
     lambda a, k, r: {"simplices": sum(r.f_vector())}),
    ("simdist.cli", "vertex_set_family", "distortion", None),
    ("simdist.cli", "evaluate_distortion", "distortion", None),
    ("simdist.cli", "verify_instance", "distortion", None),
    ("simdist.cli", "concentration_report", "random_complexes", None),
    ("simdist.distortion", "vertex_set_family", "distortion", None),
    ("simdist.distortion", "compute_hypotheses", "distortion", None),
    ("simdist.distortion", "distortion_lower_bound", "distortion", None),
    ("simdist.distortion", "cochain_energy_inequality", "distortion", None),
    ("simdist.distortion", "projection_volume_inequality", "distortion", None),
    ("simdist.distortion", "boundary_pairing", "distortion", None),
    ("simdist.distortion", "fill_number", "gallery", _fill_counts),
    ("simdist.distortion", "GalleryGraph", "gallery", None),
    ("simdist.distortion", "is_gallery_connected", "gallery", None),
    ("simdist.gallery", "GalleryGraph", "gallery", None),
    ("simdist.distortion", "cohomology_dim", "cochains", None),
    ("simdist.distortion", "spectrum", "cochains", _spectrum_counts),
    ("simdist.distortion", "upper_laplacian", "cochains", None),
    ("simdist.distortion", "differential_matrix", "cochains", None),
    ("simdist.distortion", "differential", "cochains", None),
    ("simdist.distortion", "adjoint_differential", "cochains", None),
    ("simdist.distortion", "inner_product", "cochains", None),
    ("simdist.distortion", "norm", "cochains", None),
    ("simdist.distortion", "random_cochain", "cochains", None),
    ("simdist.cochains", "exact_rank", "cochains", _rank_counts),
    ("simdist.cochains", "differential_matrix", "cochains", None),
    ("simdist.cochains", "upper_laplacian", "cochains", None),
    ("simdist.distortion", "simplex_boundary_oriented", "geometry", None),
    ("simdist.distortion", "simplex_boundary_projection_volumes", "geometry",
     lambda a, k, r: {"members": len(a[0])}),
    ("simdist.distortion", "enclosed_projection_volume", "geometry", None),
    ("simdist.distortion", "stokes_check", "geometry", None),
    ("simdist.random_complexes", "skeleton_statistics", "random_complexes", None),
    ("simdist.random_complexes", "top_simplex_sample", "random_complexes",
     _draw_counts),
]

LAYERS = ("cli", "serialize", "complexes", "random_complexes", "cochains",
          "gallery", "geometry", "distortion")


class Span:
    __slots__ = ("job", "parent", "layer", "name", "start", "end", "child",
                 "counts")

    def __init__(self, job, parent, layer, name):
        self.job = job
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = self.end = 0.0
        self.child = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._job = -1

    def install(self) -> None:
        for module_name, attr, layer, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, attr, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, layer, name) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(self._job, parent, layer, f"{layer}.{name}")
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.duration

    def _wrap(self, original, layer, name, counter):
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def job(self, job_id: int, call):
        """Run one CLI job under a root span of the cli layer."""
        self._job = job_id
        span = self._open("cli", "main")
        try:
            return call()
        finally:
            self._close(span)

    def write(self, path: str, header: dict) -> None:
        """JSON lines: the header, then one array per span whose fields are
        named by the header's "span_fields"; a span's id is its line order."""
        fields = ["job", "parent", "name", "start", "end", "self", "counts"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "span_fields": fields}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.job, s.parent, s.name, s.start, s.end,
                                     s.self_time, s.counts]) + "\n")


# -- per-layer metrics --------------------------------------------------------

TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def tail_level(count: int) -> float:
    """Highest percentile in TAIL_LEVELS with at least ten samples beyond it,
    or 0 when there are too few samples for any."""
    for pct in TAIL_LEVELS:
        if count * (100 - pct) / 100 >= 10:
            return pct
    return 0.0


def layer_metrics(spans: list[Span], walls: list[float]) -> dict:
    """Per-layer metrics of the traced jobs, as {name: (value, unit)}.

    Times and counts are per job (totals over the traced jobs divided by
    their number); `.share` is a layer's self time as a percentage of the
    jobs' wall time. Names of the form `<layer>.<x>_s` are inclusive span
    times unless documented as self times in perfbench/README.md.
    """
    jobs = len(walls)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def spans_of(*names):
        return [s for name in names for s in by_name.get(name, [])]

    def time_of(*names):
        return sum(s.duration for s in spans_of(*names)) / jobs

    def self_of(*names):
        return sum(s.self_time for s in spans_of(*names)) / jobs

    def calls_of(*names):
        return len(spans_of(*names)) / jobs

    def count_of(key, *names):
        return sum(s.counts[key] for s in spans_of(*names)) / jobs

    out = {}
    wall = sum(walls)
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        self_total = sum(s.self_time for s in mine)
        out[f"{layer}.self_s"] = (self_total / jobs, "s")
        out[f"{layer}.calls"] = (len(mine) / jobs, "count")
        out[f"{layer}.share"] = (100 * self_total / wall, "%")

    fill = "gallery.fill_number"
    fill_ms = [s.duration * 1e3 for s in spans_of(fill)]
    level = tail_level(len(fill_ms))
    out.update({
        "gallery.fill_s": (time_of(fill), "s"),
        "gallery.fill_calls": (calls_of(fill), "count"),
        "gallery.fill_searched": (count_of("searched", fill), "count"),
        "gallery.fill_states": (count_of("states", fill), "count"),
        "gallery.fill_ms.p50": (percentile(fill_ms, 50), "ms"),
        "gallery.fill_ms.tail": (percentile(fill_ms, level) if level else 0.0, "ms"),
        "gallery.fill_ms.tail_pct": (level, "%"),
        "gallery.graph_s": (time_of("gallery.GalleryGraph"), "s"),
        "cochains.rank_s": (time_of("cochains.exact_rank"), "s"),
        "cochains.rank_calls": (calls_of("cochains.exact_rank"), "count"),
        "cochains.rank_bytes": (count_of("bytes", "cochains.exact_rank"), "B"),
        "cochains.matrix_builds": (calls_of("cochains.differential_matrix"), "count"),
        "cochains.matrix_s": (time_of("cochains.differential_matrix"), "s"),
        "cochains.spectrum_s": (self_of("cochains.spectrum"), "s"),
        "cochains.eig_dense_calls": (count_of("dense", "cochains.spectrum"), "count"),
        "cochains.eig_iterative_calls": (
            count_of("iterative", "cochains.spectrum"), "count"),
        "distortion.family_s": (time_of("distortion.vertex_set_family"), "s"),
        "distortion.pairing_calls": (calls_of("distortion.boundary_pairing"), "count"),
        "distortion.hypotheses_s": (time_of("distortion.compute_hypotheses"), "s"),
        "random_complexes.sample_s": (
            time_of("random_complexes.top_simplex_sample"), "s"),
        "random_complexes.stats_s": (
            self_of("random_complexes.skeleton_statistics",
                    "random_complexes.concentration_report"), "s"),
        "random_complexes.draws": (
            count_of("draws", "random_complexes.top_simplex_sample"), "count"),
        "random_complexes.draw_bytes": (
            count_of("bytes", "random_complexes.top_simplex_sample"), "B"),
        "complexes.load_s": (time_of("complexes.load_complex"), "s"),
        "complexes.simplices": (count_of("simplices", "complexes.load_complex"), "count"),
        "geometry.volumes_s": (
            time_of("geometry.simplex_boundary_projection_volumes",
                    "geometry.enclosed_projection_volume"), "s"),
        "geometry.volume_members": (
            count_of("members", "geometry.simplex_boundary_projection_volumes"), "count"),
        "geometry.stokes_s": (time_of("geometry.stokes_check"), "s"),
        "serialize.dumps_s": (time_of("serialize.dumps"), "s"),
        "serialize.bytes": (count_of("bytes", "serialize.dumps"), "B"),
    })
    return out
