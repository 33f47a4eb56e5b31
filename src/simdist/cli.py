"""Command-line interface: generation, spectra, galleries, and distortion.

Every document a subcommand writes holds its full configuration under
`config`: every parameter of the command but `--out` and `--format`, read
from the command's own context, so no option is left out and no option of an
enclosing group gets in. Identical configurations produce byte-identical
files. Exit codes: 0 success, 1 failed verification, hypothesis failure or
spectral failure, 2 input errors.
"""

from __future__ import annotations

import dataclasses
import functools
import sys

import click

from . import serialize
from .cochains import DEFAULT_TOLERANCE, SpectralError, spectrum
from .complexes import ComplexError, load_complex, save_complex_json, save_complex_text
from .distortion import (
    EmbeddingSpec,
    evaluate_distortion,
    distortion_lower_bound,
    lm_distortion_experiment,
    vertex_set_family,
    verify_instance,
)
from .gallery import (
    UnfillableError,
    fill_number,
    gallery_distance,
    is_gallery_connected,
)
from .geometry import GeometryError
from .random_complexes import LmParams, concentration_report, linial_meshulam

_INPUT_ERRORS = (ComplexError, GeometryError, ValueError, OSError)
_RENAMED = {"complex_path": "complex", "embedding_spec": "embedding"}


def _emit(result, out: str | None):
    """Write `result` beside the running command's parameters, all but `out`
    and `fmt`, so every document echoes its full configuration."""
    params = click.get_current_context().params
    config = {_RENAMED.get(name, name): value for name, value in params.items()
              if name not in ("out", "fmt")}
    _write(serialize.dumps({"config": config, "result": result}), out)


def _write(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _guard(func):
    """Map input/domain errors to exit code 2 and spectral failures to 1."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except _INPUT_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except SpectralError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _parse_simplex(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ComplexError(f"cannot parse simplex {text!r}") from None


@click.group()
def main():
    """Simplicial-complex distortion toolkit."""


@main.command()
@click.option("--n", "n", type=int, required=True, help="number of vertices")
@click.option("--p", "p", type=float, required=True, help="top-simplex probability")
@click.option("--k", "k", type=int, required=True, help="complete skeleton dimension")
@click.option("--seed", type=int, required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_guard
def lmgen(n, p, k, seed, out, fmt):
    """Sample a random complex with a complete k-skeleton."""
    complex_ = linial_meshulam(LmParams(n, p, k, seed))
    if fmt == "json":
        save_complex_json(complex_, out)
    else:
        save_complex_text(complex_, out)


@main.command("spectrum")
@click.option("--complex", "complex_path", type=click.Path(exists=True), required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--tolerance", type=float, default=DEFAULT_TOLERANCE, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@_guard
def spectrum_command(complex_path, k, tolerance, out):
    """Eigenvalues of the upper k-Laplacian with the verified zero split."""
    complex_ = load_complex(complex_path)
    _emit(spectrum(complex_, k, tolerance), out)


@main.group()
def gallery():
    """Gallery distances, connectivity, and filling numbers."""


@gallery.command("dist")
@click.option("--complex", "complex_path", type=click.Path(exists=True), required=True)
@click.argument("first")
@click.argument("second")
@click.option("--out", type=click.Path(), default=None)
@_guard
def gallery_dist(complex_path, first, second, out):
    """Gallery distance between two simplices given as 'v1,v2,...' labels."""
    complex_ = load_complex(complex_path)
    eta0 = complex_.from_labels(_parse_simplex(first))
    eta1 = complex_.from_labels(_parse_simplex(second))
    value = gallery_distance(complex_, eta0, eta1)
    _emit({"distance": None if value == float("inf") else int(value),
           "finite": value != float("inf")}, out)


@gallery.command("connected")
@click.option("--complex", "complex_path", type=click.Path(exists=True), required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--out", type=click.Path(), default=None)
@_guard
def gallery_connected(complex_path, k, out):
    """Whether every pair of k-simplices is joined by a gallery."""
    complex_ = load_complex(complex_path)
    _emit({"connected": is_gallery_connected(complex_, k)}, out)


@gallery.command("fill")
@click.option("--complex", "complex_path", type=click.Path(exists=True), required=True)
@click.argument("faces", nargs=-1, required=True)
@click.option("--out", type=click.Path(), default=None)
@_guard
def gallery_fill(complex_path, faces, out):
    """Filling number of a face set; each face is 'v1,v2,...' labels."""
    complex_ = load_complex(complex_path)
    face_set = [complex_.from_labels(_parse_simplex(f)) for f in faces]
    try:
        result = fill_number(complex_, face_set)
    except UnfillableError as exc:
        _emit({"unfillable": True, "reason": str(exc)}, out)
        return
    witness = tuple(map(complex_.to_labels, result.witness))
    _emit(dataclasses.replace(result, witness=witness), out)


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--p", "p", type=float, required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--eps", type=float, required=True)
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", type=click.Path(), default=None)
@_guard
def concentration(n, p, k, eps, trials, seed, fmt, out):
    """Frequencies of the skeleton concentration events over many samples."""
    report = concentration_report(LmParams(n, p, k, seed), eps, trials)
    if fmt == "csv":
        _write(serialize.to_csv(*report.csv_rows()), out)
    else:
        _emit(report, out)


@main.command()
@click.argument("mode", type=click.Choice(["all"]))
@click.option("--complex", "complex_path", type=click.Path(exists=True), required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--embedding", "embedding_spec", type=str, default=None,
              help="gaussian:m:seed, spectral:m, or file:path")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tolerance", type=float, default=DEFAULT_TOLERANCE, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@_guard
def verify(mode, complex_path, k, embedding_spec, seed, tolerance, out):
    """Run the identity and inequality battery on one complex."""
    complex_ = load_complex(complex_path)
    embedding = None
    if embedding_spec is not None:
        embedding = EmbeddingSpec.parse(embedding_spec).realize(complex_)
    report = verify_instance(
        complex_, k, embedding, seed=seed, tolerance=tolerance
    )
    _emit(report, out)
    if not (report["ok"] and report["hypotheses_ok"]):
        sys.exit(1)


@main.group("distortion")
def distortion_group():
    """Distortion measurement and lower bounds."""


@distortion_group.command("eval")
@click.option("--complex", "complex_path", type=click.Path(exists=True), required=True)
@click.option("--embedding", "embedding_spec", type=str, required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--tolerance", type=float, default=DEFAULT_TOLERANCE, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@_guard
def distortion_eval(complex_path, embedding_spec, k, tolerance, out):
    """Measured distortion of an embedding over all vertex subsets."""
    complex_ = load_complex(complex_path)
    family = vertex_set_family(complex_, k)
    embedding = EmbeddingSpec.parse(embedding_spec).realize(complex_)
    try:
        report = evaluate_distortion(
            complex_, family, embedding, tolerance=tolerance
        )
    except UnfillableError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    _emit(report, out)


@distortion_group.command("bound")
@click.option("--complex", "complex_path", type=click.Path(exists=True), required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--tolerance", type=float, default=DEFAULT_TOLERANCE, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@_guard
def distortion_bound(complex_path, k, tolerance, out):
    """Spectral-counting lower bound for the all-subsets family."""
    complex_ = load_complex(complex_path)
    family = vertex_set_family(complex_, k)
    result = distortion_lower_bound(complex_, family, tolerance=tolerance)
    _emit(result, out)
    if not result.applicable:
        sys.exit(1)


@distortion_group.command("lm-experiment")
@click.option("--n", "n", type=int, required=True)
@click.option("--p", "p", type=float, required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--embedding", "embedding_spec", type=str, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", type=click.Path(), default=None)
@_guard
def distortion_lm_experiment(n, p, k, trials, seed, embedding_spec, fmt, out):
    """Random-complex trials comparing measured distortion to the bound."""
    from .distortion import CSV_HEADER

    spec = EmbeddingSpec.parse(embedding_spec)
    report = lm_distortion_experiment(LmParams(n, p, k, seed), spec, trials)
    if fmt == "csv":
        rows = [record.csv_row() for record in report.records]
        _write(serialize.to_csv(CSV_HEADER, rows), out)
    else:
        _emit(report, out)


if __name__ == "__main__":  # pragma: no cover
    main()
