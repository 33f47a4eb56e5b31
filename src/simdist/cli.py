"""Command-line interface: generation, spectra, galleries, and distortion.

Every subcommand echoes its full configuration (seed included) into the
output, and identical configurations produce byte-identical files. Exit
codes: 0 success, 1 failed verification, hypothesis failure or spectral
failure, 2 input errors.
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


def _emit(payload: dict, out: str | None, as_csv: bool = False, csv_data=None):
    if as_csv:
        header, rows = csv_data
        text = serialize.to_csv(header, rows)
    else:
        text = serialize.dumps(payload)
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
    result = spectrum(complex_, k, tolerance)
    payload = {
        "config": {"complex": complex_path, "k": k, "tolerance": tolerance},
        "result": result,
    }
    _emit(payload, out)


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
    payload = {
        "config": {"complex": complex_path, "first": first, "second": second},
        "result": {"distance": None if value == float("inf") else int(value),
                   "finite": value != float("inf")},
    }
    _emit(payload, out)


@gallery.command("connected")
@click.option("--complex", "complex_path", type=click.Path(exists=True), required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--out", type=click.Path(), default=None)
@_guard
def gallery_connected(complex_path, k, out):
    """Whether every pair of k-simplices is joined by a gallery."""
    complex_ = load_complex(complex_path)
    payload = {
        "config": {"complex": complex_path, "k": k},
        "result": {"connected": is_gallery_connected(complex_, k)},
    }
    _emit(payload, out)


@gallery.command("fill")
@click.option("--complex", "complex_path", type=click.Path(exists=True), required=True)
@click.argument("faces", nargs=-1, required=True)
@click.option("--out", type=click.Path(), default=None)
@_guard
def gallery_fill(complex_path, faces, out):
    """Filling number of a face set; each face is 'v1,v2,...' labels."""
    complex_ = load_complex(complex_path)
    face_set = [complex_.from_labels(_parse_simplex(f)) for f in faces]
    config = {"complex": complex_path, "faces": list(faces)}
    try:
        result = fill_number(complex_, face_set)
    except UnfillableError as exc:
        _emit({"config": config, "result": {"unfillable": True, "reason": str(exc)}}, out)
        return
    witness = tuple(map(complex_.to_labels, result.witness))
    payload = {"config": config, "result": dataclasses.replace(result, witness=witness)}
    _emit(payload, out)


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
        _emit(None, out, as_csv=True, csv_data=report.csv_rows())
    else:
        payload = {
            "config": {"n": n, "p": p, "k": k, "eps": eps, "trials": trials,
                       "seed": seed},
            "result": report,
        }
        _emit(payload, out)


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
    payload = {
        "config": {"mode": mode, "complex": complex_path, "k": k,
                   "embedding": embedding_spec, "seed": seed,
                   "tolerance": tolerance},
        "result": report,
    }
    _emit(payload, out)
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
    payload = {
        "config": {"complex": complex_path, "embedding": embedding_spec,
                   "k": k, "tolerance": tolerance},
        "result": report,
    }
    _emit(payload, out)


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
    payload = {
        "config": {"complex": complex_path, "k": k, "tolerance": tolerance},
        "result": result,
    }
    _emit(payload, out)
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
        _emit(None, out, as_csv=True, csv_data=(CSV_HEADER, rows))
    else:
        payload = {
            "config": {"n": n, "p": p, "k": k, "trials": trials, "seed": seed,
                       "embedding": embedding_spec},
            "result": report,
        }
        _emit(payload, out)


if __name__ == "__main__":  # pragma: no cover
    main()
