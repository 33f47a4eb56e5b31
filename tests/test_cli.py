import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from simdist.cli import main
from simdist.complexes import SimplicialComplex, build_complex, save_complex_text
from simdist.distortion import vertex_set_family
from simdist.gallery import UnfillableError, fill_number


@pytest.fixture()
def runner():
    return CliRunner()


def _lmgen(runner, tmp_path, name="x.cplx", n=10, p=0.8, k=1, seed=42):
    path = tmp_path / name
    result = runner.invoke(
        main,
        ["lmgen", "--n", str(n), "--p", str(p), "--k", str(k),
         "--seed", str(seed), "--out", str(path)],
    )
    assert result.exit_code == 0, result.output
    return path


def test_lmgen_and_spectrum_deterministic(runner, tmp_path):
    path_a = _lmgen(runner, tmp_path, "a.cplx")
    path_b = _lmgen(runner, tmp_path, "b.cplx")
    assert path_a.read_bytes() == path_b.read_bytes()

    out_a = runner.invoke(main, ["spectrum", "--complex", str(path_a), "--k", "1"])
    out_b = runner.invoke(main, ["spectrum", "--complex", str(path_a), "--k", "1"])
    assert out_a.exit_code == 0
    assert out_a.output == out_b.output
    payload = json.loads(out_a.output)
    assert payload["config"]["k"] == 1
    assert payload["result"]["zero_multiplicity"] >= 1


def test_spectrum_embeds_config(runner, tmp_path):
    path = _lmgen(runner, tmp_path)
    result = runner.invoke(
        main, ["spectrum", "--complex", str(path), "--k", "1",
               "--tolerance", "1e-9"]
    )
    payload = json.loads(result.output)
    assert payload["config"]["tolerance"] == 1e-9
    assert len(payload["result"]["eigenvalues"]) == 45


def test_gallery_commands(runner, tmp_path):
    path = _lmgen(runner, tmp_path, n=9, p=0.9, seed=7)
    dist = runner.invoke(
        main, ["gallery", "dist", "--complex", str(path), "0,1", "2,3"]
    )
    assert dist.exit_code == 0
    assert json.loads(dist.output)["result"]["finite"] is True

    connected = runner.invoke(
        main, ["gallery", "connected", "--complex", str(path), "--k", "1"]
    )
    assert connected.exit_code == 0
    assert isinstance(json.loads(connected.output)["result"]["connected"], bool)

    fill = runner.invoke(
        main, ["gallery", "fill", "--complex", str(path), "0,1", "0,2", "1,2"]
    )
    assert fill.exit_code == 0
    result = json.loads(fill.output)["result"]
    assert result["lower"] <= result["exact"] <= result["upper"]


def test_gallery_fill_unfillable(runner, tmp_path):
    path = tmp_path / "two.cplx"
    path.write_text("0 1 2\n3 4 5\n")
    fill = runner.invoke(
        main, ["gallery", "fill", "--complex", str(path), "0,1", "3,4"]
    )
    assert fill.exit_code == 0
    assert json.loads(fill.output)["result"]["unfillable"] is True


def test_verify_all_good_instance(runner, tmp_path):
    path = _lmgen(runner, tmp_path, n=10, p=0.9, seed=1)
    result = runner.invoke(
        main,
        ["verify", "all", "--complex", str(path), "--k", "1",
         "--embedding", "gaussian:4:7"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["result"]["ok"] is True
    assert payload["result"]["checks"]["dd_zero"] is True


def test_verify_all_hypothesis_failure_exits_one(runner, tmp_path):
    path = _lmgen(runner, tmp_path, n=10, p=0.1, seed=5)
    result = runner.invoke(
        main, ["verify", "all", "--complex", str(path), "--k", "1"]
    )
    assert result.exit_code == 1


def test_distortion_bound_and_eval(runner, tmp_path):
    path = _lmgen(runner, tmp_path, n=9, p=0.9, seed=3)
    bound = runner.invoke(
        main, ["distortion", "bound", "--complex", str(path), "--k", "1"]
    )
    payload = json.loads(bound.output)
    if payload["result"]["applicable"]:
        assert bound.exit_code == 0
        assert payload["result"]["second_factor"] <= payload["result"][
            "second_factor_cap"
        ] * (1 + 1e-9)
    else:
        assert bound.exit_code == 1

    ev = runner.invoke(
        main,
        ["distortion", "eval", "--complex", str(path), "--k", "1",
         "--embedding", "gaussian:4:11"],
    )
    assert ev.exit_code == 0, ev.output
    result = json.loads(ev.output)["result"]
    assert result["distortion_lo"] <= result["distortion_hi"]


def test_lm_experiment_csv(runner, tmp_path):
    out = tmp_path / "rows.csv"
    result = runner.invoke(
        main,
        ["distortion", "lm-experiment", "--n", "9", "--p", "0.9", "--k", "1",
         "--trials", "3", "--seed", "2", "--embedding", "gaussian:3:5",
         "--format", "csv", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("seed,N,p,lambda,l,s,D,bound,measured_lo")
    assert len(lines) == 4
    # repeat run is byte-identical
    out2 = tmp_path / "rows2.csv"
    runner.invoke(
        main,
        ["distortion", "lm-experiment", "--n", "9", "--p", "0.9", "--k", "1",
         "--trials", "3", "--seed", "2", "--embedding", "gaussian:3:5",
         "--format", "csv", "--out", str(out2)],
    )
    assert out.read_bytes() == out2.read_bytes()


def test_concentration_json(runner):
    result = CliRunner().invoke(
        main,
        ["concentration", "--n", "20", "--p", "0.5", "--k", "1",
         "--eps", "0.5", "--trials", "5", "--seed", "9"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["result"]["trials"] == 5


def test_concentration_last_trial_seed_out_of_range(runner):
    result = runner.invoke(
        main,
        ["concentration", "--n", "10", "--p", "0.5", "--k", "1", "--eps", "0.5",
         "--trials", "2", "--seed", str(2**64 - 1)],
    )
    assert result.exit_code == 2
    assert f"seed of the last trial, {2**64}, must fit in 64 bits" in result.output


@pytest.mark.parametrize("command", [
    ["spectrum"],
    ["verify", "all"],
    ["distortion", "eval", "--embedding", "gaussian:4:11"],
    ["distortion", "bound"],
], ids=["spectrum", "verify-all", "distortion-eval", "distortion-bound"])
def test_spectral_error_exits_one_with_one_line(runner, tmp_path, command):
    # a tolerance above the gap makes every command's spectrum refuse
    path = _lmgen(runner, tmp_path, n=9, p=0.9, seed=3)
    result = runner.invoke(
        main, command + ["--complex", str(path), "--k", "1", "--tolerance", "3.0"]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


def test_input_errors_exit_two(runner, tmp_path):
    missing = runner.invoke(
        main, ["spectrum", "--complex", str(tmp_path / "nope.cplx"), "--k", "1"]
    )
    assert missing.exit_code == 2

    bad = tmp_path / "bad.cplx"
    bad.write_text("0 zero\n")
    result = runner.invoke(main, ["spectrum", "--complex", str(bad), "--k", "1"])
    assert result.exit_code == 2

    path = _lmgen(runner, tmp_path)
    out_of_range = runner.invoke(
        main, ["spectrum", "--complex", str(path), "--k", "7"]
    )
    assert out_of_range.exit_code == 2

    huge = tmp_path / "huge.cplx"
    huge.write_text("0 1 2\n1 2 9223372036854775808\n")
    result = runner.invoke(main, ["spectrum", "--complex", str(huge), "--k", "1"])
    assert result.exit_code == 2
    assert "outside the int64 range" in result.output

    bad = tmp_path / "bad.json"
    for text in ('{"maximal": 5}', '{"maximal": [[0, null]]}', '{"maximal": [[0, 1], 2]}'):
        bad.write_text(text)
        result = runner.invoke(
            main, ["gallery", "connected", "--complex", str(bad), "--k", "0"])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    for text in ('{"m": 1}', '{"points": {"0": 1.5}}'):
        bad.write_text(text)
        result = runner.invoke(main, ["distortion", "eval", "--complex", str(path),
                                      "--k", "1", "--embedding", f"file:{bad}"])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_verify_and_eval_build_no_simplex_tuples(runner, monkeypatch):
    """The verify and eval paths read row arrays only: neither makes the
    tuple list of any level, nor the index dicts built from it."""

    def refuse(self, k):
        raise AssertionError(f"tuple list of level {k} built")

    monkeypatch.setattr(SimplicialComplex, "simplices", refuse)
    golden = Path(__file__).parent / "golden"
    for args in (
        ["verify", "all", "--complex", str(golden / "k1_connected.cplx"),
         "--k", "1", "--embedding", "gaussian:3:1"],
        ["verify", "all", "--complex", str(golden / "k2_connected.cplx"),
         "--k", "2", "--embedding", "gaussian:4:2"],
        ["distortion", "eval", "--complex", str(golden / "labels.cplx"),
         "--embedding", "gaussian:3:4", "--k", "1"],
        ["distortion", "eval", "--complex", str(golden / "k2_connected.cplx"),
         "--embedding", "gaussian:4:2", "--k", "2"],
    ):
        result = runner.invoke(main, args)
        assert result.exception is None, result.exception
        assert result.exit_code == 0


def test_distortion_eval_names_first_unfillable_member(runner, tmp_path):
    # a Steiner triple system on 7 points plus the triangle (0, 1, 2): every
    # edge lies in a triangle, but the complex is not gallery-connected
    x = build_complex([(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0),
                       (5, 6, 1), (6, 0, 2), (0, 1, 2)])
    path = tmp_path / "sts.cplx"
    save_complex_text(x, path)
    expected = None
    for row in vertex_set_family(x, 1).vertex_sets.tolist():
        faces = [tuple(row[:j] + row[j + 1:]) for j in range(3)]
        try:
            fill_number(x, faces)
        except UnfillableError as exc:
            expected = str(exc)
            break
    assert expected == "no gallery joins (0, 1) and (0, 4)"
    result = runner.invoke(
        main, ["distortion", "eval", "--complex", str(path),
               "--embedding", "gaussian:3:1", "--k", "1"],
    )
    assert result.exit_code == 1
    assert f"error: {expected}" in result.output


def _run_fresh(script):
    # runs a dedented script in a fresh interpreter on this tree's simdist
    import os
    import subprocess
    import sys
    import textwrap

    import simdist

    src = str(Path(simdist.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr


def test_sampling_commands_import_no_scipy_linear_algebra(tmp_path):
    # lmgen, concentration, distortion eval at k=1 and k=2 (with a searched
    # row), gallery connected, gallery dist, the dense spectrum and verify all
    # compute with numpy alone, so a fresh process that runs them must load
    # no scipy module; differential_matrix loads scipy.sparse on first use in
    # the same process
    paths = {k: tmp_path / f"k{k}.cplx" for k in (1, 2)}
    docs = {k: tmp_path / f"eval{k}.json" for k in (1, 2)}
    verify = tmp_path / "verify.json"
    _run_fresh(f"""
        import sys
        import simdist
        from simdist.cli import main
        from simdist.gallery import GalleryGraph

        searches = []
        steiner = GalleryGraph.steiner_tables
        GalleryGraph.steiner_tables = lambda self, *a: searches.append(1) or steiner(self, *a)

        def run(*argv):
            main(list(argv), standalone_mode=False)

        run("lmgen", "--n", "12", "--p", "0.6", "--k", "1", "--seed", "1",
            "--out", {str(paths[1])!r})
        run("lmgen", "--n", "7", "--p", "0.6", "--k", "2", "--seed", "2",
            "--out", {str(paths[2])!r})
        run("concentration", "--n", "30", "--p", "0.5", "--k", "1", "--eps", "0.5",
            "--trials", "3", "--seed", "1")
        for k, path, doc in (("1", {str(paths[1])!r}, {str(docs[1])!r}),
                             ("2", {str(paths[2])!r}, {str(docs[2])!r})):
            run("distortion", "eval", "--complex", path, "--k", k,
                "--embedding", "gaussian:4:1", "--out", doc)
        assert searches, "no k=2 row was searched"
        run("gallery", "connected", "--complex", {str(paths[1])!r}, "--k", "1")
        run("spectrum", "--complex", {str(paths[1])!r}, "--k", "1")
        run("verify", "all", "--complex", {str(paths[1])!r}, "--k", "1",
            "--embedding", "gaussian:4:1", "--out", {str(verify)!r})
        run("gallery", "dist", "--complex", {str(paths[1])!r}, "0,1", "2,3")
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
        assert not loaded, loaded
        simdist.cochains.differential_matrix(
            simdist.complexes.load_complex({str(paths[1])!r}), 1)
        assert "scipy.sparse" in sys.modules
    """)
    for doc in docs.values():
        result = json.loads(doc.read_text())["result"]
        assert result["exact_fill"] and result["evaluated_members"] == result["family_size"]
    assert json.loads(verify.read_text())["result"]["ok"]


def test_gap_solves_above_the_dense_limits_import_no_scipy(tmp_path):
    # verify all on LM(40, 0.3, 1), 780 edges, takes the hypotheses' gap from
    # the block Lanczos, and spectrum on LM(80, 0.2, 1), 3,160 edges, takes
    # it for the whole command; a fresh process that runs both must load no
    # scipy module, which alone would add about 29 MB
    small, large = tmp_path / "lm40.cplx", tmp_path / "lm80.cplx"
    verify, spec = tmp_path / "verify.json", tmp_path / "spectrum.json"
    _run_fresh(f"""
        import sys
        from simdist import cochains
        from simdist.cli import main

        def run(*argv):
            main(list(argv), standalone_mode=False)

        run("lmgen", "--n", "40", "--p", "0.3", "--k", "1", "--seed", "1",
            "--out", {str(small)!r})
        run("lmgen", "--n", "80", "--p", "0.2", "--k", "1", "--seed", "1",
            "--out", {str(large)!r})
        assert cochains.GAP_DENSE_LIMIT < 780 < cochains.DENSE_EIGENSOLVE_LIMIT < 3160
        run("verify", "all", "--complex", {str(small)!r}, "--k", "1",
            "--embedding", "gaussian:4:1", "--out", {str(verify)!r})
        run("spectrum", "--complex", {str(large)!r}, "--k", "1", "--out", {str(spec)!r})
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)
    assert json.loads(verify.read_text())["result"]["ok"]
    result = json.loads(spec.read_text())["result"]
    assert not result["dense"]
    assert result["eigenvalues"] == [result["lambda_min_nonzero"]]
