"""CLI documents on a fixed corpus stay byte-identical.

`tests/golden/` holds three `lmgen` complexes, one hand-written complex and,
for each command below, the document the CLI wrote to `--out` (the named
file), or the error message of a command that exits nonzero (the named
`.txt` file). Each command runs
from inside that directory, so the relative complex path echoed into the
document's config matches.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from simdist.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (document file, CLI arguments, exit code). The complexes come from
#   lmgen --n 8 --p 0.3 --k 1 --seed 3  -> k1_split.cplx (two gallery
#       components and four edges in no triangle)
#   lmgen --n 9 --p 0.6 --k 1 --seed 1  -> k1_connected.cplx
#   lmgen --n 7 --p 0.6 --k 2 --seed 2  -> k2_connected.cplx
# and labels.cplx is written by hand: labels -3 5 7 10 42, given out of order,
# with a repeated triangle and an edge listed beside its cofaces.
CASES = [
    ("k1_split_dist_finite.json",
     ["gallery", "dist", "--complex", "k1_split.cplx", "0,4", "5,7"], 0),
    ("k1_split_dist_apart.json",
     ["gallery", "dist", "--complex", "k1_split.cplx", "0,1", "0,4"], 0),
    ("k1_split_dist_uncovered.json",
     ["gallery", "dist", "--complex", "k1_split.cplx", "0,1", "2,3"], 0),
    ("k1_split_dist_self.json",
     ["gallery", "dist", "--complex", "k1_split.cplx", "2,3", "2,3"], 0),
    ("k1_split_connected_k0.json",
     ["gallery", "connected", "--complex", "k1_split.cplx", "--k", "0"], 0),
    ("k1_split_connected_k1.json",
     ["gallery", "connected", "--complex", "k1_split.cplx", "--k", "1"], 0),
    ("k1_split_fill.json",
     ["gallery", "fill", "--complex", "k1_split.cplx", "0,4", "3,7", "5,6"], 0),
    ("k1_split_fill_unfillable.json",
     ["gallery", "fill", "--complex", "k1_split.cplx", "0,1", "0,4"], 0),
    ("k1_split_eval.txt",
     ["distortion", "eval", "--complex", "k1_split.cplx",
      "--embedding", "gaussian:3:1", "--k", "1"], 1),
    ("k1_connected_dist.json",
     ["gallery", "dist", "--complex", "k1_connected.cplx", "0,1", "2,3"], 0),
    ("k1_connected_connected.json",
     ["gallery", "connected", "--complex", "k1_connected.cplx", "--k", "1"], 0),
    ("k1_connected_fill.json",
     ["gallery", "fill", "--complex", "k1_connected.cplx",
      "0,1", "2,3", "4,5", "5,8"], 0),
    ("k1_connected_eval.json",
     ["distortion", "eval", "--complex", "k1_connected.cplx",
      "--embedding", "gaussian:3:1", "--k", "1"], 0),
    ("k2_connected_dist.json",
     ["gallery", "dist", "--complex", "k2_connected.cplx", "0,1,2", "3,4,5"], 0),
    ("k2_connected_connected.json",
     ["gallery", "connected", "--complex", "k2_connected.cplx", "--k", "2"], 0),
    ("k2_connected_fill.json",
     ["gallery", "fill", "--complex", "k2_connected.cplx",
      "0,1,2", "0,3,4", "2,5,6"], 0),
    ("k2_connected_eval.json",
     ["distortion", "eval", "--complex", "k2_connected.cplx",
      "--embedding", "gaussian:4:2", "--k", "2"], 0),
    ("k1_connected_verify.json",
     ["verify", "all", "--complex", "k1_connected.cplx", "--k", "1",
      "--embedding", "gaussian:3:1"], 0),
    ("k1_connected_spectrum.json",
     ["spectrum", "--complex", "k1_connected.cplx", "--k", "1"], 0),
    ("k1_connected_bound.json",
     ["distortion", "bound", "--complex", "k1_connected.cplx", "--k", "1"], 0),
    ("k2_connected_verify.json",
     ["verify", "all", "--complex", "k2_connected.cplx", "--k", "2",
      "--embedding", "gaussian:4:2"], 0),
    ("labels_eval.json",
     ["distortion", "eval", "--complex", "labels.cplx",
      "--embedding", "gaussian:3:4", "--k", "1"], 0),
    ("labels_fill.json",
     ["gallery", "fill", "--complex", "labels.cplx", "10,-3", "42,7", "5,7"], 0),
    ("lm_experiment_k1.csv",
     ["distortion", "lm-experiment", "--n", "9", "--p", "0.6", "--k", "1",
      "--trials", "3", "--seed", "5", "--embedding", "gaussian:3:1",
      "--format", "csv"], 0),
    ("lm_experiment_k1.json",
     ["distortion", "lm-experiment", "--n", "9", "--p", "0.6", "--k", "1",
      "--trials", "3", "--seed", "5", "--embedding", "gaussian:3:1"], 0),
    # trials 0 and 3 are not pure: null fields, no applicable trial, and a
    # null pass_rate
    ("lm_experiment_k2.json",
     ["distortion", "lm-experiment", "--n", "7", "--p", "0.5", "--k", "2",
      "--trials", "4", "--seed", "1", "--embedding", "gaussian:4:1"], 0),
    ("concentration_k1.json",
     ["concentration", "--n", "30", "--p", "0.5", "--k", "1", "--eps", "0.5",
      "--trials", "6", "--seed", "7"], 0),
    ("concentration_k2.csv",
     ["concentration", "--n", "9", "--p", "0.6", "--k", "2", "--eps", "0.5",
      "--trials", "6", "--seed", "3", "--format", "csv"], 0),
    # purity_frequency 0.7: some samples leave a vertex in no edge
    ("concentration_k0_impure.json",
     ["concentration", "--n", "20", "--p", "0.2", "--k", "0", "--eps", "0.5",
      "--trials", "10", "--seed", "5"], 0),
    ("concentration_p0.json",
     ["concentration", "--n", "12", "--p", "0", "--k", "1", "--eps", "0.5",
      "--trials", "3", "--seed", "1"], 0),
    ("lmgen_k1.cplx",
     ["lmgen", "--n", "10", "--p", "0.4", "--k", "1", "--seed", "4"], 0),
    ("lmgen_k2.json",
     ["lmgen", "--n", "8", "--p", "0.5", "--k", "2", "--seed", "2",
      "--format", "json"], 0),
]


def run_case(args, out: Path):
    """Run one CLI command from the corpus directory, writing to `out`."""
    result = CliRunner().invoke(main, args + ["--out", str(out)])
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result


@pytest.fixture()
def in_corpus(monkeypatch):
    monkeypatch.chdir(GOLDEN)


def check_cases(cases, tmp_path):
    for name, args, exit_code in cases:
        out = tmp_path / name
        result = run_case(args, out)
        assert result.exit_code == exit_code, name
        if exit_code == 0:
            assert out.read_bytes() == (GOLDEN / name).read_bytes(), name
        else:  # no document; the error message goes to stderr
            assert not out.exists(), name
            assert result.output == (GOLDEN / name).read_text(), name


def is_concentration(case):
    return case[1][0] == "concentration"


def test_cli_documents_match_corpus(in_corpus, tmp_path):
    check_cases([case for case in CASES if not is_concentration(case)], tmp_path)


def test_concentration_documents_match_corpus(in_corpus, tmp_path):
    """The concentration documents on their own, so that `-k concentration`
    can check them under any CPU affinity, one worker thread included."""
    check_cases([case for case in CASES if is_concentration(case)], tmp_path)
