import json
from dataclasses import dataclass, field, fields

import numpy as np
import pytest

from simdist import serialize
from simdist.cochains import spectrum
from simdist.complexes import complete_complex
from simdist.distortion import (
    EmbeddingSpec,
    evaluate_distortion,
    lm_distortion_experiment,
    projection_volume_inequality,
    vertex_set_family,
)
from simdist.gallery import fill_number
from simdist.random_complexes import LmParams, concentration_report


@dataclass
class Inner:
    value: float


@dataclass
class Outer:
    lam: float = field(metadata={"key": "lambda"})
    inner: Inner
    rows: list


def test_document_renames_keys():
    obj = Outer(0.5, Inner(2.0), [Inner(3.0)])
    assert serialize.document(obj) == {
        "lambda": 0.5, "inner": Inner(2.0), "rows": [Inner(3.0)]
    }
    assert serialize.dumps(obj) == (
        '{\n  "inner": {\n    "value": 2\n  },\n  "lambda": 0.5,\n'
        '  "rows": [\n    {\n      "value": 3\n    }\n  ]\n}\n'
    )
    assert serialize.document(LmParams(9, 0.5, 1, 4)) == {
        "n": 9, "p": 0.5, "k": 1, "seed": 4
    }


def test_fields_read_once_per_class(monkeypatch):
    @dataclass
    class Fresh:
        a: int

    calls = []
    real = serialize.fields
    monkeypatch.setattr(serialize, "fields",
                        lambda cls: calls.append(cls) or real(cls))
    for a in range(3):
        assert serialize.dumps([Fresh(a), Fresh(a)]).count('"a"') == 2
    assert calls == [Fresh]


def test_every_report_field_reaches_its_document():
    x = complete_complex(6, 2)
    family = vertex_set_family(x, 1)
    embedding = EmbeddingSpec.parse("gaussian:3:1").realize(x)
    report = evaluate_distortion(x, family, embedding)
    experiment = lm_distortion_experiment(
        LmParams(8, 0.6, 1, 1), EmbeddingSpec.parse("gaussian:3:1"), 1)
    reports = [
        report.hypotheses,
        projection_volume_inequality(x, family, embedding),
        report.bound,
        report,
        experiment.records[0],
        experiment,
        concentration_report(LmParams(8, 0.5, 1, 1), 0.5, 2),
        spectrum(x, 1),
        fill_number(x, [(0, 1), (1, 2), (0, 2)]),
        LmParams(9, 0.5, 1, 4),
    ]
    assert [type(obj).__name__ for obj in reports] == [
        "HypothesisReport", "InequalityCheck", "DistortionBound", "DistortionReport",
        "TrialRecord", "ExperimentReport", "ConcentrationReport", "SpectralResult",
        "FillResult", "LmParams",
    ]
    for obj in reports:
        written = json.loads(serialize.dumps(obj))
        name = type(obj).__name__
        assert len(serialize.document(obj)) == len(written) == len(fields(obj)), name


def test_unknown_objects_still_raise():
    with pytest.raises(TypeError, match="cannot serialize object"):
        serialize.dumps({"x": object()})
    with pytest.raises(TypeError, match="cannot serialize set"):
        serialize.dumps([{1, 2}])
    with pytest.raises(TypeError):
        serialize.document(np.zeros(2))
