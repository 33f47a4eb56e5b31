from dataclasses import dataclass, field

import numpy as np
import pytest

from simdist import serialize
from simdist.complexes import complete_complex
from simdist.distortion import EmbeddingSpec, evaluate_distortion, vertex_set_family
from simdist.random_complexes import LmParams


@dataclass
class Inner:
    value: float


@dataclass
class Outer:
    lam: float = field(metadata={"key": "lambda"})
    scratch: list = field(metadata={"key": None})
    inner: Inner
    rows: list


def test_document_renames_and_skips_keys():
    obj = Outer(0.5, [1, 2], Inner(2.0), [Inner(3.0)])
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


def test_members_left_out_of_the_document():
    x = complete_complex(6, 2)
    family = vertex_set_family(x, 1)
    embedding = EmbeddingSpec.parse("gaussian:3:1").realize(x)
    kept = evaluate_distortion(x, family, embedding, keep_members=True)
    plain = evaluate_distortion(x, family, embedding)
    assert kept.members and not plain.members
    text = serialize.dumps(kept)
    assert '"members"' not in text
    assert text == serialize.dumps(plain)
    assert "members" not in serialize.document(kept)


def test_unknown_objects_still_raise():
    with pytest.raises(TypeError, match="cannot serialize object"):
        serialize.dumps({"x": object()})
    with pytest.raises(TypeError, match="cannot serialize set"):
        serialize.dumps([{1, 2}])
    with pytest.raises(TypeError):
        serialize.document(np.zeros(2))
