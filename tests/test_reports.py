"""The JSON report writer against the standard library's encoder."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khessian import cli, reports

# each strategy draws (value as written, the same value in plain Python types)
_same = lambda v: (v, v)
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)  # surrogates included
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, TEXT,
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan,
                     "\x00\x1f\x7fé \U0001f600"]),
).map(_same)
NUMPY = FLOATS.map(lambda v: (np.float64(v), v))  # a float subclass, as bodies carry


def _containers(children):
    pairs = st.lists(children, max_size=4)
    return st.one_of(
        pairs.map(lambda items: ([a for a, _ in items], [b for _, b in items])),
        pairs.map(lambda items: (tuple(a for a, _ in items), tuple(b for _, b in items))),
        st.dictionaries(TEXT, children, max_size=4).map(
            lambda d: ({k: a for k, (a, _) in d.items()}, {k: b for k, (_, b) in d.items()})),
    )


OBJECTS = st.recursive(st.one_of(SCALARS, NUMPY), _containers, max_leaves=24)


def _stdlib(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


@settings(max_examples=400)
@given(OBJECTS)
def test_write_json_matches_stdlib(tmp_path_factory, pair):
    obj, plain = pair
    path = tmp_path_factory.getbasetemp() / "body.json"
    reports.write_json(path, obj)
    assert path.read_text() == _stdlib(plain)


def test_check_barrier_body_matches_stdlib(tmp_path):
    (tmp_path / "cb.cfg").write_text(
        "command = check-barrier\nn = 3\nk = 2\nf = power:5\nweight = constant:1\n"
        "samples = 16\nglobal_check = true\nout = cb\n")
    assert cli.main(["--config", str(tmp_path / "cb.cfg"), "--out", str(tmp_path),
                     "--quiet"]) == 0
    text = (tmp_path / "cb.json").read_text()
    body = json.loads(text)
    assert len(body["supersolution"]["samples"]) == 16
    assert text == _stdlib(body)


class _Text(str):
    pass


class _Real(float):
    def __repr__(self):
        return "real"


@pytest.mark.parametrize("obj", [
    {_Text("b"): 1.0, "a": [_Real(0.5), 2.0]},  # a str subclass key is quoted once
    {1: True, 2.5: None, False: [1.0, True, 3]},  # json's own text for non-str keys
    [[0.1, -0.0, math.inf, -math.inf, math.nan, 5e-324]],
    {"row": {"x": 1.0, "flag": False, "n": 7, "s": _Text("t"), "v": np.float64(2.0)}},
])
def test_write_json_subclasses_and_keys_match_stdlib(tmp_path, obj):
    # subclasses and keys that OBJECTS does not draw
    path = tmp_path / "body.json"
    reports.write_json(path, obj)
    assert path.read_text() == _stdlib(obj)


@pytest.mark.parametrize("obj", [{"a": object()}, [1.0, {2.0}], {"n": np.int64(1)},
                                 [np.zeros(2)]])
def test_write_json_rejects_other_types(tmp_path, obj):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        reports.write_json(tmp_path / "body.json", obj)
