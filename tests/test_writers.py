"""The CLI's JSON and CSV writers against the writers they replaced.

integrator.json_text must give json.dumps(indent=1)'s bytes and csv_text
the per-cell f"{x:.17g}" join (tests/_oracles.py), on generated documents
and tables that hold the values whose text is easiest to get wrong.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framedyn.integrator import csv_text, json_text

from _oracles import csv_text_reference, json_text_reference

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308,
           -1e308, 0.1, 1e16, 1.5e-7, 123456789.0]
# texts that the writer's replacements or the encoder's escapes could hit
TRICKY = [", ", "], [", "[[", "]]", '"', "\\", "\n", ": ", ",", "é", "日本",
          " ", "\x00", ""]

floats = st.one_of(st.sampled_from(SPECIAL), st.floats())
texts = st.one_of(st.sampled_from(TRICKY), st.text(max_size=6),
                  st.lists(st.sampled_from(TRICKY), max_size=3).map("".join))
shapes = st.one_of(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                    max_side=5),
                   hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                    max_side=3))
arrays = st.one_of(
    hnp.arrays(np.float64, shapes, elements=floats),
    hnp.arrays(st.sampled_from([np.int64, np.bool_]), shapes),
    hnp.arrays(np.dtype("U4"), shapes,  # numpy drops a trailing "\x00"
               elements=st.sampled_from([t for t in TRICKY
                                         if "\x00" not in t])))
leaves = st.one_of(floats, st.integers(), st.booleans(), st.none(), texts,
                   arrays)
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(texts, inner, max_size=4)),
    max_leaves=16)


@settings(max_examples=250, deadline=None)
@given(documents, st.booleans())
def test_json_text_is_json_dumps_indent_1(doc, sort_keys):
    assert json_text(doc, sort_keys) == json_text_reference(doc, sort_keys)


@pytest.mark.parametrize("doc", [
    {"b": [1, 2.5], "a": {"x": None, "y": True, "z": []}, "c": {}},
    {"rows": np.array([[math.nan, -0.0], [math.inf, -math.inf]])},
    {"k=0": np.zeros((0, 2)), "m=0": np.zeros((3, 0)),
     "0-d": np.array(5e-324)},
    {", ": "], [", "é": ["日本", False, 0]},
    [np.array([1e308, 0.1]), np.array([[True, False]]), (1, "a")],
    np.arange(24, dtype=float).reshape(2, 3, 4),
])
@pytest.mark.parametrize("sort_keys", [False, True])
def test_json_text_edge_documents(doc, sort_keys):
    assert json_text(doc, sort_keys) == json_text_reference(doc, sort_keys)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda width: st.tuples(
    st.lists(texts.filter(lambda t: "," not in t and "\n" not in t),
             min_size=width, max_size=width),
    hnp.arrays(np.float64, st.tuples(st.integers(0, 5), st.just(width)),
               elements=floats))))
def test_csv_text_is_17g_per_cell(case):
    names, table = case
    assert csv_text(names, table) == csv_text_reference(names, table)
