"""A derandomized fuzz of the text entry points: whatever the input, reading
it gives a network or a StructimError, never any other exception."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from structim import StructimError, TemporalNetwork, barbell, load_snapshots_text, repeat_snapshot, synthetic_temporal
from structim.graphs import Snapshot

_FUZZ = settings(derandomize=True, max_examples=300, deadline=None)

_VALID_CSV = "\n".join(
    ["time,src,dst,value", "0,0,1,1.5", "0,1,2,-2", "0,alice,2,1e-3", "", "1,0,2,0.25", "3,1,alice,2021",
     "2021-03-01,bob,007,3", '4,"a,b",c,1'])
_NETWORKS = (
    repeat_snapshot(barbell(3, 1, 3), 2),
    synthetic_temporal(12, 2, 1, 0.0, 3, seed=1),
    TemporalNetwork(snapshots=(Snapshot(node_ids=("a", "b", 7), edges=((0, 1, 2.0), (2, 0, 0.5)), directed=True,
                                        timestamp=-3),), universe=(7, "a", "b"), negative_weight_count=2),
)
_VALID_JSON = tuple(tn.to_json() for tn in _NETWORKS)

# characters that carry meaning to the csv module, the JSON parser or a number
_SPECIAL = st.sampled_from(list(',"\r\n \t\x00-+.eE_:[]{}0123456789') + ["١", "é", "﻿", "nan", "inf"])
_OPTIONS = st.tuples(st.sampled_from([1, 2, 7, 0, -1, 2.5, True, "1", None]),
                     st.sampled_from([False, True, 0, 1, "yes", None]))


def _read(text, options):
    aggregation, directed = options
    try:
        tn = load_snapshots_text(text, aggregation, directed)
    except StructimError:
        return
    assert isinstance(tn, TemporalNetwork)


def _read_json(text):
    try:
        tn = TemporalNetwork.from_json(text)
    except StructimError:
        return
    assert isinstance(tn, TemporalNetwork)


@st.composite
def _mutated(draw, text):
    """``text`` with a few characters deleted, replaced or inserted."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(chars)))
        new = draw(st.one_of(_SPECIAL, st.characters()))
        action = draw(st.sampled_from(("insert", "replace", "delete")))
        if action == "insert" or at == len(chars):
            chars[at:at] = [new]
        elif action == "replace":
            chars[at] = new
        else:
            del chars[at]
    return "".join(chars)


_FIELD = st.one_of(st.sampled_from(["0", "1", "-1", "1.5", "2021-03-01", "a", "", " 7 ", "1e308", "-1e308", "nan",
                                    "inf", "1_0", '"x"', "time", "src", "dst", "value"]),
                   st.text(max_size=6))
_CSV_SHAPED = st.builds(
    lambda rows, newline: newline.join(",".join(row) for row in rows),
    st.lists(st.lists(_FIELD, min_size=0, max_size=6), max_size=12),
    st.sampled_from(["\n", "\r\n", "\r"]),
)


@_FUZZ
@given(st.text(max_size=80), _OPTIONS)
def test_random_text_reads_to_a_network_or_a_structim_error(text, options):
    _read(text, options)


@_FUZZ
@given(_CSV_SHAPED, _OPTIONS)
def test_csv_shaped_text_reads_to_a_network_or_a_structim_error(text, options):
    _read(text, options)


@_FUZZ
@given(st.sampled_from(["\n", "\r\n", "\r"]).flatmap(lambda nl: _mutated(_VALID_CSV.replace("\n", nl))), _OPTIONS)
def test_mutated_csv_reads_to_a_network_or_a_structim_error(text, options):
    _read(text, options)


@_FUZZ
@given(st.sampled_from(_VALID_JSON).flatmap(_mutated))
def test_mutated_json_text_reads_to_a_network_or_a_structim_error(text):
    _read_json(text)


_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([10**400, 2**63, -2**63]),
                         st.floats(), st.text(max_size=3), st.just([]), st.just({}), st.just([0, 1, 1.0]),
                         st.just({"nodes": [], "edges": [], "timestamp": 0}))


@st.composite
def _mutated_document(draw):
    """A valid network document with one value replaced or one key removed,
    at any depth."""
    doc = json.loads(draw(st.sampled_from(_VALID_JSON)))
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if node is doc:
        parent, key = doc, draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        parent[key] = draw(_JSON_VALUES)
    else:
        del parent[key]
    return json.dumps(doc)


@_FUZZ
@given(_mutated_document())
def test_mutated_json_document_reads_to_a_network_or_a_structim_error(text):
    _read_json(text)
