"""A derandomized fuzz of the text entry points and the command line: whatever
the input, reading it gives a network or a StructimError, never any other
exception, and a command exits with 0, 2, 3 or 4."""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structim import (StructimError, TemporalNetwork, barbell, load_snapshots_text, repeat_snapshot,
                      synthetic_temporal, write_edge_csv)
from structim.cli import main
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


# ------------------------------------------------------------ the command line
#
# Each command line gives every option of one subcommand a value within its
# documented bounds, or leaves it out, except at most one option, which gets a
# value at or beyond a bound. The valid counts and sizes are small, so that
# each job stays cheap; the costly defaults (synthetic --n and --horizon,
# predict --trials and --bootstrap-iters) are always given.

_INPUT = ("input", ["valid.csv", "overflow.csv", "directed.json"], ["garbled.csv", "missing.csv"])
_AGGREGATION = ("--aggregation", [None, "1", "2"], ["0", "-1", "2.5", ""])
_FORMAT = ("--format", [None, "all", "csv", "json", "svg"], ["xml"])
_OPTIONS_BY_COMMAND = {
    "gen barbell": [
        ("--n-left", [None, "2", "3"], ["1", "0", "-1", "2.5", "nan", ""]),
        ("--bridge", [None, "0", "1"], ["-1", "2.5", "x"]),
        ("--n-right", [None, "2", "3"], ["1", "0", "-1", "2.5"]),
        ("--weight", [None, "0.5", "1e308"], ["0", "-1", "nan", "inf", "-inf", "x"]),
        ("--repeats", [None, "1", "2"], ["0", "-1", "2.5"]),
    ],
    "gen synthetic": [
        ("--n", ["3", "12"], ["0", "-1", "2.5"]),
        ("--communities", ["1", "2"], ["0", "-1", "13", "2.5"]),
        ("--hubs", ["0", "1", "2"], ["-1", "13", "2.5"]),
        ("--coupling", [None, "-2", "0", "1e308"], ["nan", "inf", "-inf", "x"]),
        ("--horizon", ["2", "3"], ["1", "0", "-1", "2.5"]),
        ("--seed", [None, "0", "7"], ["-1", "2.5"]),
    ],
    "importance": [
        _INPUT, _AGGREGATION,
        ("--scheme", [None, "ma", "mb", "mc", "md", "directed"], ["mz"]),
        ("--snapshot", [None, "0", "1"], ["-1", "99", "2.5"]),
        ("--strength-mode", [None, "total", "in", "out"], ["up"]),
        ("--directed", [None, True], []),  # a switch, given or not
    ],
    "analyze": [_INPUT, _AGGREGATION, _FORMAT],
    "predict": [
        _INPUT, _AGGREGATION, _FORMAT,
        ("--seed", [None, "0", "7", str(2**70)], ["-1", "2.5"]),
        ("--target", [None, "presence", "change", "sign", "rel_change"], ["size"]),
        ("--l2-grid", [None, "0", "1", "0.1,1"], ["", ",", "1,,2", "abc", "nan", "inf", "-1", "1e400"]),
        ("--change-threshold", [None, "0", "0.5", "1e308"], ["nan", "inf", "-inf", "-1", "x"]),
        ("--corr-threshold", [None, "0.5", "0.95"], ["0", "1", "nan", "inf", "-1", "2"]),
        ("--trials", ["20", "21"], ["0", "-1", "19", "2.5"]),
        ("--bootstrap-iters", ["1", "2"], ["0", "-1", "2.5", "nan", ""]),
    ],
}


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    where = tmp_path_factory.mktemp("cli_fuzz")
    write_edge_csv(synthetic_temporal(16, 2, 1, -2.0, 8, seed=3), str(where / "valid.csv"))
    write_edge_csv(repeat_snapshot(barbell(2, 0, 2, weight=1e308), 7), str(where / "overflow.csv"))
    (where / "garbled.csv").write_text('time,src\n0,a\n"1,b,c\n')
    (where / "directed.json").write_text(_NETWORKS[2].to_json())
    (where / "taken").write_text("")  # an --out under it cannot be written
    return where


@st.composite
def _command_lines(draw):
    """(argv without --out, the --out name); an ``input`` names a file of ``cli_dir``."""
    command = draw(st.sampled_from(sorted(_OPTIONS_BY_COMMAND)))
    specs = _OPTIONS_BY_COMMAND[command] + [("--out", ["ok"], ["unwritable", "taken"])]
    beyond = draw(st.one_of(st.none(), st.sampled_from([k for k, spec in enumerate(specs) if spec[2]])))
    argv, out = command.split(), None
    for k, (flag, valid, bad) in enumerate(specs):
        value = draw(st.sampled_from(bad if k == beyond else valid))
        if flag == "--out":
            out = value
        elif flag == "input":
            argv.append(value)
        elif value is True:
            argv.append(flag)
        elif value is not None:
            argv += [flag, value]
    name = {"gen": "g.csv", "importance": draw(st.sampled_from(["i.json", "i.csv"]))}.get(argv[0], "out")
    return argv, {"ok": name, "unwritable": f"taken/{name}", "taken": "taken"}[out]


def _exit_code(argv):
    """What ``main(argv)`` returns, or the code of the SystemExit it raises."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the library's own notes on a fit, not failures
            return main(argv)
    except SystemExit as exc:
        return exc.code


@_FUZZ
@given(_command_lines())
def test_every_command_line_exits_with_a_documented_code(cli_dir, command_line):
    argv, out = command_line
    inputs = {*_INPUT[1], *_INPUT[2]}
    argv = [str(cli_dir / arg) if arg in inputs else arg for arg in argv]
    assert _exit_code([*argv, "--out", str(cli_dir / out)]) in (0, 2, 3, 4)
