"""A derandomized fuzz of the text entry points and the command line: whatever
the input, reading it gives a network or a StructimError, never any other
exception, and a command exits with 0, 2, 3 or 4."""

import contextlib
import dataclasses
import inspect
import io
import json
import math
import numbers
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structim import (StructimError, TemporalNetwork, barbell, load_snapshots_text, repeat_snapshot,
                      synthetic_temporal, write_edge_csv)
from structim.cli import main
from structim.errors import ArgumentError
from structim.graphs import Snapshot

from conftest import public_callables

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
    # snapshot 1 of this network has no edge, which a CSV cannot hold: write
    # the other seven, renumbered 0..6, the network that ingest reads back
    tn = synthetic_temporal(16, 2, 1, -2.0, 8, seed=3)
    edged = tuple(dataclasses.replace(s, timestamp=t) for t, s in enumerate(s for s in tn.snapshots if s.n_edges))
    write_edge_csv(TemporalNetwork(edged, tn.universe), str(where / "valid.csv"))
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


# ------------------------------------------------------------ numeric options
#
# Every parameter of a public callable whose default is a number or a tuple of
# numbers, and the positional counts of the generators, binom_ci and
# forward_chain_folds, gets one value at a time on a tiny network, the other
# arguments cheap valid ones.
# A value that is no real number (a bool, a string, None) or is not finite
# must raise ArgumentError; any other value gives a result or a StructimError.
# A count that sets the amount of work is never given a valid large value, so
# no call runs long.

_NOT_NUMBERS = (True, False, np.True_, "1", "x", None, math.nan, math.inf, -math.inf)
_MOST = sys.maxsize  # the default upper bound of a count


def _bound_values(spec):
    """Values at and just past each finite bound of ``spec``: the (least, most)
    of a count, whose ``most`` may be _MOST or inf, or the (low, high) of a real."""
    low, high = spec
    if isinstance(low, int):
        past = [] if high == math.inf else [high + 1] if high == _MOST else [high, high + 1]
        return [low - 1, low, low + 0.5, *past]
    out = []
    for bound in (low, high):
        if math.isinf(bound):
            out.append(math.copysign(sys.float_info.max, bound))
        else:
            out += [math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)]
    return out


def _fuzz_values(spec):
    """The values fed to one option; an L2 grid gets each as the second of two grid values."""
    if spec == "grid":
        values = (*_NOT_NUMBERS, 10**400, *_bound_values((0.0, math.inf)))
        return [*_NOT_NUMBERS, 0.5, (), *((0.1, v) for v in values)]
    return [*_NOT_NUMBERS, 10**400, -10**400, *_bound_values(spec)]


def _must_be_rejected(value) -> bool:
    if isinstance(value, tuple):
        return not value or any(map(_must_be_rejected, value))
    return (value is None or isinstance(value, (bool, np.bool_, str))
            or isinstance(value, float) and not math.isfinite(value))


@pytest.fixture(scope="module")
def numeric_calls(cli_dir):
    """{(function, parameter): (bounds, call with one value)} over the numeric options."""
    from structim import (binom_ci, bootstrap_auc_ci, build_horizon_tables, build_table, fit_logistic,
                          forward_chain_folds, load_network, null_edge_presence, null_prior_predictor, null_shuffle_regression,
                          permutation_importance, prune_correlated, run_prediction,
                          time_ordered_select)
    from structim.features import FeatureTable

    tn = synthetic_temporal(12, 2, 1, -2.0, 8, seed=2)  # five anchors and enough rows for run_prediction
    pooled = build_horizon_tables(tn, "presence")
    labeled = FeatureTable(columns=("ma",), X=np.array([[1.0], [-1.0], [0.5], [-0.5]]), node_ids=(0, 1, 2, 3),
                           as_of=1, y=np.array([1.0, 0.0, 0.0, 1.0]))
    model = fit_logistic(labeled)
    anchored = build_table(tn, 3, "presence")
    scores = np.full(anchored.n_rows, 0.5)
    x = np.arange(12.0).reshape(6, 2) ** 1.5
    train, heldout = (FeatureTable(columns=("a", "b"), X=x[rows], node_ids=tuple(range(len(x[rows]))), as_of=1,
                                   y=x[rows, 0]) for rows in (slice(0, 4), slice(4, 6)))
    path = str(cli_dir / "valid.csv")
    snap = barbell(2, 0, 2)
    count, trials, seed = (1, _MOST), (20, _MOST), (0, math.inf)
    unit, from_zero = (0.0, 1.0), (0.0, math.inf)
    calls = {
        ("barbell", "n_left"): ((2, _MOST), lambda v: barbell(v, 0, 2)),
        ("barbell", "bridge"): ((0, _MOST), lambda v: barbell(2, v, 2)),
        ("barbell", "n_right"): ((2, _MOST), lambda v: barbell(2, 0, v)),
        ("barbell", "weight"): (from_zero, lambda v: barbell(2, 0, 2, weight=v)),
        ("repeat_snapshot", "repeats"): (count, lambda v: repeat_snapshot(snap, v)),
        ("synthetic_temporal", "n"): ((2, _MOST), lambda v: synthetic_temporal(v, 2, 1, 0.0, 2)),
        ("synthetic_temporal", "communities"): (count, lambda v: synthetic_temporal(6, v, 1, 0.0, 2)),
        ("synthetic_temporal", "hub_count"): ((0, 6), lambda v: synthetic_temporal(6, 2, v, 0.0, 2)),
        ("synthetic_temporal", "dropout_coupling"): ((-math.inf, math.inf),
                                                     lambda v: synthetic_temporal(6, 2, 1, v, 2)),
        ("synthetic_temporal", "horizon"): ((2, _MOST), lambda v: synthetic_temporal(6, 2, 1, 0.0, v)),
        ("synthetic_temporal", "seed"): (seed, lambda v: synthetic_temporal(6, 2, 1, 0.0, 2, seed=v)),
        ("binom_ci", "successes"): ((0, 5), lambda v: binom_ci(v, 5)),
        ("binom_ci", "n"): (count, lambda v: binom_ci(1, v)),
        ("forward_chain_folds", "n"): ((0, _MOST), forward_chain_folds),
        ("load_network", "aggregation"): (count, lambda v: load_network(path, aggregation=v)),
        ("load_snapshots_text", "aggregation"): (count, lambda v: load_snapshots_text(_VALID_CSV, aggregation=v)),
        ("build_table", "change_threshold"): (from_zero, lambda v: build_table(tn, 3, "change", change_threshold=v)),
        ("build_horizon_tables", "change_threshold"): (
            from_zero, lambda v: build_horizon_tables(tn, "change", change_threshold=v)),
        ("prune_correlated", "threshold"): (unit, lambda v: prune_correlated(pooled, threshold=v)),
        ("fit_logistic", "l2"): (from_zero, lambda v: fit_logistic(labeled, l2=v)),
        ("bootstrap_auc_ci", "iters"): (count, lambda v: bootstrap_auc_ci(model, labeled, iters=v)),
        ("bootstrap_auc_ci", "seed"): (seed, lambda v: bootstrap_auc_ci(model, labeled, iters=2, seed=v)),
        ("permutation_importance", "seed"): (seed, lambda v: permutation_importance(model, labeled, seed=v)),
        ("null_prior_predictor", "trials"): (trials, lambda v: null_prior_predictor([0, 1], [0, 1, 1, 0], v)),
        ("null_prior_predictor", "seed"): (seed, lambda v: null_prior_predictor([0, 1], [0, 1, 1, 0], 20, seed=v)),
        ("null_edge_presence", "trials"): (trials, lambda v: null_edge_presence(tn, anchored, scores, trials=v)),
        ("null_edge_presence", "seed"): (seed, lambda v: null_edge_presence(tn, anchored, scores, 20, seed=v)),
        ("null_shuffle_regression", "trials"): (trials, lambda v: null_shuffle_regression(train, heldout, v)),
        ("null_shuffle_regression", "seed"): (seed, lambda v: null_shuffle_regression(train, heldout, 20, seed=v)),
        ("time_ordered_select", "l2_grid"): ("grid", lambda v: time_ordered_select(pooled, l2_grid=v)),
    }
    cheap = dict(null_trials=20, bootstrap_iters=2)
    for name, spec in [("seed", seed), ("l2_grid", "grid"), ("change_threshold", from_zero),
                       ("corr_threshold", unit), ("null_trials", trials), ("bootstrap_iters", count)]:
        calls["run_prediction", name] = (spec, lambda v, name=name: run_prediction(tn, "presence",
                                                                                   **{**cheap, name: v}))
    return calls


def _is_numeric_default(value) -> bool:
    if isinstance(value, tuple):
        return bool(value) and all(map(_is_numeric_default, value))
    return isinstance(value, numbers.Real) and not isinstance(value, bool)  # a bool default is a switch


# every public keyword option whose default is a number or a tuple of numbers, and the positional counts
_NUMERIC_OPTIONS = sorted({(fn.__qualname__, p.name) for fn in public_callables()
                           for p in inspect.signature(fn).parameters.values() if _is_numeric_default(p.default)}
                          | {("synthetic_temporal", name) for name in ("n", "communities", "hub_count",
                                                                       "dropout_coupling", "horizon")}
                          | {("repeat_snapshot", "repeats"), ("binom_ci", "successes"), ("binom_ci", "n"),
                             ("forward_chain_folds", "n")})


def test_numeric_fuzz_covers_every_numeric_option(numeric_calls):
    assert sorted(numeric_calls) == _NUMERIC_OPTIONS


@pytest.mark.parametrize("option", _NUMERIC_OPTIONS, ids=[".".join(option) for option in _NUMERIC_OPTIONS])
@_FUZZ
@given(data=st.data())
def test_numeric_option_gives_a_result_or_a_structim_error(numeric_calls, option, data):
    spec, call = numeric_calls[option]
    value = data.draw(st.sampled_from(_fuzz_values(spec)), label=".".join(option))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the library's own notes on a fit, not failures
        if _must_be_rejected(value):
            with pytest.raises(ArgumentError):
                call(value)
            return
        try:
            call(value)
        except StructimError:
            pass
