"""Command-line interface: artifacts, metadata echo, and exit codes."""

import csv
import functools
import inspect
import json
import os
import pathlib
import sys

import numpy as np
import pytest

from structim import (
    DataError,
    Snapshot,
    barbell,
    cli,
    features,
    load_network,
    node_importance,
    node_importance_directed,
    repeat_snapshot,
    run_prediction,
    synthetic_temporal,
    write_edge_csv,
)
from structim import cli, spectral
from structim.cli import main

from conftest import directed_triangles


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def synthetic_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("gen") / "synth.csv")
    code = main([
        "gen", "synthetic", "--n", "30", "--communities", "2", "--hubs", "2",
        "--coupling", "-2.0", "--horizon", "8", "--seed", "4", "--out", path,
    ])
    assert code == 0
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "structim" in capsys.readouterr().out


def test_missing_required_argument_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "barbell"])  # no --out
    assert exc.value.code == 2


def test_gen_barbell_csv_and_sidecar(tmp_path):
    out = str(tmp_path / "barbell.csv")
    code = main(["gen", "barbell", "--repeats", "3", "--out", out])
    assert code == 0
    tn = load_network(out)
    assert tn.n_snapshots == 3
    assert tn.n_nodes == 11

    meta = _read_json(out + ".meta.json")
    assert meta["tool"] == "structim"
    assert meta["command"] == "gen barbell"
    assert meta["n_snapshots"] == 3 and meta["n_nodes"] == 11
    cfg = meta["config"]
    assert "seed" not in cfg  # gen barbell draws nothing at random
    assert cfg["n_left"] == 4 and cfg["bridge"] == 2 and cfg["n_right"] == 5
    assert cfg["out"] == out


def test_gen_synthetic_roundtrip(synthetic_csv):
    tn = load_network(synthetic_csv)
    assert tn.n_snapshots == 8
    assert tn.n_nodes <= 30
    meta = _read_json(synthetic_csv + ".meta.json")
    assert meta["command"] == "gen synthetic"
    assert meta["config"]["coupling"] == -2.0
    assert meta["config"]["seed"] == 4
    assert meta["n_edges_total"] == sum(s.n_edges for s in tn.snapshots)


def test_importance_csv_matches_library(tmp_path):
    net = str(tmp_path / "net.csv")
    main(["gen", "barbell", "--out", net])
    out = str(tmp_path / "imp.csv")
    code = main(["importance", net, "--scheme", "mb", "--out", out])
    assert code == 0

    rows = _read_csv(out)
    assert rows[0] == ["node", "scheme", "value", "eig_rank"]
    got = {int(r[0]): float(r[2]) for r in rows[1:]}
    ranks = {int(r[0]): int(r[3]) for r in rows[1:]}

    snap = load_network(net).snapshots[0]
    vec = node_importance(snap, "mb")
    assert got == {int(k): v for k, v in vec.values.items()}
    assert ranks == {int(k): v for k, v in vec.eig_rank.items()}
    assert os.path.exists(out + ".meta.json")


def test_importance_json_output(tmp_path):
    net = str(tmp_path / "net.csv")
    main(["gen", "barbell", "--out", net])
    out = str(tmp_path / "imp.json")
    code = main(["importance", net, "--scheme", "ma", "--out", out])
    assert code == 0
    doc = _read_json(out)
    assert doc["meta"]["command"] == "importance"
    assert doc["scheme"] == "ma"
    assert doc["snapshot"] == 0
    assert len(doc["values"]) == 11
    assert all(set(v) == {"node", "value", "eig_rank"} for v in doc["values"])
    assert doc["excluded_zero_strength"] == []


def test_importance_directed_scheme_runs(tmp_path):
    net = str(tmp_path / "net.csv")
    main(["gen", "barbell", "--out", net])
    out = str(tmp_path / "imp.csv")
    code = main(["importance", net, "--scheme", "directed", "--out", out])
    assert code == 0
    assert len(_read_csv(out)) == 12  # header + 11 nodes


def test_importance_snapshot_out_of_range(tmp_path, capsys):
    net = str(tmp_path / "net.csv")
    main(["gen", "barbell", "--out", net])
    code = main(["importance", net, "--snapshot", "99", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "out of range" in capsys.readouterr().err


def test_missing_input_is_data_error(tmp_path, capsys):
    code = main(["importance", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_input_that_is_not_utf8_is_data_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"t,a,b,1\n0,\xe9,b,1\n")
    assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 3
    assert f"data error: cannot read {path}: 'utf-8' codec" in capsys.readouterr().err


def test_analyze_artifacts(synthetic_csv, tmp_path):
    out = str(tmp_path / "analysis")
    code = main(["analyze", synthetic_csv, "--out", out])
    assert code == 0

    run = _read_json(os.path.join(out, "run.json"))
    assert run["command"] == "analyze"
    listed = set(run["artifacts"])
    assert set(os.listdir(out)) == listed | {"run.json"}

    spectra = _read_json(os.path.join(out, "spectra.json"))
    assert len(spectra["snapshots"]) == 8
    for entry in spectra["snapshots"]:
        assert entry["positive_count"] >= 1
        assert len(entry["eigenvalues"]) == entry["n_nodes"]

    mod = _read_csv(os.path.join(out, "modularity.csv"))
    assert mod[0] == ["snapshot", "modularity", "n_communities"]
    assert len(mod) == 9

    ranks = _read_csv(os.path.join(out, "eigen_ranks.csv"))
    assert ranks[0] == ["snapshot", "node", "eig_rank"]
    assert all(int(r[2]) >= 1 for r in ranks[1:])

    ttests = _read_json(os.path.join(out, "ttests.json"))
    # mc, identically zero, is neither tested nor counted in the Bonferroni family
    assert ttests["bonferroni_alpha"] == pytest.approx(0.05 / 7)
    assert {t["measure"] for t in ttests["tests"]} == {
        "ma", "mb", "md", "eig_centrality", "pagerank", "degree", "community_size"
    }
    keys = ["measure", "n_present", "n_absent", "t_stat", "dof", "p_value"]
    for t in ttests["tests"]:  # an undefined test says why
        assert list(t) == keys + (["note"] if t["t_stat"] is None else [])
    measured = _read_csv(os.path.join(out, "measures.csv"))
    assert measured[0] == ["snapshot", "node", "measure", "value", "next_present"]
    assert len(measured) > 1
    assert "mc" not in {r[2] for r in measured[1:]}
    for name in ("violin_ma.svg", "violin_degree.svg", "modularity.svg"):
        assert name in listed
    assert "violin_mc.svg" not in listed


def test_malformed_json_document_is_data_error(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(repeat_snapshot(barbell(3, 1, 3), 1).to_json().replace('"timestamp": 0', '"timestamp": 1e400'))
    assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "data error: malformed snapshot record" in capsys.readouterr().err


def test_analyze_decomposes_each_snapshot_once(synthetic_csv, tmp_path, monkeypatch):
    spectra, partitions = [], []

    def counting(fn, calls):
        def wrapped(arg):
            calls.append(arg)
            return fn(arg)
        return wrapped

    for module in (cli, features):
        monkeypatch.setattr(module, "eig_sym", counting(module.eig_sym, spectra))
        monkeypatch.setattr(module, "detect_communities", counting(module.detect_communities, partitions))
    assert main(["analyze", synthetic_csv, "--out", str(tmp_path / "analysis")]) == 0
    with_edges = [s for s in load_network(synthetic_csv).snapshots if s.n_edges]
    assert len(with_edges) == 8
    assert len(spectra) == len(with_edges)
    assert [s.timestamp for s in partitions] == [s.timestamp for s in with_edges]


def test_analyze_format_restriction(synthetic_csv, tmp_path):
    out = str(tmp_path / "json_only")
    assert main(["analyze", synthetic_csv, "--format", "json", "--out", out]) == 0
    files = set(os.listdir(out))
    assert "spectra.json" in files and "ttests.json" in files
    assert not any(f.endswith(".csv") or f.endswith(".svg") for f in files)


_JOBS = {
    "analyze": ["analyze"],
    "predict": ["predict", "--target", "presence", "--trials", "30", "--bootstrap-iters", "100"],
}


def _run_job(where, command, csv_path, *extra):
    """Run one job with the relative ``--out out`` inside ``where``, so that the
    echoed config of two runs differs only in ``format``; returns {file: bytes}."""
    argv = [command, csv_path, *_JOBS[command][1:], *extra, "--out", "out"]
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(where)
        assert main(argv) == 0
    return {name: (where / "out" / name).read_bytes() for name in os.listdir(where / "out")}


@pytest.fixture(scope="module")
def full_runs(synthetic_csv, tmp_path_factory):
    return {command: _run_job(tmp_path_factory.mktemp(command), command, synthetic_csv) for command in _JOBS}


def _never(*args, **kwargs):
    raise AssertionError("rendered an artifact that --format leaves out")


@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
@pytest.mark.parametrize("command", ["analyze", "predict"])
def test_format_writes_exactly_that_extension_of_the_full_run(
        synthetic_csv, full_runs, tmp_path, monkeypatch, command, fmt):
    if fmt != "svg":  # a chart is rendered only when it is written
        for chart in ("line_chart", "violin_chart", "bar_chart"):
            monkeypatch.setattr(cli, chart, _never)
    got = _run_job(tmp_path, command, synthetic_csv, "--format", fmt)
    assert ("run.json" in got) == (command == "analyze")
    got.pop("run.json", None)
    expected = {
        name: data.replace(b'"format": "all"', f'"format": "{fmt}"'.encode())
        for name, data in full_runs[command].items()
        if name.endswith("." + fmt) and name != "run.json"
    }
    assert expected
    assert got == expected


@pytest.mark.parametrize("fmt", ["all", "csv", "json", "svg"])
def test_run_json_lists_exactly_the_files_written(synthetic_csv, tmp_path, capsys, fmt):
    out = tmp_path / "out"
    assert main(["analyze", synthetic_csv, "--format", fmt, "--out", str(out)]) == 0
    listed = _read_json(out / "run.json")["artifacts"]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(os.listdir(out)) - {"run.json"}
    assert capsys.readouterr().out == f"wrote {len(listed) + 1} artifacts to {out}\n"


def test_importance_takes_its_format_from_out(tmp_path):
    net = str(tmp_path / "net.csv")
    main(["gen", "barbell", "--out", net])
    with pytest.raises(SystemExit) as exc:
        main(["importance", net, "--format", "csv", "--out", str(tmp_path / "imp.csv")])
    assert exc.value.code == 2
    out = str(tmp_path / "imp.json")
    assert main(["importance", net, "--out", out]) == 0
    assert "format" not in _read_json(out)["meta"]["config"]


def test_predict_artifacts(synthetic_csv, tmp_path, capsys):
    out = str(tmp_path / "pred")
    code = main([
        "predict", synthetic_csv, "--target", "presence", "--seed", "2",
        "--l2-grid", "0.1,1.0", "--trials", "30", "--bootstrap-iters", "100",
        "--out", out,
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "target=presence" in stdout

    doc = _read_json(os.path.join(out, "prediction.json"))
    assert doc["meta"]["command"] == "predict"
    cfg = doc["meta"]["config"]
    assert cfg["seed"] == 2 and cfg["target"] == "presence"
    assert cfg["l2_grid"] == "0.1,1.0"
    assert doc["target"] == "presence"
    assert doc["report"]["auc"] is not None
    assert doc["report"]["null_prior"]["kind"] == "prior_predictor"
    assert doc["chosen_l2"] in (0.1, 1.0)

    coefs = _read_csv(os.path.join(out, "coefficients.csv"))
    assert coefs[0] == ["feature", "coef", "se", "pvalue", "ci_lo", "ci_hi"]
    assert len(coefs) == 2 + len(doc["columns"])  # header + intercept + features
    assert coefs[1][0] == "(intercept)"

    perm = _read_csv(os.path.join(out, "permutation_importance.csv"))
    assert {r[0] for r in perm[1:]} == set(doc["columns"])
    assert os.path.exists(os.path.join(out, "permutation_importance.svg"))

    shap_rows = _read_csv(os.path.join(out, "shap.csv"))
    assert shap_rows[0] == ["node", "feature", "phi"]
    assert len(shap_rows) - 1 == doc["split"]["test"] * len(doc["columns"])


@pytest.mark.filterwarnings("ignore:dropping near-constant feature columns")  # presence_count, on this input
def test_predict_decomposes_each_measured_snapshot_once(tmp_path, monkeypatch):
    # An 8-snapshot input has measured anchors 1..6. Each is decomposed once and
    # builds its adjacency three times: for the spectrum, the strengths and
    # PageRank. The last snapshot only labels, and builds it once for its
    # strengths. So 6 eig_sym calls and 3 * 6 + 1 = 19 adjacency builds.
    csv_path = str(tmp_path / "net.csv")
    write_edge_csv(synthetic_temporal(40, 2, 4, -2.0, 8, seed=3), csv_path)
    calls = {"eig_sym": 0, "adjacency": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    original = spectral.eig_sym
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "structim" and vars(module).get("eig_sym") is original:
            monkeypatch.setattr(module, "eig_sym", counted("eig_sym", original))
    monkeypatch.setattr(Snapshot, "adjacency", counted("adjacency", Snapshot.adjacency))
    argv = ["predict", csv_path, "--trials", "20", "--bootstrap-iters", "50", "--out", str(tmp_path / "predict")]
    assert main(argv) == 0
    assert calls == {"eig_sym": 6, "adjacency": 19}


def test_predict_regression_target(synthetic_csv, tmp_path, capsys):
    out = str(tmp_path / "reg")
    code = main([
        "predict", synthetic_csv, "--target", "rel_change", "--trials", "30", "--out", out,
    ])
    assert code == 0
    assert "heldout R2" in capsys.readouterr().out
    doc = _read_json(os.path.join(out, "prediction.json"))
    assert doc["report"] is None
    assert isinstance(doc["regression"]["r2_heldout"], float)
    files = set(os.listdir(out))
    assert "coefficients.csv" in files
    assert "permutation_importance.csv" not in files
    assert "shap.csv" not in files


def test_predict_bad_grid_is_usage_error(synthetic_csv, tmp_path, capsys):
    out = str(tmp_path / "bad")
    assert main(["predict", synthetic_csv, "--l2-grid", "abc", "--out", out]) == 2
    assert "cannot parse" in capsys.readouterr().err
    assert main(["predict", synthetic_csv, "--l2-grid=-1.0,2.0", "--out", out]) == 2
    assert "l2_grid value must be a real number in [0, inf), got -1.0" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["19", "5", "0", "-3"])
def test_predict_too_few_trials_is_usage_error(synthetic_csv, tmp_path, capsys, trials):
    out = str(tmp_path / "bad")
    assert main(["predict", synthetic_csv, f"--trials={trials}", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == f"error: null_trials must be an integer >= 20, got {trials}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("iters", ["0", "-1"])
def test_predict_nonpositive_bootstrap_iters_is_usage_error(synthetic_csv, tmp_path, capsys, iters):
    out = str(tmp_path / "bad")
    assert main(["predict", synthetic_csv, f"--bootstrap-iters={iters}", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == f"error: bootstrap_iters must be an integer >= 1, got {iters}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag, message", [
    ("--l2-grid=nan", "error: l2_grid value must be a real number in [0, inf), got nan"),
    ("--l2-grid=inf", "error: l2_grid value must be a real number in [0, inf), got inf"),
    ("--l2-grid=0.1,-inf", "error: l2_grid value must be a real number in [0, inf), got -inf"),
    ("--corr-threshold=1.5", "error: corr_threshold must be a real number in (0, 1), got 1.5"),
    ("--corr-threshold=0", "error: corr_threshold must be a real number in (0, 1), got 0.0"),
    ("--corr-threshold=nan", "error: corr_threshold must be a real number in (0, 1), got nan"),
    ("--change-threshold=nan", "error: change_threshold must be a real number in [0, inf), got nan"),
    ("--change-threshold=-1", "error: change_threshold must be a real number in [0, inf), got -1.0"),
    ("--change-threshold=inf", "error: change_threshold must be a real number in [0, inf), got inf"),
], ids=["l2-nan", "l2-inf", "l2-minus-inf", "corr-1.5", "corr-0", "corr-nan",
        "change-nan", "change-minus-1", "change-inf"])
def test_predict_bad_flag_value_is_usage_error(tmp_path, capsys, flag, message):
    out = str(tmp_path / "out")
    missing = str(tmp_path / "missing.csv")  # the check runs before the input is read
    assert main(["predict", missing, flag, "--out", out]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, extra", [
    ("analyze", []),
    ("importance", []),
    ("predict", ["--target", "presence"]),
])
def test_nonpositive_aggregation_is_usage_error(tmp_path, capsys, command, extra):
    out = str(tmp_path / "out")
    missing = str(tmp_path / "missing.csv")  # the check runs before the input is read
    assert main([command, missing, "--aggregation", "0", *extra, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == "error: aggregation must be an integer >= 1, got 0\n"
    assert not os.path.exists(out)


# Argument checks run before the network is looked at, so any network will do.
_ANY = repeat_snapshot(barbell(), 1)
_NAN = float("nan")


_REJECTED = [
    ("predict IN --trials=19", lambda: run_prediction(_ANY, "presence", null_trials=19)),
    ("predict IN --bootstrap-iters=0", lambda: run_prediction(_ANY, "presence", bootstrap_iters=0)),
    ("predict IN --corr-threshold=1", lambda: run_prediction(_ANY, "presence", corr_threshold=1.0)),
    ("predict IN --change-threshold=-0.5", lambda: run_prediction(_ANY, "presence", change_threshold=-0.5)),
    ("predict IN --l2-grid=0.1,nan", lambda: run_prediction(_ANY, "presence", l2_grid=(0.1, _NAN))),
    ("predict IN --seed=-1", lambda: run_prediction(_ANY, "presence", seed=-1)),
    ("predict IN --aggregation=0", lambda: load_network("any.csv", aggregation=0)),
    ("analyze IN --aggregation=-2", lambda: load_network("any.csv", aggregation=-2)),
    ("importance IN --aggregation=0", lambda: load_network("any.json", aggregation=0)),
    ("gen barbell --n-left=1", lambda: barbell(n_left=1)),
    ("gen barbell --bridge=-1", lambda: barbell(bridge=-1)),
    ("gen barbell --weight=-1", lambda: barbell(weight=-1.0)),
    ("gen barbell --weight=0", lambda: barbell(weight=0.0)),
    ("gen barbell --weight=nan", lambda: barbell(weight=_NAN)),
    ("gen barbell --weight=inf", lambda: barbell(weight=float("inf"))),
    ("gen barbell --repeats=0", lambda: repeat_snapshot(barbell(), 0)),
    ("gen synthetic --n=5 --communities=10", lambda: synthetic_temporal(5, 10, 4, 0.0, 30)),
    ("gen synthetic --hubs=-1", lambda: synthetic_temporal(120, 4, -1, 0.0, 30)),
    ("gen synthetic --coupling=nan", lambda: synthetic_temporal(120, 4, 4, _NAN, 30)),
    ("gen synthetic --horizon=1", lambda: synthetic_temporal(120, 4, 4, 0.0, 1)),
    ("gen synthetic --seed=-1", lambda: synthetic_temporal(120, 4, 4, 0.0, 30, seed=-1)),
]


@pytest.mark.parametrize("argv, library_call", _REJECTED, ids=[argv for argv, _ in _REJECTED])
def test_cli_rejects_a_value_with_the_library_message(tmp_path, capsys, argv, library_call):
    # one copy of each rule: the CLI relays what the library raises for the same value
    with pytest.raises(ValueError) as exc:
        library_call()
    out = str(tmp_path / "out")
    missing = str(tmp_path / "missing.csv")  # the check runs before the input is read
    args = [missing if a == "IN" else a for a in argv.split()]
    assert main([*args, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", ["analyze IN", "importance IN", "gen barbell"])
def test_seed_is_only_an_option_where_it_is_read(tmp_path, capsys, argv):
    args = [str(tmp_path / "net.csv") if a == "IN" else a for a in argv.split()]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--seed", "1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_predict_negative_seed_on_missing_input_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["predict", str(tmp_path / "missing.csv"), "--seed", "-1", "--out", out]) == 2
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not os.path.exists(out)


def test_value_error_after_the_checks_is_not_a_usage_error(synthetic_csv, tmp_path, monkeypatch):
    # numpy's LinAlgError is a ValueError; raised mid-run it must not read as a bad option
    @functools.wraps(run_prediction)  # the parser reads its defaults from this signature
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(cli, "run_prediction", fail)
    with pytest.raises(np.linalg.LinAlgError):
        main(["predict", synthetic_csv, "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command", ["analyze", "predict"])
def test_directed_network_is_a_data_error(tmp_path, capsys, command):
    net = tmp_path / "directed.json"
    net.write_text(directed_triangles().to_json())
    assert main([command, str(net), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "data error: node measures are defined here for undirected networks only; the network is directed\n")


def test_predict_too_few_snapshots(tmp_path, capsys):
    net = str(tmp_path / "static.csv")
    main(["gen", "barbell", "--repeats", "4", "--out", net])
    code = main(["predict", net, "--out", str(tmp_path / "out")])
    assert code == 3
    assert "at least 7 snapshots" in capsys.readouterr().err


@pytest.mark.parametrize("target, repeats", [("presence", 4), ("rel_change", 2)])
def test_predict_snapshot_minimum_is_the_library_rule(tmp_path, capsys, target, repeats):
    net = str(tmp_path / "static.csv")
    main(["gen", "barbell", "--repeats", str(repeats), "--out", net])
    capsys.readouterr()
    with pytest.raises(DataError) as exc:
        run_prediction(load_network(net), target)
    assert main(["predict", net, "--target", target, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"data error: {exc.value}\n"


def test_predict_with_no_labeled_row_names_the_target(tmp_path, capsys):
    net = str(tmp_path / "static.csv")
    write_edge_csv(repeat_snapshot(barbell(4, 2, 5), 12), net)
    assert main(["predict", net, "--target", "sign", "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "data error: anchors 1..10 exist, but target 'sign' labels none of their featurizable nodes\n")


def test_predict_features_are_the_analyze_measure_cells(tmp_path):
    net = str(tmp_path / "net.csv")
    write_edge_csv(synthetic_temporal(40, 2, 2, -2.0, 6, seed=3), net)
    out = tmp_path / "out"
    assert main(["analyze", net, "--format", "csv", "--out", str(out)]) == 0
    cells = {(int(t), node, name): value for t, node, name, value, _ in _read_csv(out / "measures.csv")[1:]}
    tn = load_network(net)
    compared = 0
    for t in range(1, tn.n_snapshots - 1):
        table = features.build_table(tn, t, "presence")
        for node, row in zip(table.node_ids, table.X):
            for name, value in zip(features.MEASURE_COLUMNS, row):
                assert cells[(t, str(node), name)] == repr(float(value))
                compared += 1
    assert compared > 500


def _parsed_defaults(argv):
    args = vars(cli.build_parser().parse_args([*argv, "--out", "out"]))
    return {k: v for k, v in args.items() if k not in ("func", "command", "family", "input", "out")}


# For each subcommand: option dest -> (library function, parameter), and the
# options whose default is the CLI's own, because no library parameter takes
# it with a default.
_IO = {"aggregation": (load_network, "aggregation")}
_DEFAULTS = [
    ("gen barbell", {"n_left": (barbell, "n_left"), "bridge": (barbell, "bridge"), "n_right": (barbell, "n_right"),
                     "weight": (barbell, "weight")}, {"repeats"}),
    ("gen synthetic", {"seed": (synthetic_temporal, "seed")}, {"n", "communities", "hubs", "coupling", "horizon"}),
    ("importance IN", {**_IO, "strength_mode": (node_importance_directed, "strength_mode")}, {"scheme", "snapshot"}),
    ("analyze IN", _IO, {"format"}),
    ("predict IN", {**_IO, "seed": (run_prediction, "seed"), "l2_grid": (run_prediction, "l2_grid"),
                    "change_threshold": (run_prediction, "change_threshold"),
                    "corr_threshold": (run_prediction, "corr_threshold"), "trials": (run_prediction, "null_trials"),
                    "bootstrap_iters": (run_prediction, "bootstrap_iters")}, {"format", "target"}),
]


@pytest.mark.parametrize("argv, library, cli_only", _DEFAULTS, ids=[argv for argv, *_ in _DEFAULTS])
def test_cli_defaults_are_the_library_defaults(argv, library, cli_only):
    got = _parsed_defaults(argv.split())
    assert set(got) == set(library) | cli_only  # every option is accounted for
    if "l2_grid" in got:  # the option takes the grid as comma-separated text
        got["l2_grid"] = tuple(float(v) for v in got["l2_grid"].split(","))
    for dest, (fn, param) in library.items():
        default = inspect.signature(fn).parameters[param].default
        assert got[dest] == default and type(got[dest]) is type(default), dest


@pytest.mark.parametrize("command", ["gen", "importance", "analyze", "predict"])
def test_an_output_that_cannot_be_written_is_a_usage_error(synthetic_csv, tmp_path, capsys, command):
    original = pathlib.Path(synthetic_csv).read_bytes()
    net = tmp_path / "net.csv"
    net.write_bytes(original)
    argv, out = {
        "gen": (["gen", "barbell"], tmp_path / "missing" / "g.csv"),
        "importance": (["importance", str(net)], tmp_path / "missing" / "i.json"),
        "analyze": (["analyze", str(net)], net),  # an existing file, not a directory
        "predict": (["predict", str(net), "--target", "rel_change"], net),
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    reason = "File exists" if out == net else "No such file or directory"
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert not (tmp_path / "missing").exists()
    assert net.read_bytes() == original


@pytest.mark.parametrize("command", ["analyze", "predict"])
def test_an_unwritable_out_fails_before_the_job(tmp_path, capsys, monkeypatch, command):
    def never(fn):
        @functools.wraps(fn)  # the parser reads the option defaults from the signature
        def fail(*args, **kwargs):
            raise AssertionError("the job ran before --out was checked")
        return fail

    monkeypatch.setattr(cli, "load_network", never(cli.load_network))
    monkeypatch.setattr(cli, "run_prediction", never(cli.run_prediction))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([command, str(tmp_path / "net.csv"), "--out", str(taken)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {taken}: File exists\n"


def test_a_field_over_the_csv_limit_is_a_data_error(tmp_path, capsys):
    limit = csv.field_size_limit()
    path = tmp_path / "big.csv"
    path.write_text("0,a,b,1\n0," + "x" * (limit + 1) + ",b,1\n")
    assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"data error: big.csv:2: field larger than field limit ({limit})\n"


# predict measures its anchors from snapshot 1 on
@pytest.mark.parametrize("argv, snapshot", [(["analyze"], 0), (["importance", "--scheme", "mb"], 0), (["predict"], 1),
                                            (["predict", "--target", "rel_change"], 1)])
def test_strengths_that_overflow_are_a_data_error(tmp_path, capsys, argv, snapshot):
    net = str(tmp_path / "b.csv")
    assert main(["gen", "barbell", "--n-left", "2", "--bridge", "0", "--n-right", "2", "--weight", "1e308",
                 "--repeats", "7", "--out", net]) == 0
    capsys.readouterr()
    out = str(tmp_path / ("i.json" if argv[0] == "importance" else "out"))
    assert main([argv[0], net, *argv[1:], "--out", out]) == 3
    assert capsys.readouterr().err == f"data error: snapshot {snapshot}: the strengths overflow the float range\n"


def test_directed_importance_that_overflows_is_a_numerical_error(tmp_path, capsys):
    # the strengths are finite (at most 2e200), a @ a.T is not; the JSON once read "value": NaN
    net = tmp_path / "big.csv"
    net.write_text("0,a,b,1e200\n0,b,c,1e200\n0,c,a,1e200\n0,a,c,1e200\n")
    out = tmp_path / "big.json"
    assert main(["importance", str(net), "--scheme", "directed", "--out", str(out)]) == 4
    assert capsys.readouterr().err == "numerical error: a @ a.T overflows the float range\n"
    assert not out.exists()


def test_measures_past_the_float_range_stop_predict_in_standardize_and_not_analyze(tmp_path, capsys):
    # node 5's weights at time 5 times 1e-205: rounding noise amplified by 1/S lifts mb to about
    # 6e189, and its std overflows. Pruning and the t-test once stopped both runs with a
    # NumericalError, and the violins warned (warnings are errors here)
    path = tmp_path / "net.csv"
    write_edge_csv(synthetic_temporal(120, 4, 4, -2.0, 8, seed=11), str(path))
    rows = _read_csv(path)
    for row in rows[1:]:
        if row[0] == "5" and "5" in row[1:3]:
            row[3] = repr(float(row[3]) * 1e-205)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["predict", str(path), "--out", str(tmp_path / "p")]) == 4
    assert capsys.readouterr().err == "numerical error: standard deviation not finite for feature columns: mb\n"
    assert main(["analyze", str(path), "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().err == ""


def test_violin_of_values_whose_std_or_z_squared_overflows_is_drawn():
    # group a's std overflows (an infinite bandwidth) and so do group b's z**2 on the tall grid:
    # each density takes its limit, 0, where numpy warned
    svg = cli.violin_chart([("a", [1e189, 1.0, 2.0]), ("b", [1.0, 2.0])])
    assert svg.count("<polygon") == 2 and "nan" not in svg
