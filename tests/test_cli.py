"""Command-line interface: artifacts, metadata echo, and exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from structim import (
    DataError,
    barbell,
    cli,
    features,
    load_network,
    node_importance,
    repeat_snapshot,
    run_prediction,
    synthetic_temporal,
    write_edge_csv,
)
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


def test_importance_scheme_flag_mismatch(tmp_path, capsys):
    net = str(tmp_path / "net.csv")
    main(["gen", "barbell", "--out", net])
    out = str(tmp_path / "imp.csv")
    assert main(["importance", net, "--scheme", "directed", "--out", out]) == 2
    assert "requires --directed" in capsys.readouterr().err
    assert main(["importance", net, "--scheme", "ma", "--directed", "--out", out]) == 2
    assert "drop --directed" in capsys.readouterr().err


def test_importance_directed_scheme_runs(tmp_path):
    net = str(tmp_path / "net.csv")
    main(["gen", "barbell", "--out", net])
    out = str(tmp_path / "imp.csv")
    code = main(["importance", net, "--scheme", "directed", "--directed", "--out", out])
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
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["19", "5", "0", "-3"])
def test_predict_too_few_trials_is_usage_error(synthetic_csv, tmp_path, capsys, trials):
    out = str(tmp_path / "bad")
    assert main(["predict", synthetic_csv, f"--trials={trials}", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: need at least 20 trials for stable quantiles") and err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("iters", ["0", "-1"])
def test_predict_nonpositive_bootstrap_iters_is_usage_error(synthetic_csv, tmp_path, capsys, iters):
    out = str(tmp_path / "bad")
    assert main(["predict", synthetic_csv, f"--bootstrap-iters={iters}", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: need at least 1 bootstrap iteration") and err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag, message", [
    ("--l2-grid=nan", "error: l2_grid needs finite nonnegative values, got [nan]"),
    ("--l2-grid=inf", "error: l2_grid needs finite nonnegative values, got [inf]"),
    ("--l2-grid=0.1,-inf", "error: l2_grid needs finite nonnegative values, got [0.1, -inf]"),
    ("--corr-threshold=1.5", "error: corr_threshold must be in (0, 1), got 1.5"),
    ("--corr-threshold=0", "error: corr_threshold must be in (0, 1), got 0.0"),
    ("--corr-threshold=nan", "error: corr_threshold must be in (0, 1), got nan"),
    ("--change-threshold=nan", "error: change_threshold must be finite and nonnegative, got nan"),
    ("--change-threshold=-1", "error: change_threshold must be finite and nonnegative, got -1.0"),
    ("--change-threshold=inf", "error: change_threshold must be finite and nonnegative, got inf"),
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
    assert err == "error: aggregation must be a positive integer, got 0\n"
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
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"
    assert not os.path.exists(out)


def test_value_error_after_the_checks_is_not_a_usage_error(synthetic_csv, tmp_path, monkeypatch):
    # numpy's LinAlgError is a ValueError; raised mid-run it must not read as a bad option
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
