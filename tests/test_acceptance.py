"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with -s or on failure) and
asserts the same condition, so the -v listing gives one verdict per check.
"""

import time
import warnings

import numpy as np

from structim import (
    Snapshot,
    barbell,
    binom_ci,
    eig_sym,
    modularity,
    node_importance,
    null_prior_predictor,
    run_prediction,
    select_eigencomponent,
    shap_linear,
    synthetic_temporal,
)
from structim.model import LogisticModel

from conftest import binom_ci_oracle, clique, cycle, random_connected

# Positive-eigenvector components of the 4-2-5 barbell, one row per node,
# columns ordered by descending eigenvalue (3 decimals).
BARBELL_EIGENVECTORS = np.array([
    [0.006, -0.478, -0.159],
    [0.006, -0.478, -0.159],
    [0.006, -0.478, -0.159],
    [0.013, -0.524, 0.121],
    [0.033, -0.189, 0.629],
    [0.122, -0.060, 0.658],
    [0.463, 0.002, 0.187],
    [0.439, 0.016, -0.106],
    [0.439, 0.016, -0.106],
    [0.439, 0.016, -0.106],
    [0.439, 0.016, -0.106],
])


def _verdict(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    line = f"{name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


def test_A01_barbell_spectrum_matches_reference_table():
    t0 = time.perf_counter()
    spec = eig_sym(barbell(4, 2, 5).adjacency())
    n_pos = spec.positive_count()
    got = spec.eigenvectors[:, :3].copy()
    for col in range(3):
        if got[:, col] @ BARBELL_EIGENVECTORS[:, col] < 0:
            got[:, col] = -got[:, col]
    err = float(np.max(np.abs(got - BARBELL_EIGENVECTORS)))
    elapsed = time.perf_counter() - t0
    _verdict(
        "A1 barbell eigenvectors",
        n_pos == 3 and err <= 1e-3 and elapsed < 1.0,
        f"positive={n_pos} max_err={err:.2e} {elapsed:.3f}s",
    )


def test_A02_eigencomponent_ranks():
    spec = eig_sym(barbell(4, 2, 5).adjacency())
    ranks = [int(r) for r in select_eigencomponent(spec)]
    want = [2, 2, 2, 2, 3, 3, 1, 1, 1, 1, 1]
    _verdict("A2 eigencomponent selection", ranks == want, f"ranks={ranks}")


def test_A04_bridge_outranks_large_clique():
    mb = node_importance(barbell(4, 2, 5), "mb").values
    bridge_min = min(mb[4], mb[5])
    clique_max = max(mb[v] for v in range(6, 11))
    _verdict(
        "A4 bridge importance ordering",
        bridge_min > clique_max,
        f"min_bridge={bridge_min:.4f} max_clique={clique_max:.4f}",
    )


def test_A05_importance_matches_eigenvalue_derivative():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    eps = 1e-6
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 13))
        snap = random_connected(rng, n)
        a = snap.adjacency()
        s = snap.strength()
        ma = node_importance(snap, "ma").values
        lam0 = float(np.linalg.eigvalsh(a).max())
        for k in range(n):
            v = np.zeros_like(a)
            v[k, :] = a[k, :] / s[k]
            v[:, k] = a[:, k] / s[k]
            fd = (float(np.linalg.eigvalsh(a + eps * v).max()) - lam0) / eps
            worst = max(worst, abs(ma[snap.node_ids[k]] - fd))
    elapsed = time.perf_counter() - t0
    _verdict(
        "A5 eigenvalue-derivative property",
        worst <= 1e-4 and elapsed < 30.0,
        f"max_dev={worst:.2e} {elapsed:.1f}s",
    )


def test_A06_regular_graph_closed_form():
    worst = 0.0
    for n in range(3, 13):
        for snap in (clique(n), cycle(n)):
            vals = node_importance(snap, "ma").values
            worst = max(worst, max(abs(v - 2.0 / n) for v in vals.values()))
    _verdict("A6 regular-graph m_a = 2/n", worst <= 1e-10, f"max_dev={worst:.2e}")


def test_A07_pipeline_detects_planted_coupling():
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        coupled = synthetic_temporal(120, 4, 4, -2.0, horizon=30, seed=11)
        res = run_prediction(coupled, "presence", seed=11)
        decoupled = synthetic_temporal(120, 4, 4, 0.0, horizon=30, seed=11)
        res0 = run_prediction(decoupled, "presence", seed=11)
    elapsed = time.perf_counter() - t0

    rep = res.report
    null_hi = rep.null_prior["auc"]["ci95"][1]
    above_null = rep.auc_ci[0] > null_hi
    mb_row = next(r for r in res.coefficients if r["feature"] == "mb")
    mb_negative = mb_row["coef"] < 0 and mb_row["pvalue"] < 0.05
    ci0 = res0.report.auc_ci
    contains_half = ci0[0] <= 0.5 <= ci0[1]
    _verdict(
        "A7 pipeline signal detection",
        above_null and mb_negative and contains_half and elapsed < 120.0,
        f"auc_ci=({rep.auc_ci[0]:.3f},{rep.auc_ci[1]:.3f}) null_hi={null_hi:.3f} "
        f"mb={mb_row['coef']:.3f} p={mb_row['pvalue']:.1e} "
        f"decoupled_ci=({ci0[0]:.3f},{ci0[1]:.3f}) {elapsed:.1f}s",
    )


def test_A08_binomial_ci_full_scan():
    worst = 0.0
    for n in range(1, 51):
        for k in range(n + 1):
            lo, hi = binom_ci(k, n)
            olo, ohi = binom_ci_oracle(k, n)
            worst = max(worst, abs(lo - olo), abs(hi - ohi))
    _verdict("A8 binomial CI vs oracle", worst <= 1e-6, f"max_dev={worst:.2e}")


def test_A09_attribution_exactness():
    rng = np.random.default_rng(77)
    p = 6
    coef = rng.normal(size=p)
    model = LogisticModel(
        feature_names=tuple(f"f{i}" for i in range(p)),
        intercept=float(rng.normal()),
        coef=coef,
        coef_se=np.zeros(p),
        coef_pvalues=np.ones(p),
        intercept_se=0.0,
        intercept_pvalue=1.0,
        l2=0.0,
        converged=True,
        n_iter=0,
        grad_norm=0.0,
        separation_warning=False,
    )
    x = rng.normal(size=(1000, p))
    mean = rng.normal(size=p)
    phi, base = shap_linear(model, x, background_mean=mean)
    residual = float(np.max(np.abs(base + phi.sum(axis=1) - model.log_odds(x))))
    direct = float(np.max(np.abs(phi - coef[None, :] * (x - mean[None, :]))))
    _verdict(
        "A9 attribution exactness",
        residual <= 1e-10 and direct == 0.0,
        f"additivity={residual:.2e} formula_dev={direct:.1e}",
    )


def test_A10_modularity_closed_forms():
    two = Snapshot(
        node_ids=tuple(range(8)),
        edges=tuple((i, j, 1.0) for a in (0, 4) for i in range(a, a + 4) for j in range(i + 1, a + 4)),
        directed=False,
        timestamp=0,
    )
    q_two = modularity(two, [0, 0, 0, 0, 1, 1, 1, 1])
    q_single = modularity(barbell(4, 2, 5), [0] * 11)
    _verdict(
        "A10 modularity closed forms",
        abs(q_two - 0.5) <= 1e-12 and abs(q_single) <= 1e-12,
        f"Q_cliques={q_two!r} Q_single={q_single!r}",
    )


def test_A11_null_prior_calibration():
    rng = np.random.default_rng(19)
    train_y = rng.permutation(np.array([0, 1] * 60))
    test_y = rng.permutation(np.array([0, 1] * 60))
    res = null_prior_predictor(train_y, test_y, trials=100, seed=23)
    mean_auc = res["auc"]["mean"]
    _verdict(
        "A11 null-model calibration",
        0.45 < mean_auc < 0.55,
        f"mean_auc={mean_auc:.4f}",
    )
