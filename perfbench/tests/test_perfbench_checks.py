"""Negative controls for the benchmark's output checks and a tracer test.

Each check must pass on a correct output and fail on a broken one, so that a
check that cannot fail shows up here.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import coupled_metric, window_rates  # noqa: E402
from flagcurv import cli, flatfinder  # noqa: E402
from flagcurv.curvature import alpha_beta_comparison, flag_curvature  # noqa: E402
from flagcurv.homspace import SubalgebraSpec as S, build_space  # noqa: E402
from flagcurv.liealg import build_lie_algebra  # noqa: E402
from flagcurv.minkowski import MinkowskiNorm, make_norm  # noqa: E402


@pytest.fixture(scope="module")
def sp2():
    return build_lie_algebra("sp", 2)


@pytest.fixture(scope="module")
def flat_sp2(sp2):
    X = build_space(sp2, [S.circle(2, 1)])
    F = make_norm("quartic_perturbed", {"epsilon": 0.1}, X, seed=3)
    u = X.m_vector(root=(2, 0), xy=(0.8, 0.6))
    v = X.m_vector(root=(0, 2), xy=(0.3, -0.95))
    return X, F, u, v


@pytest.fixture(scope="module")
def coupled_sp2(sp2):
    """A commuting flag of positive curvature under a coupled metric."""
    X = build_space(sp2, [S.circle(3, 1)])
    Q = coupled_metric(X)
    u = X.m_vector(root=(2, 0), xy=(0.9, 0.45))
    v = X.m_vector(root=(0, 2), xy=(0.2, -1.1))
    return X, Q, u, v


def test_brackets_agree_with_the_space(flat_sp2):
    X = flat_sp2[0]
    br = checks.Brackets(X)
    assert np.abs(br.mm - X.m_bracket_tensor()).max() < 1e-12


def test_zero_flag_check(flat_sp2, coupled_sp2):
    X, F, u, v = flat_sp2
    assert checks.check_zero_flag(flag_curvature(X, F, u, v), "flat") == []
    Xr, Q, ur, vr = coupled_sp2
    Fr = make_norm("riemannian", {"q": Q}, Xr, seed=0)
    assert checks.check_zero_flag(flag_curvature(Xr, Fr, ur, vr), "curved")


def test_riemannian_check_rejects_a_perturbed_curvature(coupled_sp2):
    X, Q, u, v = coupled_sp2
    F = make_norm("riemannian", {"q": Q}, X, seed=0)
    K = flag_curvature(X, F, u, v).curvature
    br = checks.Brackets(X)
    assert abs(K - 17.0 / 468.0) < 1e-12
    assert checks.check_riemannian_flag(br, Q, u, v, K, "flag") == []
    assert checks.check_riemannian_flag(br, Q, u, v, K * (1 + 1e-7), "flag")


def test_alpha_beta_check_rejects_a_perturbed_curvature():
    X = build_space(build_lie_algebra("su", 4), [S.block(1, 2), S.circle(1, 1, 1, -3)])
    F = make_norm("alpha_beta", {"phi": [1.0, 0.0, 0.35, 0.0, 0.06]}, X, seed=5)
    u = X.m_vector(root=(0, 1, -1, 0), xy=(0.6, 0.8))
    v = X.m_vector(root=(1, 0, 0, -1), xy=(-0.4, 1.2)) + 0.3 * u
    k_f, _ = alpha_beta_comparison(X, F, u, v)
    br = checks.Brackets(X)
    assert checks.check_alpha_beta_flag(br, F, u, v, k_f, "flag") == []
    assert checks.check_alpha_beta_flag(br, F, u, v, k_f + 1e-6, "flag")


def _wrong_split_norm(X):
    """A quartic norm on coordinate pairs shifted off the root planes."""
    nm = X.dim_m
    projs = []
    for start in range(0, nm - 1, 2):
        P = np.zeros((nm, nm))
        P[start : start + 2, start : start + 2] = np.eye(2)
        projs.append(P)
    rest = np.eye(nm) - sum(projs)
    Q = rest + sum((1.0 + 0.2 * k) * P for k, P in enumerate(projs))
    terms = [(0.5, P) for P in projs]
    return MinkowskiNorm("quartic_perturbed", nm, Q, quartic_terms=terms, epsilon=0.1), [2] * len(projs)


def test_norm_checks_reject_a_wrong_block_split(flat_sp2):
    X, F, _, _ = flat_sp2
    br = checks.Brackets(X)
    dims = F.meta["invariant_blocks"]
    rng = np.random.default_rng(0)
    assert checks.check_invariance(br, F, rng, "norm") == []
    assert checks.check_block_dims(dims, "norm", expected=dims) == []
    bad, bad_dims = _wrong_split_norm(X)
    assert checks.check_invariance(br, bad, rng, "norm")
    assert checks.check_block_dims(bad_dims, "norm", expected=dims)
    assert checks.check_block_dims(dims, "norm")  # sp(2) is not the su(6) split


def test_gram_check_rejects_a_nonconvex_norm(flat_sp2):
    F = flat_sp2[1]
    rng = np.random.default_rng(1)
    assert checks.check_gram_positive(F, rng, "norm") == []
    bad = MinkowskiNorm("quartic_perturbed", 3, np.eye(3), quartic_terms=[(1.0, np.diag([1.0, 0, 0]))],
                        epsilon=-0.9)
    assert checks.check_gram_positive(bad, rng, "norm")


def _flat(u, v):
    return SimpleNamespace(verdict="zero_flag", u=u, v=v, details={"tolerances": {"zero_residual": 1e-8}})


def test_search_check_rejects_a_noncommuting_pair(flat_sp2):
    X, F, u, v = flat_sp2
    br = checks.Brackets(X)
    assert checks.check_search(br, F, [flag_curvature(X, F, u, v)], "search") == []
    w = X.m_vector(root=(1, 1), xy=(1.0, 0.0))
    assert checks.commutator_residual(br, u, w) > 1e-3
    assert checks.check_search(br, F, [_flat(u, w)], "search")
    assert checks.check_search(br, F, [], "search")


def test_search_check_rejects_a_curved_commuting_flag(coupled_sp2):
    X, Q, u, v = coupled_sp2
    br = checks.Brackets(X)
    # a quartic norm with no quartic part is the Riemannian metric Q
    F = MinkowskiNorm("quartic_perturbed", X.dim_m, Q, quartic_terms=[], epsilon=0.0)
    assert checks.commutator_residual(br, u, v) < 1e-12
    fails = checks.check_search(br, F, [_flat(u, v)], "search")
    assert len(fails) == 1 and "flatness" in fails[0]


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps({"task": {"name": "verify-example", "example_id": 1, "seed": 4}}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify-example", str(path), "--id", "1"])
    return code, out.getvalue()


def _tampered(text, edit):
    doc = json.loads(text)
    edit(doc["payload"])
    return json.dumps(doc)


def test_report_check_rejects_tampered_reports(report):
    code, text = report
    assert checks.check_report(code, text, "report") == []
    assert checks.check_report(1, text, "report")
    assert checks.check_report(code, text[:-20], "report")
    edits = [
        lambda p: p.update(passed=False),
        lambda p: p["flags"][1]["certificate"].update(verdict="positive"),
        lambda p: p["flags"][0]["closure_claims"][1].update(passes=False),
        lambda p: p.update(flags=[]),
    ]
    for edit in edits:
        assert checks.check_report(code, _tampered(text, edit), "report")


def test_tracer_counts_calls_and_restores_the_program(flat_sp2):
    X, F, u, v = flat_sp2
    original = flatfinder.flag_curvature
    tracer = tracing.Tracer().install()
    try:
        assert flatfinder.flag_curvature is not original
        tracer.round = 0
        flatfinder.flag_curvature(X, F, u, v)
        flatfinder.flag_curvature(X, F, u, v, gram_method="closed")
    finally:
        tracer.uninstall()
    assert flatfinder.flag_curvature is original
    metrics = tracer.layer_metrics([0])
    assert metrics["curvature.flag_curvature_calls"] == 2
    assert metrics["curvature.zero_flags"] == 2
    assert metrics["numdiff.hessian_calls"] == 1
    assert metrics["minkowski.gram_fd_calls"] == 1
    assert metrics["minkowski.gram_closed_calls"] == 1
    assert 0 < metrics["curvature.flag_curvature_self_s"] < metrics["curvature.flag_curvature_s"]


def test_window_rates_keep_a_stall_in_one_window():
    # 0.2 s rounds, and one round stalled for 3 s
    times = [0.2] * 30
    times[12] = 3.0
    ends = np.cumsum(times).tolist()
    rates = window_rates(ends, 0.0, window_s=2.0)
    assert len(rates) == 3
    assert sorted(rates)[1] == pytest.approx(5.0)
    # rounds longer than a window are windows of their own, and a short
    # tail joins the window before it
    assert window_rates([9.0, 18.0], 0.0, window_s=2.0) == pytest.approx([1 / 9.0, 1 / 9.0])
    assert window_rates([1.0, 2.5, 3.0], 0.0, window_s=2.0) == pytest.approx([1.0])
