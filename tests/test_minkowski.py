import numpy as np
import pytest

from flagcurv.minkowski import (
    MinkowskiNorm,
    NormValidationError,
    check_norm_properties,
    fundamental_tensor,
    make_norm,
)


@pytest.fixture(scope="module")
def quartic(sp2_circle21):
    return make_norm("quartic_perturbed", {"epsilon": 0.1}, sp2_circle21, seed=3)


@pytest.fixture(scope="module")
def alpha_beta(su4_onecircle):
    return make_norm("alpha_beta", {}, su4_onecircle, seed=2)


def test_riemannian_gram_is_constant(sp2_circle21):
    F = make_norm("riemannian", {}, sp2_circle21, seed=1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.standard_normal(F.dim)
        assert np.abs(F.gram(u) - F.q).max() < 1e-14


def test_alpha_beta_with_trivial_profile_is_riemannian(su4_onecircle):
    F = make_norm("alpha_beta", {"phi": [1.0]}, su4_onecircle, seed=2)
    rng = np.random.default_rng(1)
    V = rng.standard_normal((40, F.dim))
    riem = np.sqrt(np.einsum("ni,ij,nj->n", V, F.q, V))
    assert np.abs(F.value_many(V) - riem).max() < 1e-12


def test_alpha_beta_rejects_odd_profile(su4_onecircle):
    with pytest.raises(NormValidationError, match="odd"):
        make_norm("alpha_beta", {"phi": [1.0, 0.3]}, su4_onecircle, seed=2)


def test_alpha_beta_rejects_unfixed_v0(su4_onecircle):
    v0 = np.zeros(su4_onecircle.dim_m)
    v0[-1] = 1.0  # a root-plane direction, rotated by the isotropy
    with pytest.raises(NormValidationError, match="v0"):
        make_norm("alpha_beta", {"v0": v0}, su4_onecircle, seed=2)


def test_quartic_properties_report(sp2_circle21, quartic):
    rep = check_norm_properties(quartic, sp2_circle21, samples=200, seed=0)
    assert rep["homogeneity_residual"] < 1e-10
    assert rep["reversibility_residual"] < 1e-10
    assert rep["invariance_residual"] < 1e-10
    assert rep["min_gram_eigenvalue"] > 0


def test_riemannian_invariance_report(sp2_circle21):
    F = make_norm("riemannian", {}, sp2_circle21, seed=4)
    rep = check_norm_properties(F, sp2_circle21, samples=150, seed=1)
    assert rep["invariance_residual"] < 1e-10


def test_non_invariant_quadratic_is_flagged(sp2_circle21):
    X = sp2_circle21
    Q = np.eye(X.dim_m)
    Q[1, 2] = Q[2, 1] = 0.4  # ties a rotated plane to a fixed line
    with pytest.raises(NormValidationError, match="invariant"):
        make_norm("riemannian", {"q": Q}, X, seed=0)
    F = MinkowskiNorm("riemannian", X.dim_m, Q)
    rep = check_norm_properties(F, X, samples=200, seed=0)
    assert rep["invariance_residual"] > 1e-3


def test_gram_euler_identity(quartic):
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.standard_normal(quartic.dim)
        u /= np.linalg.norm(u)
        ft = fundamental_tensor(quartic, u)
        fval = quartic.value(u)
        assert abs(u @ ft.gram @ u - fval * fval) / fval ** 2 < 1e-9
        lam = 0.5 + 2 * rng.random()
        assert np.abs(quartic.gram(lam * u, method="fd") - ft.gram).max() < 1e-7


def test_gram_reversibility(quartic):
    rng = np.random.default_rng(6)
    for _ in range(5):
        u = rng.standard_normal(quartic.dim)
        u /= np.linalg.norm(u)
        G1 = quartic.gram(u, method="fd")
        G2 = quartic.gram(-u, method="fd")
        assert np.abs(G1 - G2).max() < 1e-10


def test_fd_matches_closed_form(sp2_circle21, alpha_beta):
    Fr = make_norm("riemannian", {}, sp2_circle21, seed=7)
    rng = np.random.default_rng(8)
    for F in (Fr, alpha_beta):
        for _ in range(5):
            u = rng.standard_normal(F.dim)
            u /= np.linalg.norm(u)
            assert np.abs(F.gram(u, method="fd") - F.gram(u, method="closed")).max() < 1e-6


def test_gram_continuity(quartic):
    rng = np.random.default_rng(9)
    u = rng.standard_normal(quartic.dim)
    u /= np.linalg.norm(u)
    du = rng.standard_normal(quartic.dim)
    up = u + 1e-6 * du / np.linalg.norm(du)
    assert np.abs(quartic.gram(u, method="fd") - quartic.gram(up, method="fd")).max() < 1e-3


def test_gram_equivariance(sp2_circle21, quartic):
    rng = np.random.default_rng(10)
    u = rng.standard_normal(quartic.dim)
    u /= np.linalg.norm(u)
    G = quartic.gram(u, method="fd")
    for R in sp2_circle21.sample_isotropy(4, seed=2):
        Gr = quartic.gram(R @ u, method="fd")
        assert np.abs(R.T @ Gr @ R - G).max() < 1e-8


def test_alpha_beta_constant_on_complement(alpha_beta):
    # the induced metric is the same at every pole orthogonal to v0
    F = alpha_beta
    b = F.q @ F.v0
    rng = np.random.default_rng(11)
    grams = []
    for _ in range(4):
        w = rng.standard_normal(F.dim)
        w -= (w @ b) / (F.v0 @ b) * F.v0
        grams.append(F.gram(w))
    for G in grams[1:]:
        assert np.abs(G - grams[0]).max() < 1e-8
    assert np.abs(grams[0] - F.reference_riemannian().q).max() < 1e-10


def test_fundamental_tensor_rejects_zero(quartic):
    with pytest.raises(ValueError):
        fundamental_tensor(quartic, np.zeros(quartic.dim))


def test_fundamental_tensor_detects_indefiniteness():
    Q = np.diag([1.0, -0.5, 1.0])
    F = MinkowskiNorm("riemannian", 3, Q)
    with pytest.raises(NormValidationError, match="convex"):
        fundamental_tensor(F, np.array([1.0, 0.0, 0.0]))


def test_quartic_epsilon_autohalving(sp2_circle21):
    F = make_norm("quartic_perturbed", {}, sp2_circle21, seed=3)
    assert F.epsilon <= 0.1
    assert F.meta["convexity_min_eigenvalue"] > 0


def test_convexity_scan_catches_indefinite_quartic():
    # projector-built quartics stay convex for every strength, so exercise
    # the scan on a sign-indefinite coefficient matrix
    from flagcurv.minkowski import _convexity_scan

    d = 4
    B = np.diag([1.0, -1.0, 1.0, -1.0])
    F = MinkowskiNorm("quartic_perturbed", d, np.eye(d), quartic_terms=[(1.0, B)], epsilon=2.0)
    min_eig, direction = _convexity_scan(F, count=2048, seed=0)
    assert min_eig < 0
    assert len(direction) == d
    with pytest.raises(NormValidationError, match="convex"):
        fundamental_tensor(F, direction)


def test_norm_transform_is_pullback(sp2_circle21, quartic):
    R = sp2_circle21.sample_isotropy(1, seed=3)[0]
    Ft = quartic.transform(R)
    rng = np.random.default_rng(12)
    V = rng.standard_normal((20, quartic.dim))
    assert np.abs(Ft.value_many(V) - quartic.value_many(V @ R.T)).max() < 1e-12


def test_alpha_beta_closed_hessian_fuzz(su4_onecircle):
    # randomized profiles and poles, closed form against finite differences
    X = su4_onecircle
    rng = np.random.default_rng(99)
    for trial in range(6):
        phi = [1.0, 0.0, 0.2 + 0.3 * rng.random(), 0.0, 0.1 * rng.random(), 0.0, 0.02 * rng.random()]
        F = make_norm(
            "alpha_beta",
            {"phi": phi, "v0_scale": 0.4 + 0.4 * rng.random()},
            X,
            seed=100 + trial,
        )
        for _ in range(3):
            u = rng.standard_normal(F.dim)
            u /= np.linalg.norm(u)
            diff = np.abs(F.gram(u, method="closed") - F.gram(u, method="fd")).max()
            assert diff < 1e-7, diff


def test_quartic_internal_closed_form_matches_fd(sp2_circle21, quartic):
    # the search guidance path must agree with the official FD evaluation,
    # also for terms that are not projectors (a non-orthogonal pullback), for
    # an empty term list and for a negative epsilon
    rng = np.random.default_rng(123)
    S = np.eye(quartic.dim) + 0.3 * np.random.default_rng(1).standard_normal((quartic.dim, quartic.dim))
    norms = (
        quartic,
        quartic.transform(S),
        MinkowskiNorm("quartic_perturbed", quartic.dim, quartic.q, quartic_terms=[], epsilon=0.1),
        make_norm("quartic_perturbed", {"epsilon": -0.05}, sp2_circle21, seed=3),
    )
    for F in norms:
        for _ in range(8):
            u = rng.standard_normal(F.dim)
            u /= np.linalg.norm(u)
            diff = np.abs(F.gram(u, method="fd") - F.gram(u, method="closed")).max()
            assert diff < 1e-7, diff
