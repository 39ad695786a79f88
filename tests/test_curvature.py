import numpy as np
import pytest

from flagcurv.homspace import build_space
from flagcurv.minkowski import MinkowskiNorm, NormValidationError, make_norm, fundamental_tensor
from flagcurv.curvature import (
    _solve_u,
    alpha_beta_comparison,
    flag_curvature,
    u_tensor,
    zero_conditions_residual,
)


@pytest.fixture(scope="module")
def full_sp2(sp2):
    """sp(2) as a homogeneous space with trivial isotropy."""
    X = build_space(sp2, [])
    F = make_norm("riemannian", {"q": np.eye(X.dim_m)}, X, seed=0)
    return X, F


@pytest.fixture(scope="module")
def catalog3(sp2_circle21):
    F = make_norm("quartic_perturbed", {"epsilon": 0.1}, sp2_circle21, seed=3)
    u = sp2_circle21.m_vector(root=(2, 0), xy=(0.8, 0.6))
    v = sp2_circle21.m_vector(root=(0, 2), xy=(0.3, -0.95))
    return sp2_circle21, F, u, v


def test_biinvariant_u_tensor_vanishes(full_sp2):
    # ad-antisymmetry of the invariant form kills the right side entirely
    X, F = full_sp2
    rng = np.random.default_rng(0)
    for _ in range(10):
        u, v = rng.standard_normal((2, X.dim_m))
        U = u_tensor(X, F, u / np.linalg.norm(u), v)
        assert np.linalg.norm(U) < 1e-10


def test_u_tensor_symmetric_in_the_pair(catalog3):
    X, F, u, v = catalog3
    un = u / np.linalg.norm(u)
    G = fundamental_tensor(F, un).gram
    U1 = u_tensor(X, F, un, v, gram=G)
    U2_swapped = 0.5 * (
        np.einsum("ijk,j->ik", X.m_bracket_tensor(), v) @ G @ un
        + np.einsum("ijk,j->ik", X.m_bracket_tensor(), un) @ G @ v
    )
    # same defining right side with the roles of the two arguments swapped
    import scipy.linalg as sla

    U2 = sla.cho_solve(sla.cho_factor(G), U2_swapped)
    assert np.linalg.norm(U1 - U2) < 1e-12


def test_u_tensor_back_substitution(catalog3):
    X, F, u, v = catalog3
    un = u / np.linalg.norm(u)
    U, res = u_tensor(X, F, un, v, return_residual=True)
    assert res < 1e-10


def test_catalog3_flag_is_flat(catalog3):
    X, F, u, v = catalog3
    un = u / np.linalg.norm(u)
    U = u_tensor(X, F, un, v / np.linalg.norm(v))
    assert np.linalg.norm(U) < 1e-8
    cert = flag_curvature(X, F, u, v)
    assert cert.verdict == "zero_flag"
    assert abs(cert.curvature) < 1e-8
    assert max(cert.zero_residuals) < 1e-8


def test_biinvariant_commuting_flag_is_flat(full_sp2):
    X, F = full_sp2
    datum = X.g.root_datum()
    u = X.project_m(datum.lattice[0])
    v = X.project_m(datum.lattice[1])
    cert = flag_curvature(X, F, u, v)
    assert cert.verdict == "zero_flag"
    assert abs(cert.curvature) < 1e-12


def test_zero_conditions_first_residual_trivial(full_sp2):
    X, F = full_sp2
    rng = np.random.default_rng(1)
    u = rng.standard_normal(X.dim_m)
    u /= np.linalg.norm(u)
    r1, _, _ = zero_conditions_residual(X, F, u, u)
    assert r1 < 1e-12


def test_zero_conditions_fail_generically(catalog3):
    X, F, _, _ = catalog3
    rng = np.random.default_rng(2)
    u = rng.standard_normal(X.dim_m)
    v = rng.standard_normal(X.dim_m)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    residuals = zero_conditions_residual(X, F, u, v)
    assert max(residuals) > 1e-3


def test_zero_conditions_imply_small_u_tensor(catalog3):
    X, F, u, v = catalog3
    un, vn = u / np.linalg.norm(u), v / np.linalg.norm(v)
    # the finite-difference gram of the quartic norm alone reads ~1e-10 here
    residuals = zero_conditions_residual(X, F, un, vn, gram=fundamental_tensor(F, un, method="closed").gram)
    assert max(residuals) < 1e-10
    assert np.linalg.norm(u_tensor(X, F, un, vn)) < 1e-8


def test_preconditions_noncommuting(catalog3):
    X, F, u, _ = catalog3
    w = X.m_vector(root=(1, 1), xy=(1.0, 0.0))
    cert = flag_curvature(X, F, u, w)
    assert cert.verdict == "preconditions_failed"
    assert np.isnan(cert.curvature)


def test_preconditions_dependent_pair(catalog3):
    X, F, u, _ = catalog3
    cert = flag_curvature(X, F, u, -2.5 * u)
    assert cert.verdict == "preconditions_failed"


def test_scale_invariance(catalog3):
    X, F, u, v = catalog3
    c1 = flag_curvature(X, F, u, v)
    c2 = flag_curvature(X, F, 2.0 * u, 3.0 * v)
    assert abs(c1.curvature - c2.curvature) < 1e-9


def test_isometry_equivariance(catalog3):
    X, F, u, v = catalog3
    c1 = flag_curvature(X, F, u, v)
    for R in X.sample_isotropy(3, seed=5):
        c2 = flag_curvature(X, F, R @ u, R @ v)
        assert c2.verdict == c1.verdict
        assert abs(c2.curvature - c1.curvature) < 1e-8


def test_first_condition_guard(catalog3):
    # a metric without the invariance structure violates the hypothesis
    # of the curvature formula even for a commuting pair
    from flagcurv.minkowski import MinkowskiNorm

    X, _, u, v = catalog3
    Q = np.eye(X.dim_m)
    s = X.root_plane_slice((2, 0))[0]
    t = X.tm_slice[0]
    Q[s, t] = Q[t, s] = 0.35  # couples the pole plane to the torus line
    F_bad = MinkowskiNorm("riemannian", X.dim_m, Q)
    assert np.linalg.norm(X.g.ad(X.lift(u)) @ X.lift(v)) < 1e-12
    cert = flag_curvature(X, F_bad, u, v)
    assert cert.verdict == "preconditions_failed"
    assert "first_condition_residual" in cert.details


def test_alpha_beta_comparison_trivial_profile(su4_onecircle):
    F1 = make_norm("alpha_beta", {"phi": [1.0]}, su4_onecircle, seed=2)
    u = su4_onecircle.m_vector(root=(1, 0, -1, 0), xy=(1.0, 0.4))
    v = su4_onecircle.m_vector(root=(0, 1, 0, -1), xy=(-0.2, 1.0))
    k_f, k_0 = alpha_beta_comparison(su4_onecircle, F1, u, v)
    assert abs(k_f - k_0) < 1e-12


def test_alpha_beta_comparison_canonical_flag(su4_onecircle):
    F = make_norm("alpha_beta", {}, su4_onecircle, seed=2)
    u = su4_onecircle.m_vector(root=(1, 0, -1, 0), xy=(0.9, -0.5))
    v = su4_onecircle.m_vector(root=(0, 1, 0, -1), xy=(0.6, 0.8))
    k_f, k_0 = alpha_beta_comparison(su4_onecircle, F, u, v)
    assert abs(k_f) < 1e-8
    assert abs(k_0) < 1e-8


def test_alpha_beta_comparison_generic_flag(su4_onecircle):
    F = make_norm("alpha_beta", {"phi": [1.0, 0.0, 0.45, 0.0, 0.08]}, su4_onecircle, seed=6)
    rng = np.random.default_rng(3)
    X = su4_onecircle
    for _ in range(10):
        a = rng.standard_normal(2)
        u = X.m_vector(root=(1, 0, -1, 0), xy=a / np.linalg.norm(a))
        b = rng.standard_normal(2)
        v = X.m_vector(root=(0, 1, 0, -1), xy=b) + rng.random() * u
        k_f, k_0 = alpha_beta_comparison(X, F, u, v)
        assert abs(k_f - k_0) < 1e-7


def test_alpha_beta_comparison_rejects_vectors_outside_complement(su4_onecircle):
    F = make_norm("alpha_beta", {}, su4_onecircle, seed=2)
    u = su4_onecircle.m_vector(root=(1, 0, -1, 0), xy=(1.0, 0.0)) + 0.5 * F.v0
    v = su4_onecircle.m_vector(root=(0, 1, 0, -1), xy=(1.0, 0.0))
    with pytest.raises(ValueError, match="complement"):
        alpha_beta_comparison(su4_onecircle, F, u, v)


def _full_tensor_sectional(X, Q, x, y):
    """Independent oracle: sectional curvature of an invariant Riemannian
    metric through the full curvature tensor of the reductive splitting."""
    bm = X.m_bracket_tensor()
    Qi = np.linalg.inv(Q)

    def bra_m(a, b):
        return np.einsum("ijk,i,j->k", bm, a, b)

    def bra_h(a, b):
        return X.h_basis @ (X.g.ad(X.lift(a)) @ X.lift(b))

    def U(a, b):
        rhs = 0.5 * (
            np.einsum("ijk,j->ik", bm, a) @ Q @ b + np.einsum("ijk,j->ik", bm, b) @ Q @ a
        )
        return Qi @ rhs

    def lam(a, z):
        return 0.5 * bra_m(a, z) + U(a, z)

    def h_act(hc, z):
        xi = hc @ X.h_basis
        return X.m_basis @ (X.g.ad(xi) @ (z @ X.m_basis))

    def riem(a, b, z):
        return lam(a, lam(b, z)) - lam(b, lam(a, z)) - lam(bra_m(a, b), z) - h_act(bra_h(a, b), z)

    num = float(riem(x, y, y) @ Q @ x)
    den = float((x @ Q @ x) * (y @ Q @ y) - (x @ Q @ y) ** 2)
    return num / den


def test_full_tensor_oracle_on_invariant_metric(sp2):
    # biinvariant case first: the oracle must reproduce |[x,y]|^2 / 4
    X = build_space(sp2, [])
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = rng.standard_normal((2, X.dim_m))
        k1 = _full_tensor_sectional(X, np.eye(X.dim_m), x, y)
        xy = np.einsum("ijk,i,j->k", X.m_bracket_tensor(), x, y)
        k2 = 0.25 * np.linalg.norm(xy) ** 2 / ((x @ x) * (y @ y) - (x @ y) ** 2)
        assert abs(k1 - k2) < 1e-12


@pytest.fixture(scope="module")
def coupled_sp2(sp2):
    # the circle with weights (3,1) leaves two planes rotating at the same
    # speed; an invariant metric coupling them produces a commuting flag of
    # genuinely positive curvature.
    from flagcurv.homspace import SubalgebraSpec

    X = build_space(sp2, [SubalgebraSpec.circle(3, 1)])
    Q = np.eye(X.dim_m)
    s22 = X.root_plane_slice((0, 2))[0]
    s11m = X.root_plane_slice((1, -1))[0]
    s20 = X.root_plane_slice((2, 0))[0]
    s11p = X.root_plane_slice((1, 1))[0]
    Q[s20 : s20 + 2, s20 : s20 + 2] *= 1.3
    Q[s11p : s11p + 2, s11p : s11p + 2] *= 0.9
    C = np.array([[0.25, -0.15], [0.15, 0.25]])
    Q[s22 : s22 + 2, s11m : s11m + 2] = C
    Q[s11m : s11m + 2, s22 : s22 + 2] = C.T
    F = make_norm("riemannian", {"q": Q}, X, seed=0)

    u = X.m_vector(root=(2, 0), xy=(0.9, 0.45))
    v = X.m_vector(root=(0, 2), xy=(0.2, -1.1))
    return X, Q, F, u, v


def test_nonflat_flag_matches_full_tensor_oracle(coupled_sp2):
    # expected value frozen from the oracle
    X, Q, F, u, v = coupled_sp2
    cert = flag_curvature(X, F, u, v)
    assert cert.verdict == "positive"
    assert cert.zero_residuals[0] < 1e-10  # the formula hypothesis holds
    assert cert.zero_residuals[1] > 1e-3  # but the flag is not flat
    k_oracle = _full_tensor_sectional(X, Q, u, v)
    assert abs(cert.curvature - k_oracle) < 1e-12
    assert abs(cert.curvature - 17.0 / 468.0) < 1e-12


def test_small_curvature_with_failing_residuals_is_inconclusive(coupled_sp2):
    # K = 17/468 lies below a zero-curvature tolerance of 1 while the
    # second flatness residual fails: neither flat nor positive is shown
    X, Q, F, u, v = coupled_sp2
    cert = flag_curvature(X, F, u, v, tolerances={"zero_curvature": 1.0})
    assert cert.zero_residuals[1] > 1e-3
    assert cert.verdict == "inconclusive"


def _ab_flag(X):
    F = make_norm("alpha_beta", {"phi": [1.0, 0.0, 0.35, 0.0, 0.06]}, X, seed=4)
    u = X.m_vector(root=(1, 0, -1, 0), xy=(0.6, 0.8))
    v = X.m_vector(root=(0, 1, 0, -1), xy=(0.3, -0.9)) + 0.4 * u
    return X, F, u, v


@pytest.mark.parametrize("kind", ["quartic", "alpha_beta"])
def test_flag_curvature_solve_matches_a_separate_factorisation(catalog3, su4_onecircle, kind):
    # flag_curvature solves with the factor of fundamental_tensor's positivity
    # check; u_tensor given the gram factors it again, as scipy's cho_factor does
    import scipy.linalg as sla

    X, F, u, v = catalog3 if kind == "quartic" else _ab_flag(su4_onecircle)
    cert = flag_curvature(X, F, u, v)
    assert cert.verdict != "preconditions_failed"
    un, vn = u / np.linalg.norm(u), v / np.linalg.norm(v)
    G = fundamental_tensor(F, un).gram
    U, res = u_tensor(X, F, un, vn, gram=G, return_residual=True)
    assert cert.u_vector.tobytes() == U.tobytes()
    assert cert.solve_residual == res
    U_own, res_own = u_tensor(X, F, un, vn, return_residual=True)
    assert U_own.tobytes() == U.tobytes() and res_own == res
    rhs = G @ U
    assert sla.cho_solve(sla.cho_factor(G), rhs).tobytes() == _solve_u(G, rhs)[0].tobytes()


def test_non_positive_definite_grams_are_rejected_with_their_messages(catalog3):
    Q = np.diag([1.0, -0.5, 1.0])
    with pytest.raises(NormValidationError, match="^norm not strongly convex at the given direction$"):
        fundamental_tensor(MinkowskiNorm("riemannian", 3, Q), np.array([1.0, 0.0, 0.0]))
    message = "^norm not strongly convex at u: Gram matrix is not positive definite$"
    with pytest.raises(ValueError, match=message):
        _solve_u(Q, np.ones(3))
    X, F, u, v = catalog3
    G = -np.eye(X.dim_m)
    with pytest.raises(ValueError, match=message):
        u_tensor(X, F, u, v, gram=G)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_u_tensor_rejects_a_non_finite_gram(catalog3, bad):
    X, F, u, v = catalog3
    G = fundamental_tensor(F, u / np.linalg.norm(u)).gram.copy()
    G[1, 2] = G[2, 1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
        u_tensor(X, F, u, v, gram=G)


def test_alpha_beta_comparison_repeats_on_one_norm(su4_onecircle):
    # the reference metric is cached on the norm; a second call must not drift
    X, F, u, v = _ab_flag(su4_onecircle)
    first = alpha_beta_comparison(X, F, u, v)
    assert alpha_beta_comparison(X, F, u, v) == first
    assert F.reference_riemannian() is F.reference_riemannian()
