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


def test_make_norm_rejects_a_quartic_form_that_is_not_positive(sp2_circle21):
    # F^4 < 0 in some directions: the scan's grams are not finite
    with pytest.raises(NormValidationError, match="quartic form not positive"):
        make_norm("quartic_perturbed", {"epsilon": -3.0}, sp2_circle21, seed=3)
    assert make_norm("quartic_perturbed", {"epsilon": -0.01}, sp2_circle21, seed=3).epsilon == -0.01


def _reference_argmin(grams):
    return int(np.argmin(np.linalg.eigvalsh(grams)[:, 0]))


def test_argmin_eigenvalue_matches_full_eigensolve_on_norm_grams(sp3_mixed, alpha_beta):
    from flagcurv.homspace import SubalgebraSpec, build_space
    from flagcurv.liealg import build_lie_algebra
    from flagcurv.minkowski import CONVEXITY_DIRECTIONS, _SCREEN_CHUNK, _argmin_eigenvalue, _unit_sphere

    so6 = build_space(build_lie_algebra("so", 6), [SubalgebraSpec.circle(1, 2, 0)])
    B = np.diag([1.0, -1.0, 1.0, -1.0])
    norms = [
        make_norm("quartic_perturbed", {}, so6, seed=0),
        make_norm("quartic_perturbed", {}, sp3_mixed, seed=0),
        alpha_beta,
        MinkowskiNorm("quartic_perturbed", 4, np.eye(4), quartic_terms=[(1.0, B)], epsilon=2.0),
    ]
    for F in norms:
        for seed in (0, 1):
            grams = F.gram_batch_closed(_unit_sphere(F.dim, CONVEXITY_DIRECTIONS, seed))
            # full stack, shorter than one chunk, not a multiple of the chunk
            for stack in (grams, grams[:50], grams[: 2 * _SCREEN_CHUNK + 37]):
                k = _argmin_eigenvalue(stack)
                assert k == _reference_argmin(stack)
                assert np.linalg.eigvalsh(stack[k])[0] == np.linalg.eigvalsh(stack)[k, 0]


def test_argmin_eigenvalue_ties_and_chunk_order():
    from flagcurv.minkowski import _SCREEN_CHUNK, _argmin_eigenvalue

    n = _SCREEN_CHUNK + 44
    rng = np.random.default_rng(4)
    filler = np.stack([np.diag([1.0 + 0.2 * r, 3.0, 3.0]) for r in rng.random(n)])
    rotated = np.array([[1.25, 0.75, 0.0], [0.75, 1.25, 0.0], [0.0, 0.0, 2.0]])
    low = np.diag([0.5, 2.0, 2.0])
    assert np.linalg.eigvalsh(rotated)[0] == np.linalg.eigvalsh(low)[0]

    # one matrix at two indices, in different chunks: every diagonal ties,
    # so the chunks follow the index order
    dup = np.stack([np.diag([1.25, 3.0, 3.0])] * n)
    dup[3] = dup[n - 5] = rotated
    # an exact tie whose higher index has the smaller diagonal, so the
    # higher index is visited first
    tie = filler.copy()
    tie[10], tie[n - 10] = rotated, low
    # the minimum has the largest diagonal and sits in the last chunk visited
    last = filler.copy()
    last[7] = 5.0 * np.ones((3, 3)) + 0.01 * np.eye(3)
    for stack, want in ((dup, 3), (tie, 10), (last, 7), (last[:40], 7)):
        assert _argmin_eigenvalue(stack) == want == _reference_argmin(stack)


def _random_quartic(rng, d, psd, epsilon):
    """A quartic norm whose forms do not commute: a random positive definite
    q and three random symmetric terms, positive semidefinite or indefinite."""
    A = rng.standard_normal((d, d))
    terms = []
    for _ in range(3):
        B = rng.standard_normal((d, d))
        terms.append((0.3 + rng.random(), B @ B.T / d if psd else B + B.T))
    return MinkowskiNorm("quartic_perturbed", d, A @ A.T / d + 0.5 * np.eye(d), quartic_terms=terms, epsilon=epsilon)


@pytest.fixture(scope="module")
def scan_norms(sp3_mixed, sp2_circle21):
    """Block-built, non-commuting, indefinite and negative-epsilon quartic
    norms, by label."""
    from flagcurv.homspace import SubalgebraSpec, build_space
    from flagcurv.liealg import build_lie_algebra

    so6 = build_space(build_lie_algebra("so", 6), [SubalgebraSpec.circle(1, 2, 0)])
    su6 = build_space(
        build_lie_algebra("su", 6), [SubalgebraSpec.block(1, 2, 3), SubalgebraSpec.circle(1, 1, 1, -1, -1, -1)]
    )
    B = np.diag([1.0, -1.0, 1.0, -1.0])
    rng = np.random.default_rng(21)
    norms = {
        "so6": make_norm("quartic_perturbed", {}, so6, seed=0),
        "sp3": make_norm("quartic_perturbed", {}, sp3_mixed, seed=1),
        "su6": make_norm("quartic_perturbed", {}, su6, seed=2),
        "indefinite 4x4": MinkowskiNorm("quartic_perturbed", 4, np.eye(4), quartic_terms=[(1.0, B)], epsilon=2.0),
        "indefinite 4x4, epsilon < 0": MinkowskiNorm(
            "quartic_perturbed", 4, np.eye(4), quartic_terms=[(1.0, B)], epsilon=-0.6
        ),
        "sp2, epsilon < 0": make_norm("quartic_perturbed", {"epsilon": -0.05}, sp2_circle21, seed=3),
    }
    for t in range(3):
        norms["random psd %d" % t] = _random_quartic(rng, 7, True, 0.2)
        norms["random indefinite %d" % t] = _random_quartic(rng, 7, False, 0.2)
    return norms


def _full_scan(F, seed=1):
    """The full-stack reference of _convexity_scan: every gram, one eigvalsh."""
    from flagcurv.minkowski import CONVEXITY_DIRECTIONS, _unit_sphere

    V = _unit_sphere(F.dim, CONVEXITY_DIRECTIONS, seed)
    low = np.linalg.eigvalsh(F.gram_batch_closed(V))[:, 0]
    k = int(np.argmin(low))
    return low[k], V[k]


def test_gram_bounds_hold_at_every_direction(scan_norms, alpha_beta):
    from flagcurv.minkowski import CONVEXITY_DIRECTIONS, _gram_bounds, _unit_sphere

    assert _gram_bounds(alpha_beta, _unit_sphere(alpha_beta.dim, 8, 0)) is None
    for label, F in scan_norms.items():
        V = _unit_sphere(F.dim, CONVEXITY_DIRECTIONS, 1)
        bounds = _gram_bounds(F, V)
        if bounds is None:
            # no bound without c_k >= 0
            assert F.epsilon < 0, label
            continue
        low, high = bounds
        ev = np.linalg.eigvalsh(F.gram_batch_closed(V))
        tol = 1e-12 * np.maximum(1.0, np.abs(ev[:, 0]))
        assert (low <= ev[:, 0] + tol).all(), label
        assert (np.abs(ev).max(axis=1) <= high + 1e-12 * high).all(), label
        if not label.startswith("random"):
            # commuting forms: the bound's off-diagonal terms are rounding
            assert F._diagonal_split[1].max() < 1e-12, label


def test_screened_scan_matches_full_stack(scan_norms, alpha_beta):
    from flagcurv.minkowski import _convexity_scan

    for label, F in list(scan_norms.items()) + [("alpha_beta", alpha_beta)]:
        for seed in (1, 5):
            value, direction = _convexity_scan(F, seed=seed)
            ref_value, ref_direction = _full_scan(F, seed)
            assert np.array_equal(direction, ref_direction), label
            if F.kind == "alpha_beta" or F.epsilon < 0:
                # no bound: the one-batch path of the full scan
                assert value == ref_value, label
            else:
                assert abs(value - ref_value) <= 1e-14 * abs(ref_value), label


def test_screened_scan_forms_few_grams_on_catalog_norms(monkeypatch):
    from flagcurv.flatfinder import construct_example_flat
    from flagcurv.minkowski import _SCREEN_CHUNK, _convexity_scan

    formed = []
    closed = MinkowskiNorm.gram_batch_closed

    def counted(self, V):
        formed.append(len(V))
        return closed(self, V)

    monkeypatch.setattr(MinkowskiNorm, "gram_batch_closed", counted)
    for k in range(1, 6):
        for flag in construct_example_flat(k).flags:
            formed.clear()
            direction = _convexity_scan(flag.norm)[1]
            assert 0 < sum(formed) <= 2 * _SCREEN_CHUNK, (k, formed)
            assert np.array_equal(direction, _full_scan(flag.norm)[1])


def test_not_positive_quartic_names_the_full_scans_direction(sp2_circle21, monkeypatch):
    from flagcurv import minkowski
    from flagcurv.minkowski import CONVEXITY_DIRECTIONS, _convexity_scan, _unit_sphere

    def first_non_finite(F, seed):
        V = _unit_sphere(F.dim, CONVEXITY_DIRECTIONS, seed)
        with np.errstate(invalid="ignore", divide="ignore"):
            ok = np.isfinite(F.gram_batch_closed(V)).all(axis=(1, 2))
        assert not ok.all()
        return str(np.round(V[np.argmin(ok)], 4).tolist())

    scanned = []

    def recorded(F, **kwargs):
        scanned.append((F, kwargs["seed"]))
        return _convexity_scan(F, **kwargs)

    monkeypatch.setattr(minkowski, "_convexity_scan", recorded)
    with pytest.raises(NormValidationError, match="quartic form not positive") as err:
        make_norm("quartic_perturbed", {"epsilon": -3.0}, sp2_circle21, seed=3)
    assert first_non_finite(*scanned[-1]) in str(err.value)
    # F^4 = 0 everywhere, caught by the bound's check before any gram
    Z = MinkowskiNorm("quartic_perturbed", 3, np.zeros((3, 3)), quartic_terms=[], epsilon=0.1)
    with pytest.raises(NormValidationError, match="quartic form not positive") as err:
        _convexity_scan(Z, seed=2)
    assert first_non_finite(Z, 2) in str(err.value)


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


def _fresh(F):
    """The same norm as a new object, with nothing cached."""
    return MinkowskiNorm(F.kind, F.dim, F.q, v0=F.v0, phi=F.phi, meta=dict(F.meta))


def test_reference_metric_cache_does_not_leak_across_transform(alpha_beta):
    F = alpha_beta
    q_before = F.reference_riemannian().q.copy()
    S = np.eye(F.dim) + 0.1 * np.random.default_rng(5).standard_normal((F.dim, F.dim))
    Ft = F.transform(S)
    assert np.array_equal(Ft.reference_riemannian().q, _fresh(Ft).reference_riemannian().q)
    assert not np.array_equal(Ft.reference_riemannian().q, q_before)
    assert np.array_equal(F.reference_riemannian().q, q_before)


def test_cached_phi_derivatives_are_polyder(alpha_beta):
    p = np.polynomial.polynomial
    c, dc, ddc = alpha_beta._phi_coefficients
    assert np.array_equal(c, alpha_beta.phi)
    assert np.array_equal(dc, p.polyder(alpha_beta.phi))
    assert np.array_equal(ddc, p.polyder(alpha_beta.phi, 2))
    # and the closed gram through them is the one a fresh norm computes
    V = np.random.default_rng(6).standard_normal((5, alpha_beta.dim))
    assert np.array_equal(alpha_beta.gram_batch_closed(V), _fresh(alpha_beta).gram_batch_closed(V))
