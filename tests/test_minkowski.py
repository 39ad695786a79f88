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
    assert rep["convexity_lower_bound"] == quartic.meta["convexity_lower_bound"] > 0
    assert "convexity_min_eigenvalue" not in rep and "min_gram_eigenvalue" not in rep


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


def test_non_invariant_quartic_term_and_unfixed_v0_are_flagged(sp2_circle21, su4_onecircle, quartic):
    X = sp2_circle21
    B = np.eye(X.dim_m)
    B[1, 2] = B[2, 1] = 0.4  # the coupling of the quadratic test above
    for terms, flagged in (([(1.0, np.eye(X.dim_m))], False), ([(1.0, B)], True)):
        F = MinkowskiNorm("quartic_perturbed", X.dim_m, quartic.q, quartic_terms=terms, epsilon=0.1)
        res = check_norm_properties(F, X, samples=50, seed=0)["invariance_residual"]
        assert res > 1e-3 if flagged else res < 1e-12
    built = make_norm("alpha_beta", {}, su4_onecircle, seed=2)
    v0 = np.zeros(su4_onecircle.dim_m)
    v0[-1] = 0.5  # a root-plane direction, rotated by the isotropy
    for vec, flagged in ((built.v0, False), (v0, True)):
        F = MinkowskiNorm("alpha_beta", built.dim, built.q, v0=vec, phi=built.phi)
        rep = check_norm_properties(F, su4_onecircle, samples=50, seed=0)
        assert rep["invariance_residual"] > 1e-3 if flagged else rep["invariance_residual"] < 1e-12
        assert rep["convexity_lower_bound"] > 0


def test_properties_report_neither_samples_isotropy_nor_scans_a_proven_norm(
    sp2_circle21, su4_onecircle, monkeypatch
):
    from flagcurv.homspace import HomogeneousSpace
    import scipy.linalg

    norms = [
        make_norm("riemannian", {}, sp2_circle21, seed=1),
        make_norm("alpha_beta", {}, su4_onecircle, seed=2),
        make_norm("quartic_perturbed", {"epsilon": 0.1}, sp2_circle21, seed=3),
    ]
    sampled = make_norm("quartic_perturbed", {"epsilon": -0.05}, sp2_circle21, seed=3)

    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(HomogeneousSpace, "sample_isotropy", forbidden)
    monkeypatch.setattr(scipy.linalg, "expm", forbidden)
    rep = check_norm_properties(sampled, sp2_circle21, samples=60, seed=3)
    assert rep["convexity_min_eigenvalue"] == sampled.meta["convexity_min_eigenvalue"]
    assert "convexity_lower_bound" not in rep
    monkeypatch.setattr(MinkowskiNorm, "gram_batch_closed", forbidden)
    for F, X in zip(norms, (sp2_circle21, su4_onecircle, sp2_circle21)):
        rep = check_norm_properties(F, X, samples=60, seed=0)
        assert rep["convexity_lower_bound"] == F.meta["convexity_lower_bound"], F.kind
        assert rep["invariance_residual"] < 1e-12, F.kind
        assert rep["homogeneity_residual"] < 1e-12 and rep["reversibility_residual"] < 1e-12


def test_transform_drops_the_convexity_key(sp2_circle21, quartic):
    F = make_norm("riemannian", {}, sp2_circle21, seed=1)
    for scale in (2.0, 0.5):
        S = np.diag([scale] + [1.0] * (F.dim - 1))
        for norm in (F, quartic):
            Ft = norm.transform(S)
            assert not {"convexity_lower_bound", "convexity_min_eigenvalue"} & Ft.meta.keys()
            assert Ft.meta["invariant_blocks"] == norm.meta["invariant_blocks"]
        # the report gives the pulled-back norm its own margin, which
        # S = diag(0.5, 1, ...) takes below the copied label
        rep = check_norm_properties(F.transform(S), sp2_circle21, samples=20, seed=0)
        assert rep["convexity_lower_bound"] == np.linalg.eigvalsh(S @ F.q @ S)[0]
    assert rep["convexity_lower_bound"] < F.meta["convexity_lower_bound"]


def test_properties_report_reads_a_proven_bound_and_rescans_the_rest(sp2_circle21, quartic, monkeypatch):
    from flagcurv import minkowski
    from flagcurv.minkowski import _convexity_scan

    sampled = make_norm("quartic_perturbed", {"epsilon": -0.05}, sp2_circle21, seed=3)
    scanned = []

    def recorded(F, **kwargs):
        scanned.append(F)
        return _convexity_scan(F, **kwargs)

    monkeypatch.setattr(minkowski, "_convexity_scan", recorded)
    rep = check_norm_properties(quartic, sp2_circle21, samples=20, seed=5)
    assert scanned == [] and rep["convexity_lower_bound"] == quartic.meta["convexity_lower_bound"]
    # a pulled-back norm carries no bound, and the sampled key depends on the seed
    Ft = quartic.transform(np.diag([0.5] + [1.0] * (quartic.dim - 1)))
    rep = check_norm_properties(Ft, sp2_circle21, samples=20, seed=5)
    assert len(scanned) == 1 and scanned[0] is Ft
    assert rep["convexity_lower_bound"] == _convexity_scan(Ft)[0]
    check_norm_properties(sampled, sp2_circle21, samples=20, seed=5)
    assert len(scanned) == 2 and scanned[1] is sampled


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
    # the default strength is certified as it is: nothing is halved
    F = make_norm("quartic_perturbed", {}, sp2_circle21, seed=3)
    assert F.epsilon == 0.1
    assert "epsilon_halvings" not in F.meta
    assert F.meta["convexity_lower_bound"] > 0
    assert "convexity_min_eigenvalue" not in F.meta


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


@pytest.fixture(scope="module")
def fuzz_profiles(su4_onecircle):
    """Randomized alpha_beta profiles, each with three random poles."""
    rng = np.random.default_rng(99)
    out = []
    for trial in range(6):
        phi = [1.0, 0.0, 0.2 + 0.3 * rng.random(), 0.0, 0.1 * rng.random(), 0.0, 0.02 * rng.random()]
        params = {"phi": phi, "v0_scale": 0.4 + 0.4 * rng.random()}
        F = make_norm("alpha_beta", params, su4_onecircle, seed=100 + trial)
        out.append((F, [rng.standard_normal(F.dim) for _ in range(3)]))
    return out


def _has_bound(label):
    return "indefinite" not in label and "epsilon < 0" not in label


def test_gram_bounds_hold_at_every_direction(scan_norms, fuzz_profiles):
    from flagcurv.minkowski import CONVEXITY_DIRECTIONS, _convexity_scan, _unit_sphere

    # forms positive semidefinite up to mu = -0.9e-12 |M|: at e_1 the gram's
    # smallest eigenvalue is (1 - 9e-11) / sqrt(101), which the bound meets
    # only with its |min(mu_k, 0)| term
    near = MinkowskiNorm("quartic_perturbed", 2, np.eye(2), quartic_terms=[(1.0, np.diag([10.0, -9e-12]))], epsilon=1.0)
    norms = dict(scan_norms, near_psd=near)
    norms.update(("alpha_beta %d" % t, F) for t, (F, _) in enumerate(fuzz_profiles))
    for label, F in norms.items():
        value, direction = _convexity_scan(F)
        if not _has_bound(label):
            # no bound for c_k < 0 or an indefinite form: a sampled direction
            assert direction is not None, label
            continue
        assert direction is None and value > 0, label
        V = np.vstack([_unit_sphere(F.dim, CONVEXITY_DIRECTIONS, 1), np.eye(F.dim)])
        low = np.linalg.eigvalsh(F.gram_batch_closed(V))[:, 0]
        assert (value <= low + 1e-13 * np.maximum(1.0, np.abs(low))).all(), label


def test_fallback_scan_is_the_full_scan(scan_norms):
    from flagcurv.minkowski import _convexity_scan

    for label, F in scan_norms.items():
        if _has_bound(label):
            continue
        for seed in (1, 5):
            value, direction = _convexity_scan(F, seed=seed)
            ref_value, ref_direction = _full_scan(F, seed)
            assert value == ref_value, label
            assert np.array_equal(direction, ref_direction), label


def test_convexity_scan_forms_no_grams_on_catalog_norms(monkeypatch):
    from flagcurv.flatfinder import construct_example_flat
    from flagcurv.minkowski import _convexity_scan

    formed = []
    closed = MinkowskiNorm.gram_batch_closed

    def counted(self, V):
        formed.append(len(V))
        return closed(self, V)

    monkeypatch.setattr(MinkowskiNorm, "gram_batch_closed", counted)
    for k in range(1, 6):
        for flag in construct_example_flat(k).flags:
            formed.clear()
            value, direction = _convexity_scan(flag.norm)
            assert formed == [] and direction is None, k
            assert 0 < value <= _full_scan(flag.norm)[0], k


def test_extrema_are_exact_off_any_grid():
    from flagcurv.minkowski import _extrema

    P = np.polynomial.Polynomial
    a = 0.123456789
    # a minimum between any sample points, and one at a triple root of the
    # derivative, which rounding splits into a complex triple
    for p in (P([-a, 1.0]) ** 2, P([-a, 1.0]) ** 4):
        low, high = _extrema(p, 1.0)
        assert abs(low) < 1e-15
        assert high == p(-1.0)
    # constant, trailing zero coefficients, an interval of one point
    assert _extrema(P([2.0]), 0.5) == (2.0, 2.0)
    assert _extrema(P([1.0, 0.0, 0.0]), 0.5) == (1.0, 1.0)
    assert _extrema(P([1.0, 0.0, -3.0]), 0.0) == (1.0, 1.0)


@pytest.mark.parametrize("k,convex", [(1.38, True), (1.40, False)])
def test_alpha_beta_convexity_edge(su4_onecircle, k, convex):
    # phi = 1 - k s^2 with b = 0.6: phi - s phi' + (b^2 - s^2) phi'' is
    # 1 + 3 k s^2 - 2 k b^2, positive on |s| <= b iff k < 1 / (2 b^2) = 1.3889
    params = {"phi": [1.0, 0.0, -k], "v0_scale": 0.6}
    ref = make_norm("alpha_beta", dict(params, phi=[1.0]), su4_onecircle, seed=2)
    F = MinkowskiNorm("alpha_beta", ref.dim, ref.q, v0=ref.v0, phi=np.array(params["phi"]))
    if convex:
        built = make_norm("alpha_beta", params, su4_onecircle, seed=2)
        assert np.array_equal(built.v0, ref.v0)
        assert 0 < built.meta["convexity_lower_bound"] <= _full_scan(F)[0]
    else:
        with pytest.raises(NormValidationError, match=r"convexity check fails \(phi\^3"):
            make_norm("alpha_beta", params, su4_onecircle, seed=2)
        # the full scan agrees
        assert _full_scan(F)[0] <= 0


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
    # F^4 = 0 everywhere: q is not positive definite, so no bound applies
    # and the scan's grams are not finite
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


def test_alpha_beta_closed_hessian_fuzz(fuzz_profiles):
    # randomized profiles and poles, closed form against finite differences
    for F, poles in fuzz_profiles:
        for u in poles:
            u = u / np.linalg.norm(u)
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
