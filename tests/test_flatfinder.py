import numpy as np
import pytest

from flagcurv.homspace import build_space, SubalgebraSpec
from flagcurv.liealg import build_lie_algebra, _orthonormal_rows, _quat_to_real
from flagcurv.minkowski import check_norm_properties, make_norm
from flagcurv.curvature import _flatness_vectors, flag_curvature
from flagcurv import numdiff
from flagcurv import flatfinder
from flagcurv.flatfinder import (
    ExampleParameterError,
    _descend_pole,
    _extremal_pole,
    _flag_key,
    _flatness_score,
    _plane_rows,
    _score_gradient,
    _stack_rows,
    _tm_rows,
    construct_example_flat,
    example1_speed_separation,
    extremal_unit_vector,
    generic_flat_search,
    verify_closure_claims,
)

S = SubalgebraSpec


@pytest.fixture(scope="module")
def ex1():
    return construct_example_flat(1, {"p": 2, "q": 1})


@pytest.fixture(scope="module")
def ex2():
    return construct_example_flat(2)


@pytest.fixture(scope="module")
def ex3():
    return construct_example_flat(3, {"p": 2, "q": 1})


@pytest.fixture(scope="module")
def ex4():
    return construct_example_flat(4)


@pytest.fixture(scope="module")
def ex5():
    return construct_example_flat(5)


@pytest.mark.parametrize("fixture", ["ex1", "ex2", "ex3", "ex4", "ex5"])
def test_catalog_flags_certify_flat(fixture, request):
    ex = request.getfixturevalue(fixture)
    for flag in ex.flags:
        cert = flag_curvature(ex.space, flag.norm, flag.u, flag.v)
        assert cert.verdict == "zero_flag"
        assert abs(cert.curvature) < 1e-7
        assert max(cert.zero_residuals) < 1e-8


@pytest.mark.parametrize("fixture", ["ex1", "ex2", "ex3", "ex4", "ex5"])
def test_certificates_reverify_with_halved_step(fixture, request):
    ex = request.getfixturevalue(fixture)
    flag = ex.flags[0]
    cert = flag_curvature(
        ex.space, flag.norm, flag.u, flag.v, gram_step=numdiff.DEFAULT_STEP / 2
    )
    assert cert.verdict == "zero_flag"
    assert abs(cert.curvature) < 1e-6


@pytest.mark.parametrize("fixture", ["ex1", "ex2", "ex5"])
def test_closure_claims_pass(fixture, request):
    ex = request.getfixturevalue(fixture)
    report = verify_closure_claims(ex)
    assert report, "constructions with an auxiliary subspace must carry claims"
    for entry in report:
        assert entry["passes"], entry


def test_closure_negative_control(ex1):
    # m' rebuilt from its pieces passes both claims: the v claim keeps its
    # [t, v] line, which lies outside the stored m'.  Without the m2 plane
    # (1,0,0,-1) or (0,0,1,-1), m' stops closing under [u, .]_m; [u, .]
    # takes the plane (0,1,-1,0) into h + m' without it, so dropping that
    # one keeps the u claim
    X = ex1.space
    tu = flatfinder._t_bracket_line(X, ex1.flags[0].u)
    m2 = [(1, 0, 0, -1), (0, 1, -1, 0), (0, 0, 1, -1)]
    full = verify_closure_claims(ex1, m_prime=_stack_rows(_tm_rows(X), tu, *[_plane_rows(X, r) for r in m2]))
    assert [e["vector"] for e in full] == ["u", "v"]
    assert all(e["passes"] for e in full)
    for dropped, closed in ((m2[0], False), (m2[1], True), (m2[2], False)):
        rows = _stack_rows(_tm_rows(X), tu, *[_plane_rows(X, r) for r in m2 if r != dropped])
        u_claim = [e for e in verify_closure_claims(ex1, m_prime=rows) if e["vector"] == "u"][0]
        assert u_claim["passes"] is closed
        assert closed or u_claim["residual"] > 0.5


def test_closure_products_match_the_per_row_brackets(ex1):
    # the batched [t, u] line and closure residual against one bracket per
    # row: they sum in another order, so they agree to rounding
    X = ex1.space
    rng = np.random.default_rng(6)
    u = rng.standard_normal(X.dim_m)
    rows = np.stack([X.project_m(X.g.bracket(t, X.lift(u))) for t in X.g.root_datum().cartan])
    tu, ref = flatfinder._t_bracket_line(X, u), _orthonormal_rows(rows, tol=1e-9)
    assert tu.shape == ref.shape
    assert np.abs(tu.T @ tu - ref.T @ ref).max() < 1e-12
    domain, target = rng.standard_normal((5, X.dim_m)), rng.standard_normal((4, X.dim_m))
    T = _orthonormal_rows(target)
    x = u / np.linalg.norm(u)
    brackets = (X.g.ad(X.lift(x)) @ X.lift(domain).T).T @ X.m_basis.T  # [x, w]_m per domain row
    worst = max(np.linalg.norm(b - T.T @ (T @ b)) for b in brackets)
    assert worst > 0.1
    assert abs(flatfinder.bracket_closure_residual(X, u, domain, target) - worst) < 1e-12 * worst


def test_narrow_target_for_the_second_vector_fails(ex2):
    # the tempting smaller closure target for v omits the rotation line;
    # the verifier records that residual alongside the correct claim
    report = verify_closure_claims(ex2)
    v_claim = [e for e in report if e["vector"] == "v"][0]
    assert v_claim["passes"]
    assert v_claim["narrow_residual"] > 1e-3
    assert "note" in v_claim


def test_example1_parameter_validation():
    for bad in ({"p": 2, "q": 2}, {"p": 1, "q": 2}, {"p": 0, "q": -1}):
        with pytest.raises(ExampleParameterError):
            construct_example_flat(1, bad)
    for excluded in ((1, 0), (1, 1), (3, -1)):
        with pytest.raises(ExampleParameterError, match="excludes"):
            construct_example_flat(1, {"p": excluded[0], "q": excluded[1]})
    # (1,-1) already violates the sign constraint
    with pytest.raises(ExampleParameterError):
        construct_example_flat(1, {"p": 1, "q": -1})


def test_example3_parameter_validation():
    with pytest.raises(ExampleParameterError):
        construct_example_flat(3, {"p": 4, "q": 2})
    with pytest.raises(ExampleParameterError):
        construct_example_flat(3, {"p": 1, "q": 2})
    with pytest.raises(ExampleParameterError, match="excludes"):
        construct_example_flat(3, {"p": 3, "q": 1})
    with pytest.raises(ExampleParameterError):
        construct_example_flat(7)


def test_example1_speed_separation_diagnostic():
    assert example1_speed_separation(2, 1)["separated"]
    # at (1,1) the distinguished summand shares its speed with the rest
    diag = example1_speed_separation(1, 1)
    assert not diag["separated"]
    assert diag["speeds"]["plane_summand"] in diag["speeds"]["rest"]


def test_example4_auxiliary_action(ex4):
    for flag in ex4.flags:
        assert flag.aux["pole_reversal_residual"] < 1e-12
        assert flag.aux["gram_preservation_residual"] < 1e-8
    assert ex4.flags[0].aux["speeds"] == [1, 7, 6, 2, 3, 5, 4, 2]


def test_example5_block_action(ex5):
    eigs = ex5.flags[0].aux["block_rotation_eigenvalues"]
    # complex in every block, though rounding leaves the m0 eigenvalues
    # real, so the report's JSON type does not depend on the last bits
    assert all(type(z) is complex for block in eigs.values() for z in block)
    m0, m1, m2 = (np.asarray(eigs[name]) for name in ("m0", "m1", "m2"))
    assert np.abs(m0 - 1.0).max() < 1e-9
    assert np.abs(m1 + 1.0).max() < 1e-9
    target = np.exp(1j * np.pi / 3)
    for z in m2:
        assert min(abs(z - target), abs(z - target.conjugate())) < 1e-9
    assert ex5.notes["decomposition_dims"] == [3, 4, 4]


def test_extremal_stationarity(ex2):
    for flag in ex2.flags:
        assert flag.aux["extremal"]["stationarity"] < 1e-8
        assert flag.aux["alignment_residual"] < 1e-10


def test_construction2_newton_reaches_the_seed0_maxima(ex2):
    # the seed-0 maxima of |u|^2 on the F-unit sphere of m1, one per norm;
    # the best of 200 000 sampled directions comes within 1.2e-6 below each
    maxima = (1.1010535566062956, 0.7914870923163085, 0.8897214703545714)
    for flag, value in zip(ex2.flags, maxima):
        ext = flag.aux["extremal"]
        assert ext["iterations"] <= 25
        assert abs(ext["bi_norm_sq"] - value) < 1e-12
        assert ext["stationarity"] <= 1e-6


def test_shared_catalog_space_is_read_only():
    # the space of construction 1 at (p, q) = (1, 0) is shared by every later
    # call at that (p, q); no array of it, cached or not, can be written
    X = construct_example_flat(1).space
    assert construct_example_flat(1, seed=3).space is X
    g = X.g
    datum = g.root_datum()
    arrays = (X.m_basis, X.h_basis, X.t_h, X.m_bracket_tensor(), X.isotropy_ad(),
              X._cache["commutant"], g.basis, g.structure_constants,
              g.bi_form, datum.cartan, datum.roots, datum.planes)
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    # a space built directly stays the caller's own
    Y = build_space(build_lie_algebra("su", 4), [S.block(1, 2), S.circle(1, 1, -2, 0)])
    Y.m_basis[0, 0] = Y.m_basis[0, 0]


@pytest.fixture(scope="module")
def ex2_pole_data(su4_weighted):
    # construction 2's space, one of its norms, m0, m1 and its target axis
    X = su4_weighted
    F = make_norm("quartic_perturbed", {"epsilon": 0.1}, X, seed=1)
    m0 = _stack_rows(_tm_rows(X), _plane_rows(X, (0, 0, 1, -1)))
    m1 = np.vstack([_plane_rows(X, (1, 0, -1, 0)), _plane_rows(X, (1, 0, 0, -1))])
    return X, F, m0, m1, X.m_vector(root=(1, 0, -1, 0), xy=(1.0, 0.0))


def _sampled_max_bi_norm_sq(F, subspace, count=20000, seed=3):
    C = np.random.default_rng(seed).standard_normal((count, subspace.shape[0]))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    return float((1.0 / F.value_many(C @ subspace) ** 2).max())


def test_extremal_beats_sampled_directions(ex2_pole_data, so6_circle):
    # an ascent stopped at a saddle or a lower maximum would lose to the
    # best of the sampled unit directions.  On all of m for the seed-1 norm
    # of so(6)/S1(1,2,0), Newton without the sign flip of the Hessian goes
    # from the best samples of seeds 0, 1 and 3 to a saddle at
    # |u|^2 = 0.8976, 0.057 below the maximum
    _, F, _, m1, _ = ex2_pole_data
    X6, F6 = so6_circle
    F6_1 = make_norm("quartic_perturbed", {"epsilon": 0.1}, X6, seed=1)
    m6 = np.eye(X6.dim_m)
    for norm, sub, seeds in ((F, m1, (0,)), (F6, m6, (0,)), (F6_1, m6, (0, 1, 3))):
        best = _sampled_max_bi_norm_sq(norm, sub)
        for seed in seeds:
            _, info = extremal_unit_vector(norm, sub, seed=seed)
            assert info["stationarity"] < 1e-8
            assert info["bi_norm_sq"] >= best - 1e-12


def test_catalog_poles_beat_sampled_directions(monkeypatch):
    # every pole of constructions 2 and 5 at seeds 0-3 is a stationary
    # maximum at least as large as the best of 20 000 unit directions of m1
    calls = []

    def recording(F, subspace, seed=0):
        u, info = extremal_unit_vector(F, subspace, seed=seed)
        calls.append((F, subspace, info))
        return u, info

    monkeypatch.setattr(flatfinder, "extremal_unit_vector", recording)
    for example_id in (2, 5):
        for seed in range(4):
            construct_example_flat(example_id, seed=seed)
    assert len(calls) == 24
    for F, m1, info in calls:
        assert info["stationarity"] < 1e-8
        assert info["bi_norm_sq"] >= _sampled_max_bi_norm_sq(F, m1) - 1e-12


def test_metric_check_does_not_depend_on_the_extremal_seed(monkeypatch):
    # the seed moves the unrotated pole along its maximizing orbit, and so
    # the pulled-back norm by an isometry fixing the pole; every key of the
    # report is a function of that isometry class
    recorded = []

    def recording(*args):
        recorded.append(args)
        return _extremal_pole(*args)

    monkeypatch.setattr(flatfinder, "_extremal_pole", recording)
    for example_id in (2, 5):
        recorded.clear()
        construct_example_flat(example_id, epsilons=(0.05,), seed=0)
        X, F, m0, m1, axis, _ = recorded[0]
        reports = [
            check_norm_properties(_extremal_pole(X, F, m0, m1, axis, seed)[1], X, samples=128, seed=0)
            for seed in range(4)
        ]
        assert reports[0]["convexity_lower_bound"] > 0, example_id
        assert reports[0]["invariance_residual"] < 1e-12, example_id
        for rep in reports[1:]:
            assert rep.keys() == reports[0].keys()
            for key, value in rep.items():
                assert abs(value - reports[0][key]) <= 1e-12, (example_id, key)


@pytest.mark.parametrize("fixture,root", [("ex2", (1, 0, -1, 0)), ("ex5", (0, 1))])
def test_extremal_pole_is_on_the_positive_target_axis(fixture, root, request):
    ex = request.getfixturevalue(fixture)
    axis = ex.space.m_vector(root=root, xy=(1.0, 0.0))
    for flag in ex.flags:
        bi = flag.aux["extremal"]["bi_norm_sq"]
        assert np.abs(flag.u - np.sqrt(bi) * axis).max() < 1e-12
        assert abs(flag.norm.value(flag.u) - 1.0) < 1e-12


def test_extremal_pole_does_not_depend_on_the_seed(ex2_pole_data):
    X, F, m0, m1, axis = ex2_pole_data
    u0, _, aux0 = _extremal_pole(X, F, m0, m1, axis, seed=0)
    u1, _, aux1 = _extremal_pole(X, F, m0, m1, axis, seed=5)
    assert np.abs(u0 - u1).max() < 1e-12
    assert abs(aux0["extremal"]["bi_norm_sq"] - aux1["extremal"]["bi_norm_sq"]) < 1e-12


def test_flag_key_ignores_stray_components_and_sign():
    # an entry below the 7-decimal rounding must not pick the sign: one
    # line gets one key, so the search's de-duplication keeps it once
    u = np.zeros(6)
    u[4] = -1.0
    stray = u.copy()
    stray[0] = 1e-8
    v = np.array([0.0, 0.6, 0.0, -0.8, 0.0, 0.0])
    keys = {_flag_key(a, b) for a in (u, -u, stray, -stray) for b in (v, -v)}
    assert len(keys) == 1


def test_extremal_on_one_dimensional_subspace(sp2_circle21):
    F = make_norm("quartic_perturbed", {"epsilon": 0.1}, sp2_circle21, seed=1)
    sub = np.zeros((1, sp2_circle21.dim_m))
    sub[0, 0] = 1.0
    u, info = extremal_unit_vector(F, sub, seed=0)
    assert abs(F.value(u) - 1.0) < 1e-12
    assert info["stationarity"] < 1e-10


def test_extremal_isotropic_restriction(sp2_circle21):
    # restricted to a single root plane every quartic norm here is round,
    # so every unit vector is stationary
    F = make_norm("quartic_perturbed", {"epsilon": 0.1}, sp2_circle21, seed=1)
    sl = sp2_circle21.root_plane_slice((2, 0))
    sub = np.zeros((2, sp2_circle21.dim_m))
    sub[0, sl[0]] = 1.0
    sub[1, sl[0] + 1] = 1.0
    u, info = extremal_unit_vector(F, sub, seed=4)
    assert info["stationarity"] < 1e-10


def test_search_finds_the_catalog3_orbit(sp2_circle21):
    F = make_norm("quartic_perturbed", {"epsilon": 0.1}, sp2_circle21, seed=3)
    assert generic_flat_search(sp2_circle21, F, budget=0, seed=0) == []
    certs = generic_flat_search(sp2_circle21, F, budget=60, seed=0)
    flats = [c for c in certs if c.verdict == "zero_flag"]
    assert len(flats) >= 1
    # the certified flags live on the distinguished pair of planes
    for cert in flats:
        cert2 = flag_curvature(sp2_circle21, F, cert.u, cert.v)
        assert cert2.verdict == "zero_flag"


def test_search_determinism(sp2_circle21):
    F = make_norm("quartic_perturbed", {"epsilon": 0.1}, sp2_circle21, seed=3)
    a = generic_flat_search(sp2_circle21, F, budget=40, seed=7)
    b = generic_flat_search(sp2_circle21, F, budget=40, seed=7)
    assert len(a) == len(b)
    for c1, c2 in zip(a, b):
        assert np.allclose(c1.u, c2.u) and np.allclose(c1.v, c2.v)
        assert c1.verdict == c2.verdict


def test_search_empty_when_no_commuting_pairs():
    g = build_lie_algebra("su", 2)
    X = build_space(g, [])
    F = make_norm("riemannian", {}, X, seed=0)
    certs = generic_flat_search(X, F, budget=20, seed=1)
    assert [c for c in certs if c.verdict == "zero_flag"] == []


def _u2_in_sp2(sp2):
    # u(2) inside sp(2): complex entries among the quaternions
    zero = np.zeros((2, 2), dtype=complex)
    mats = []
    for (i, j, val) in ((0, 0, 1j), (1, 1, 1j)):
        A = zero.copy()
        A[i, j] = val
        mats.append(_quat_to_real(A, zero))
    A = zero.copy(); A[0, 1] = 1.0; A[1, 0] = -1.0
    mats.append(_quat_to_real(A, zero))
    A = zero.copy(); A[0, 1] = 1j; A[1, 0] = 1j
    mats.append(_quat_to_real(A, zero))
    return build_space(sp2, [S.explicit(mats)])


def test_search_on_symmetric_space(sp2):
    X = _u2_in_sp2(sp2)
    assert X.dim_m == 6
    F = make_norm("riemannian", {"q": np.eye(X.dim_m)}, X, seed=0)
    certs = generic_flat_search(X, F, budget=15, seed=2)
    assert any(c.verdict == "zero_flag" for c in certs)


@pytest.mark.parametrize(
    "example_id,params",
    [(1, {"p": 3, "q": 2}), (1, {"p": 2, "q": -1}), (3, {"p": 4, "q": 1}), (3, {"p": 5, "q": 2})],
)
def test_catalog_certifies_across_parameters(example_id, params):
    ex = construct_example_flat(example_id, params, epsilons=(0.1,), seed=11, u_angle=1.1, v_angle=-2.0)
    flag = ex.flags[0]
    cert = flag_curvature(ex.space, flag.norm, flag.u, flag.v)
    assert cert.verdict == "zero_flag"
    assert max(cert.zero_residuals) < 1e-8


@pytest.fixture(scope="module")
def so6_circle():
    X = build_space(build_lie_algebra("so", 6), [S.circle(1, 2, 0)])
    return X, make_norm("quartic_perturbed", {"epsilon": 0.1}, X, seed=0)


def test_flatness_score_is_attained_by_its_v(so6_circle):
    X, F = so6_circle
    axes = [X.m_vector(root=root, xy=(1.0, 0.0)) for root in sorted(X.plane_slices)]
    assert len(axes) == 6
    U = np.vstack([axes, np.random.default_rng(5).standard_normal((20, X.dim_m))])
    U /= F.value_many(U)[:, None]
    for u in U:
        score, v, _ = _flatness_score(X, F, u)
        assert v is not None
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert abs(v @ u) < 1e-9 * np.linalg.norm(u)
        assert np.linalg.norm(X.g.ad(X.lift(u)) @ X.lift(v)) < 1e-9
        # v attains the score: the flatness residual of (u/|u|, v)
        uh = u / np.linalg.norm(u)
        res = sum(float(r @ r) for r in _flatness_vectors(X, F.gram(uh, method="closed"), uh, v))
        assert abs(res - score) <= 1e-10 * max(1.0, abs(score))

    X2 = build_space(build_lie_algebra("su", 2), [])
    F2 = make_norm("riemannian", {}, X2, seed=0)
    for u in np.random.default_rng(1).standard_normal((5, X2.dim_m)):
        score, v, parts = _flatness_score(X2, F2, u)
        assert np.isinf(score) and v is None and parts is None


def test_search_verdicts_on_so6_circle_are_pinned(so6_circle):
    X, F = so6_circle
    for seed in (0, 1, 2):
        certs = generic_flat_search(X, F, budget=12, seed=seed)
        assert [c.verdict for c in certs] == [
            "zero_flag", "zero_flag", "positive", "preconditions_failed", "preconditions_failed",
        ]
        assert sum(c.verdict == "zero_flag" for c in certs) == 2


def _gradient(X, F, u):
    score, v, parts = _flatness_score(X, F, u)
    return _score_gradient(X, F, u, v, parts)


def _central_gradient(X, F, u, h=1e-6):
    d = len(u)
    P = np.concatenate([u + h * np.eye(d), u - h * np.eye(d)])
    scores = np.array([_flatness_score(X, F, p)[0] for p in P / F.value_many(P)[:, None]])
    return (scores[:d] - scores[d:]) / (2.0 * h)


@pytest.mark.parametrize("kind", ["quartic_perturbed", "riemannian", "alpha_beta"])
def test_score_gradient_matches_central_differences(so6_circle, kind):
    # quartic: the Cartan term (d_a g)v is live; riemannian: g is constant,
    # so that term vanishes; alpha_beta: a non-quartic gram on a space whose
    # random poles have a non-empty commutant
    X, F = so6_circle
    if kind != "quartic_perturbed":
        F = make_norm(kind, {}, X, seed=0)
    U = np.random.default_rng(11).standard_normal((4, X.dim_m))
    U /= F.value_many(U)[:, None]
    for u in U:
        score, v, parts = _flatness_score(X, F, u)
        grad = _score_gradient(X, F, u, v, parts)
        assert np.isfinite(score) and v is not None and grad is not None
        ref = _central_gradient(X, F, u)
        assert np.linalg.norm(grad - ref) <= 1e-6 * np.linalg.norm(ref)
        # the score depends on the line of u only
        assert abs(grad @ u) <= 1e-12 * np.linalg.norm(grad) * np.linalg.norm(u)
    # the root-plane axes have no gradient: their commutant is larger than
    # at nearby poles, so the score jumps off them
    axes = np.stack([X.m_vector(root=root, xy=(1.0, 0.0)) for root in sorted(X.plane_slices)])
    for u in axes / F.value_many(axes)[:, None]:
        assert np.isfinite(_flatness_score(X, F, u)[0]) and _gradient(X, F, u) is None


def _einsum_full_brackets(X):
    # bg[i, j] = algebra coordinates of [m_i, m_j], contracted from the
    # structure constants: the tensor the search once read its brackets from
    M = X.m_basis
    return np.einsum("abe,ia,jb->ije", X.g.structure_constants, M, M)


def _einsum_score_gradient(X, F, u, v, parts, bg):
    # _score_gradient with its two full-algebra brackets read from bg
    W, sv, vt, k, lam, g, N, M1, M2, r1, A = parts
    r, unorm, bm = len(u) - k, np.linalg.norm(u), X.m_bracket_tensor()
    tol = flatfinder.GRADIENT_SPLIT * max(1.0, sv[0])
    com, Wr = vt[r:], W[:, :r]
    D = np.concatenate([np.einsum("xj,ije->xie", com, bg), com[:, :, None] / unorm], axis=2)
    if sv[r - 1] <= tol or np.abs(D - (D @ Wr) @ Wr.T).max() > tol:
        return None
    uh = u / unorm
    y = Wr @ ((vt[:r] @ (2.0 * (A @ v - lam * v))) / sv[:r])
    M1v = M1 @ v
    a = N.T @ M1v
    an = np.linalg.norm(a)
    h = flatfinder.GRADIENT_CARTAN_STEP
    step = a * (h / max(an, 1e-300))
    Gp, Gm = F.gram_batch_closed(np.stack([uh + step, uh - step]))
    inner = np.einsum("ijk,i,j->k", bm, M2 @ v, v) + N.T @ r1
    gamma = 2.0 * (np.einsum("ijk,i,k->j", bm, M1v, g @ v) + (Gp - Gm) @ v * (an / (2.0 * h))
                   + g @ inner + M2.T @ r1)
    gamma -= (gamma @ uh) * uh
    return (gamma - y[-1] * v) / unorm - np.einsum("ije,j,e->i", bg, v, y[:-1])


def test_commutant_and_gradient_match_the_structure_constant_contractions(so6_circle):
    # the commutant's [B(u); u/|u|] and the gradient's brackets, taken
    # through g.ad, against the same contractions of the structure constants
    X, F = so6_circle
    bg = _einsum_full_brackets(X)
    U = np.random.default_rng(11).standard_normal((4, X.dim_m))
    U /= F.value_many(U)[:, None]
    for u in U:
        W, sv, vt, k = flatfinder._commutant_in_m(X, u)
        B = np.einsum("ije,i->ej", bg, u)
        assert np.abs((W * sv) @ vt - np.vstack([B, u / np.linalg.norm(u)])).max() <= 1e-12
        score, v, parts = _flatness_score(X, F, u)
        grad, ref = _score_gradient(X, F, u, v, parts), _einsum_score_gradient(X, F, u, v, parts, bg)
        assert grad is not None and ref is not None
        assert np.abs(grad - ref).max() <= 1e-12


def test_gradient_is_formed_only_at_accepted_steps(so6_circle, monkeypatch):
    # a random-start descent pays for one gradient at its start and one per
    # accepted step; the line search's rejected candidates pay for none.
    # From this start the line search rejects 335 candidates
    X, F = so6_circle
    u = np.random.default_rng(4).standard_normal(X.dim_m)
    u /= F.value(u)
    score, v, parts = _flatness_score(X, F, u)
    assert score > 1e-16 and parts is not None
    calls = {"grad": 0, "candidates": 0, "accepted": 0}
    best = [score]

    def counted_score(X, F, cand):
        out = _flatness_score(X, F, cand)
        calls["candidates"] += 1
        if out[0] < best[0] - 1e-20:
            calls["accepted"] += 1
            best[0] = out[0]
        return out

    def counted_gradient(*args):
        calls["grad"] += 1
        return _score_gradient(*args)

    monkeypatch.setattr(flatfinder, "_flatness_score", counted_score)
    monkeypatch.setattr(flatfinder, "_score_gradient", counted_gradient)
    _, _, score2 = _descend_pole(X, F, u, score, v, parts)
    assert score2 == best[0] < score
    assert calls["grad"] == calls["accepted"] + 1
    assert calls["candidates"] > calls["accepted"] > 0


def test_descent_stops_at_a_pole_without_a_gradient(sp2, monkeypatch):
    # u(2) inside sp(2) with q = I: at the axis pole e_4 the residual is
    # exactly 0 on the whole 2-dimensional commutant, so its minimum is not
    # simple and the scorer gives no gradient
    X = _u2_in_sp2(sp2)
    F = make_norm("riemannian", {"q": np.eye(X.dim_m)}, X, seed=0)
    u = np.eye(X.dim_m)[4]
    u = u / F.value(u)
    score, v, parts = _flatness_score(X, F, u)
    assert score == 0.0 and v is not None and parts is None
    assert _score_gradient(X, F, u, v, parts) is None
    scored = []

    def counted(X, F, u):
        scored.append(u)
        return _flatness_score(X, F, u)

    monkeypatch.setattr(flatfinder, "_flatness_score", counted)
    u2, v2, score2 = _descend_pole(X, F, u, score, v, parts)
    assert scored == []  # the pole comes back as scored
    assert u2 is u and v2 is v and score2 == score


def test_degenerate_minimum_v_does_not_follow_the_commutant_basis(sp2, monkeypatch):
    # at the same pole, rotating or reflecting the commutant rows that
    # _commutant_in_m returns leaves v as it is
    X = _u2_in_sp2(sp2)
    F = make_norm("riemannian", {"q": np.eye(X.dim_m)}, X, seed=0)
    u = np.eye(X.dim_m)[4]
    u = u / F.value(u)
    _, v, _ = _flatness_score(X, F, u)
    commutant = flatfinder._commutant_in_m
    for c, s, det in ((np.cos(0.7), np.sin(0.7), 1), (-1.0, 0.0, 1), (np.cos(2.0), np.sin(2.0), -1)):
        def rotated(X, u):
            W, sv, vt, k = commutant(X, u)
            assert k == 2
            vt = vt.copy()
            vt[-2:] = np.array([[c, -s], [det * s, det * c]]) @ vt[-2:]
            return W, sv, vt, k

        monkeypatch.setattr(flatfinder, "_commutant_in_m", rotated)
        score, v2, _ = flatfinder._flatness_score(X, F, u)
        assert score < 1e-20 and np.abs(v2 - v).max() < 1e-12


def test_axis_starts_are_scored_once(so6_circle, monkeypatch):
    # the six root-plane axes of so(6)/S1(1,2,0) have no score gradient, so
    # a search over them alone scores each start once and descends from none
    X, F = so6_circle
    calls = []

    def counted(*args):
        calls.append(1)
        return _flatness_score(*args)

    monkeypatch.setattr(flatfinder, "_flatness_score", counted)
    certs = generic_flat_search(X, F, budget=6, seed=0)
    assert len(calls) == 6
    assert [c.verdict for c in certs] == [
        "zero_flag", "zero_flag", "positive", "preconditions_failed", "preconditions_failed",
    ]


def test_degenerate_minimum_at_generic_poles_has_no_gradient():
    # the rank-3 Grassmannian so(7)/so(3)xso(4) with q = I: at a generic
    # pole the commutant is 2-dimensional and stays so nearby, but the
    # residual vanishes on all of it, so its minimum is not simple
    X = build_space(build_lie_algebra("so", 7), [S.block(1, 2, 3), S.block(4, 5, 6, 7)])
    F = make_norm("riemannian", {"q": np.eye(X.dim_m)}, X, seed=0)
    U = np.random.default_rng(0).standard_normal((3, X.dim_m))
    for u in U / F.value_many(U)[:, None]:
        score, v, parts = _flatness_score(X, F, u)
        assert abs(score) < 1e-20 and v is not None
        assert parts is None and _score_gradient(X, F, u, v, parts) is None


def test_search_on_orthogonal_family():
    # a block quotient with no fully commuting pairs yields nothing, while a
    # deep circle quotient certifies flats
    so7 = build_lie_algebra("so", 7)
    X = build_space(so7, [S.block(1, 2, 3, 4, 5)])
    F = make_norm("quartic_perturbed", {"epsilon": 0.1}, X, seed=1)
    certs = generic_flat_search(X, F, budget=25, seed=3)
    assert [c for c in certs if c.verdict == "zero_flag"] == []

    so6 = build_lie_algebra("so", 6)
    X2 = build_space(so6, [S.circle(1, 2, 0)])
    F2 = make_norm("quartic_perturbed", {"epsilon": 0.1}, X2, seed=2)
    certs2 = generic_flat_search(X2, F2, budget=12, seed=4)
    assert any(c.verdict == "zero_flag" for c in certs2)
