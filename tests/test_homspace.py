import copy

import numpy as np
import pytest
import scipy.linalg as sla

from flagcurv import homspace
from flagcurv.liealg import _TORUS_SEED, build_lie_algebra, maximal_torus, null_rows, _quat_to_real, torus_blocks
from flagcurv.homspace import (
    SubalgebraSpec,
    ad_rotation_speeds,
    build_space,
    centralizer_subalgebra,
    diag_element,
    fixed_point_space,
    invariant_blocks,
    is_regular_subalgebra,
    isotropy_invariant_decomposition,
)

S = SubalgebraSpec


def test_build_dimensions(sp2_circle21, su4_weighted, sp3_mixed):
    assert sp2_circle21.dim_m == 9
    assert su4_weighted.dim_m == 11
    assert sp3_mixed.dim_m == 17
    assert sp3_mixed.rank_g - sp3_mixed.rank_h == 1


def test_splitting_is_orthogonal_and_invariant(su4_weighted):
    X = su4_weighted
    assert np.abs(X.h_basis @ X.m_basis.T).max() < 1e-12
    assert X.dim_h + X.dim_m == X.g.dim
    for h in X.h_basis:
        assert np.abs(X.m_basis @ X.g.ad(h).T @ X.h_basis.T).max() < 1e-10


def test_not_a_subalgebra(su4):
    datum = su4.root_datum()
    mats = [
        su4.to_matrix(datum.plane_for_root((1, -1, 0, 0))[:, 0]),
        su4.to_matrix(datum.plane_for_root((0, 1, -1, 0))[:, 0]),
    ]
    with pytest.raises(ValueError, match="not a subalgebra"):
        build_space(su4, [S.explicit(mats)])


def test_traceless_projection_note(su4):
    X = build_space(su4, [S.circle(1, 1, 1, 1)])
    assert "circle" in X.notes
    assert X.dim_h == 0  # the projected generator vanishes entirely


def test_centralizer_dimensions(su4):
    c = centralizer_subalgebra(su4, diag_element(su4, [1, 1, -1, -1]))
    assert c.shape[0] == 7
    so7 = build_lie_algebra("so", 7)
    c7 = centralizer_subalgebra(so7, diag_element(so7, [-1, -1, -1, -1, 1, 1, 1]))
    assert c7.shape[0] == 9
    assert centralizer_subalgebra(su4, np.eye(8)).shape[0] == su4.dim


def test_centralizer_rejects_non_orthogonal(su4):
    with pytest.raises(ValueError, match="orthogonality"):
        centralizer_subalgebra(su4, 2.0 * np.eye(8))


def test_fixed_point_space_su3():
    g = build_lie_algebra("su", 3)
    X = build_space(g, [S.circle(1, 0, -1)])
    F = fixed_point_space(X, diag_element(g, [-1, 1, -1]))
    assert F.g.dim == 4
    assert F.dim_m == 3
    assert F.notes["rank_total_equals_rank_g"]
    assert F.notes["rank_isotropy_equals_rank_h"]
    assert F.notes["codimension_even"]


def test_fixed_point_space_identity():
    g = build_lie_algebra("su", 3)
    X = build_space(g, [S.circle(1, 0, -1)])
    F = fixed_point_space(X, np.eye(6))
    assert F.g.dim == g.dim
    assert F.dim_m == X.dim_m


def test_fixed_point_space_sp2(sp2):
    X = build_space(sp2, [S.circle(1, 0)])
    F = fixed_point_space(X, diag_element(sp2, [-1, 1]))
    # two commuting rank-one blocks; the isotropy circle sits in the first
    assert F.g.dim == 6
    assert F.dim_h == 1
    assert F.dim_m == 5
    assert F.notes["codimension_even"]
    # the centralizer splits into the two diagonal blocks
    c = centralizer_subalgebra(sp2, diag_element(sp2, [-1, 1]))
    blocks = {0: [], 1: []}
    for row in c:
        M = sp2.to_matrix(row)
        top = np.abs(M[[0, 2, 4, 6]][:, [0, 2, 4, 6]]).max()
        bot = np.abs(M[[1, 3, 5, 7]][:, [1, 3, 5, 7]]).max()
        blocks[0 if top > bot else 1].append(row)
    assert sorted(len(v) for v in blocks.values()) == [3, 3]


def test_fixed_point_requires_normalizing(su4_weighted):
    # an element that does not preserve the isotropy
    g = su4_weighted.g
    perm = np.zeros((4, 4))
    perm[0, 2] = perm[2, 0] = perm[1, 1] = perm[3, 3] = 1.0
    from flagcurv.liealg import _complex_to_real

    with pytest.raises(ValueError):
        fixed_point_space(su4_weighted, _complex_to_real(perm.astype(complex)))


def test_regularity_verdicts(su4_weighted, sp2_circle21):
    ok, report = is_regular_subalgebra(su4_weighted)
    assert ok
    assert all(m["matched"] for m in report["matching"])
    ok2, rep2 = is_regular_subalgebra(sp2_circle21)
    assert ok2 and rep2["vacuous"]


# the space fixtures and the rank of their isotropy
_FIXTURE_RANK_H = {"sp2_circle21": 1, "su4_weighted": 2, "su4_onecircle": 2, "sp3_mixed": 2, "g2_short": 1,
                   "so7_block5": 2}


@pytest.mark.parametrize("name", sorted(_FIXTURE_RANK_H))
def test_maximal_torus_of_the_isotropy_has_rank_h_rows(request, name):
    X = request.getfixturevalue(name)
    T = maximal_torus(X.g, X.h_basis)
    assert T.shape[0] == X.rank_h == _FIXTURE_RANK_H[name]
    assert np.abs(T - (T @ X.h_basis.T) @ X.h_basis).max() < 1e-10


@pytest.mark.parametrize("name", ["so7_block5", "su4_weighted"])
def test_maximal_torus_of_the_centralizer_of_t_h_contains_t_h(request, name):
    # t_H is central in its centralizer, so every maximal torus of the
    # centralizer contains it: the fact the regularity check relies on
    X = request.getfixturevalue(name)
    g = X.g
    z_rows = null_rows(np.vstack([g.ad(t) for t in X.t_h]), 1e-9)
    T = maximal_torus(g, z_rows)
    assert z_rows.shape[0] > T.shape[0] == g.rank
    assert np.abs(X.t_h - (X.t_h @ T.T) @ T).max() < 1e-10
    assert max(np.abs(g.bracket(a, b)).max() for a in T for b in T) < 1e-10


@pytest.mark.parametrize("name", sorted(_FIXTURE_RANK_H))
def test_g_restriction_is_the_h_root_on_every_regular_fixture(request, name):
    # the root of g on a root plane that is an h-plane restricts to that
    # h root, so the report need only say that every h root is matched
    X = request.getfixturevalue(name)
    ok, report = is_regular_subalgebra(X)
    assert ok
    assert all(match["matched"] for match in report["matching"])


def test_regularity_of_block_with_straddling_planes(g2_short):
    # a sub-block whose short root planes straddle the canonical planes is
    # still regular: a maximal torus t_g of the normalizer is not the
    # canonical one, and ad(t_g) keeps every h-plane
    so7 = build_lie_algebra("so", 7)
    X = build_space(so7, [S.block(1, 2, 3, 4, 5)])
    assert not X.adapted
    ok, report = is_regular_subalgebra(X)
    assert ok
    assert all(m["matched"] for m in report["matching"])
    ok_g2, _ = is_regular_subalgebra(g2_short)
    assert ok_g2


def test_regularity_report_is_cached_and_copied(su4):
    X = build_space(su4, [S.block(1, 2), S.circle(1, 1, -1, -1)])
    ok, report = is_regular_subalgebra(X)
    assert "regular" in X._cache and report["matching"]
    expected = copy.deepcopy(report)
    # a caller that edits its report, at any depth, must not reach the cache
    report["matching"][0]["h_root"][0] = 99.0
    report["matching"].append(None)
    report["vacuous"] = "edited"
    ok2, report2 = is_regular_subalgebra(X)
    assert ok2 == ok and report2 == expected
    assert report2 is not report and report2["matching"] is not report["matching"]
    # and the cached pair is the one a fresh space computes
    assert is_regular_subalgebra(build_space(su4, [S.block(1, 2), S.circle(1, 1, -1, -1)])) == (ok, expected)


def _principal_so3_space():
    g5 = build_lie_algebra("so", 5)
    # spin-2 triple acting on symmetric traceless 3x3 matrices
    basis = []
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        M = np.zeros((3, 3))
        M[i, j] = M[j, i] = 1 / np.sqrt(2)
        basis.append(M)
    basis.append(np.diag([1.0, -1.0, 0.0]) / np.sqrt(2))
    basis.append(np.diag([1.0, 1.0, -2.0]) / np.sqrt(6))

    def rho(A):
        out = np.zeros((5, 5))
        for b, Sb in enumerate(basis):
            img = A @ Sb - Sb @ A
            for a, Sa in enumerate(basis):
                out[a, b] = np.einsum("ij,ij->", Sa, img)
        return out

    L1 = np.zeros((3, 3)); L1[1, 2] = -1; L1[2, 1] = 1
    L2 = np.zeros((3, 3)); L2[0, 2] = 1; L2[2, 0] = -1
    L3 = np.zeros((3, 3)); L3[0, 1] = -1; L3[1, 0] = 1
    return build_space(g5, [S.explicit([rho(L) for L in (L1, L2, L3)])])


def test_principal_so3_not_regular():
    ok, report = is_regular_subalgebra(_principal_so3_space())
    assert not ok
    assert not all(m["matched"] for m in report["matching"])


def test_regularity_survives_fixed_points(su4_weighted):
    # a torus involution of the isotropy
    iota = diag_element(su4_weighted.g, [-1, -1, 1, 1])
    F = fixed_point_space(su4_weighted, iota)
    ok, _ = is_regular_subalgebra(F)
    assert ok


def test_isotropy_decomposition_su4(su4_weighted):
    dec = isotropy_invariant_decomposition(su4_weighted)
    assert sorted(dec.dims()) == [3, 4, 4]
    assert dec.signatures[0] == (0, 0)
    assert sum(dec.dims()) == su4_weighted.dim_m
    rows = np.vstack(dec.summands)
    assert np.abs(rows @ rows.T - np.eye(len(rows))).max() < 1e-10


def test_isotropy_decomposition_g2(g2_short):
    dec = isotropy_invariant_decomposition(g2_short)
    assert dec.dims() == [3, 4, 4]
    assert dec.signatures == [(0,), (1,), (3,)]


def test_isotropy_decomposition_rejects_a_non_lattice_torus(sp2):
    # u(2) inside sp(2) as explicit matrices: its rank-2 torus comes from
    # nested centralizers with no lattice data, so signatures are not integral
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
    X = build_space(sp2, [S.explicit(mats)])
    with pytest.raises(ValueError, match="rank-2 isotropy is not lattice-aligned"):
        isotropy_invariant_decomposition(X)


def test_isotropy_decomposition_maximal_torus(sp2):
    X = build_space(sp2, [S.circle(1, 0), S.circle(0, 1)])
    dec = isotropy_invariant_decomposition(X)
    assert dec.dims() == [2, 2, 2, 2]


def test_ad_rotation_speeds_sp3(sp3_mixed):
    speeds = {r: s for (r, _, s) in ad_rotation_speeds(sp3_mixed, [1, 3, 4])}
    order = [(2, 0, 0), (0, 2, 0), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)]
    assert [speeds[o] for o in order] == [2, 6, 4, 2, 5, 3, 7, 1]


@pytest.mark.parametrize("p,q", [(2, 1), (5, 2), (3, 1)])
def test_ad_rotation_speeds_sp2(sp2_circle21, p, q):
    speeds = {r: s for (r, _, s) in ad_rotation_speeds(sp2_circle21, [p, q])}
    assert speeds[(2, 0)] == 2 * p
    assert speeds[(0, 2)] == 2 * q
    assert speeds[(1, 1)] == p + q
    assert speeds[(1, -1)] == p - q


def test_ad_rotation_speeds_needs_an_adapted_basis(so7_block5):
    with pytest.raises(ValueError, match="not adapted to root planes"):
        ad_rotation_speeds(so7_block5, [1, 0, 0])


def test_ad_rotation_speeds_zero_and_errors(sp2_circle21):
    speeds = [s for (_, _, s) in ad_rotation_speeds(sp2_circle21, [0, 0])]
    assert all(s == 0 for s in speeds)
    with pytest.raises(ValueError, match="lattice"):
        ad_rotation_speeds(sp2_circle21, [0.5, 1.0])
    with pytest.raises(ValueError):
        ad_rotation_speeds(sp2_circle21, [1, 2, 3])


def test_invariant_blocks_are_invariant(su4_weighted):
    blocks = invariant_blocks(su4_weighted)
    X = su4_weighted
    assert sum(b.shape[0] for b in blocks) == X.dim_m
    for blk in blocks:
        for h in X.h_basis:
            A = X.m_basis @ X.g.ad(h) @ X.m_basis.T
            off = (np.eye(X.dim_m) - blk.T @ blk) @ (A @ blk.T)
            assert np.abs(off).max() < 1e-9


def test_commutant_kernel_is_cached_per_space(su4):
    from flagcurv.minkowski import make_norm

    spec = [S.block(1, 2), S.circle(1, 1, -1, -1)]
    X = build_space(su4, spec)
    for seed in (0, 5):
        fresh = build_space(su4, spec)
        for a, b in zip(invariant_blocks(X, seed=seed), invariant_blocks(fresh, seed=seed)):
            assert np.array_equal(a, b)
        F = make_norm("quartic_perturbed", {}, X, seed=seed)
        G = make_norm("quartic_perturbed", {}, build_space(su4, spec), seed=seed)
        assert np.array_equal(F.q, G.q)
        assert F.epsilon == G.epsilon
        for (w, B), (w2, B2) in zip(F.quartic_terms, G.quartic_terms):
            assert w == w2 and np.array_equal(B, B2)
    kernel = X._cache["commutant"]

    other = [S.block(1, 2), S.circle(1, 1, 1, -3)]
    Y = build_space(su4, other)
    assert "commutant" not in Y._cache
    blocks = invariant_blocks(Y, seed=0)
    assert Y._cache["commutant"] is not kernel
    assert X._cache["commutant"] is kernel
    for a, b in zip(blocks, invariant_blocks(build_space(su4, other), seed=0)):
        assert np.array_equal(a, b)


def _column_loop_kernel(ops):
    """The commutant of the skew stack ops by brute force: [S, A] = 0 for
    every A over all packed symmetric S, one unit symmetric matrix per
    column, its kernel as a Frobenius-orthonormal (k, nm, nm) stack."""
    nm = ops.shape[1]
    iu = np.triu_indices(nm)
    units = np.zeros((len(iu[0]), nm, nm))
    cols = []
    for col, (i, j) in enumerate(zip(*iu)):
        units[col, i, j] = units[col, j, i] = 1.0
        cols.append(np.concatenate([(units[col] @ A - A @ units[col]).ravel() for A in ops]))
    mats = np.tensordot(null_rows(np.stack(cols, axis=1), 1e-10), units, axes=1)
    return np.linalg.svd(mats.reshape(len(mats), -1), full_matrices=False)[2].reshape(mats.shape)


def _projector(basis):
    flat = basis.reshape(len(basis), -1)
    return flat.T @ flat


def test_commutant_matches_the_column_loop_kernel(su4_weighted, sp3_mixed, g2_short):
    # su(3)/S^1(-50,-51,101) turns root planes at speeds 1, 151 and 152 and
    # fixes a line, so every lead's A^2 has the gap 1/152^2 between 0 and -1
    spread = build_space(build_lie_algebra("su", 3), [S.circle(-50, -51, 101)])
    for X in (su4_weighted, sp3_mixed, g2_short, spread):
        invariant_blocks(X)
        N = X._cache["commutant"]
        flat = N.reshape(len(N), -1)
        assert np.abs(flat @ flat.T - np.eye(len(N))).max() < 1e-12
        assert np.abs(N - N.transpose(0, 2, 1)).max() < 1e-14
        assert np.abs(_projector(N) - _projector(_column_loop_kernel(X.isotropy_ad()))).max() < 1e-12


def _space_fixtures(request):
    names = ("sp2_circle21", "su4_weighted", "su4_onecircle", "sp3_mixed", "so7_block5", "g2_short")
    return [request.getfixturevalue(name) for name in names]


def test_seeded_norm_does_not_depend_on_the_commutant_basis(request):
    # the seeded element is the Frobenius projection of a seeded matrix, so
    # a rotated basis or the brute-force kernel of the full system gives the
    # same blocks and the same Q
    from flagcurv.minkowski import make_norm

    rng = np.random.default_rng(7)
    for X in _space_fixtures(request):
        for seed in (0, 3):
            Q = make_norm("quartic_perturbed", {}, X, seed=seed).q
            N = X._cache["commutant"]
            O = np.linalg.qr(rng.standard_normal((len(N), len(N))))[0]
            for basis in (np.tensordot(O, N, axes=1), _column_loop_kernel(X.isotropy_ad())):
                Y = copy.copy(X)
                Y._cache = {"isotropy_ad": X.isotropy_ad(), "commutant": basis}
                assert np.abs(make_norm("quartic_perturbed", {}, Y, seed=seed).q - Q).max() < 1e-12


@pytest.mark.parametrize("k, dim", [(3, 45), (4, 136)])
def test_commutant_dimension_on_su2k(k, dim):
    # su(2k)/su(k)xS^1: sym^2 of the trivial summand su(k)', and the
    # Hermitian k x k matrices on k copies of C^k, (k^2 - 1) k^2 / 2 + k^2
    g = build_lie_algebra("su", 2 * k)
    X = build_space(g, [S.block(*range(1, k + 1)), S.circle(*([1] * k + [-1] * k))])
    blocks = invariant_blocks(X)
    assert len(X._cache["commutant"]) == dim == (k * k - 1) * k * k // 2 + k * k
    assert sorted(b.shape[0] for b in blocks) == [1] * (k * k - 1) + [2 * k] * k


def _near_degenerate_stack(delta):
    # an abelian pair of ops turning three planes, each three times, in a
    # random basis of R^18; the first seeded lead c turns the first two at
    # speeds a relative delta apart, although their weights differ
    c = np.random.default_rng(_TORUS_SEED).standard_normal(2)
    w0 = np.array([1.0, 0.3])
    weights = [w0, w0 + 0.9 * np.array([-c[1], c[0]]) + delta * (c @ w0) * c / (c @ c), np.array([0.2, 1.1])]
    ops = np.zeros((2, 18, 18))
    for k, w in enumerate(np.repeat(weights, 3, axis=0)):
        ops[:, 2 * k, 2 * k + 1], ops[:, 2 * k + 1, 2 * k] = w, -w
    O = np.linalg.qr(np.random.default_rng(5).standard_normal((18, 18)))[0]
    return O @ ops @ O.T, c


def test_commutant_merges_a_near_degenerate_gap_of_the_lead(monkeypatch):
    for delta in (1e-6, 1e-7):
        ops, c = _near_degenerate_stack(delta)
        lead = np.tensordot(c, ops, axes=1)
        vals = np.linalg.eigvalsh(lead @ lead)
        gaps = np.diff(vals) / -vals[0]
        assert 1e-10 < gaps[gaps > 1e-10].min() < homspace.LEAD_GAP
        full = _column_loop_kernel(ops)
        assert len(full) == 27
        N = homspace._commutant(ops, np.eye(2))
        assert np.abs(_projector(N) - _projector(full)).max() < 1e-10
        # split at that gap, the lead mixes the two eigenspaces: the
        # commutant comes back smaller, and its blocks would still be invariant
        monkeypatch.setattr(homspace, "LEAD_GAP", 1e-12)
        assert len(homspace._commutant(ops, np.eye(2))) < 27
        monkeypatch.undo()


def test_exp_isotropy_is_orthogonal(sp3_mixed):
    for R in sp3_mixed.sample_isotropy(6, seed=11):
        assert np.abs(R @ R.T - np.eye(sp3_mixed.dim_m)).max() < 1e-10


def _two_loop_basis(g, h_rows):
    """The m basis by one loop over root planes that rejects a straddling
    plane, then one that stacks the planes in m after tm: (m_basis,
    plane_slices, tm_slice, adapted)."""
    dim = g.dim
    P_h = h_rows.T @ h_rows if h_rows.size else np.zeros((dim, dim))
    comp = homspace._orthonormal_rows(np.eye(dim) - P_h, tol=1e-9)
    datum = g.root_datum()
    for plane in datum.planes:
        if np.linalg.norm(P_h @ plane) >= 1e-9 and np.linalg.norm(plane - P_h @ plane) > 1e-9:
            return comp, {}, None, False
    t_space = datum.zero_space
    t_in_h = homspace._intersect_spans(t_space, h_rows) if h_rows.size else np.zeros((0, dim))
    tm = homspace._orthonormal_rows(t_space - (t_space @ t_in_h.T) @ t_in_h, tol=1e-9)
    rows, slices = list(tm), {}
    for k, plane in enumerate(datum.planes):
        if np.linalg.norm(P_h @ plane) < 1e-9:
            slices[tuple(int(r) for r in datum.roots[k])] = (len(rows), 2)
            rows.extend([plane[:, 0], plane[:, 1]])
    if len(rows) != dim - h_rows.shape[0]:
        return comp, {}, None, False
    return np.stack(rows), slices, (0, tm.shape[0]), True


def _schur_svd_regularity(X):
    """Regularity with every root plane of g found by a Schur split of all
    of g under ad(t_g), and an h-plane matched when an SVD finds it equal to
    one of them."""
    g = X.g
    if X.dim_h == 0:
        return True, {"matching": [], "vacuous": True}
    ads_h = g.ad(X.t_h)
    z_rows = null_rows(np.vstack(ads_h), 1e-9)
    P_off = np.eye(g.dim) - X.h_basis.T @ X.h_basis
    null = null_rows((P_off @ g.ad(z_rows) @ X.h_basis.T).reshape(len(z_rows), -1).T, 1e-8)
    t_g = maximal_torus(g, homspace._orthonormal_rows(null @ z_rows))
    regular = t_g.shape[0] == g.rank
    report = {"normalizer_rank": int(t_g.shape[0]), "rank_required": int(g.rank)}
    h_planes, _ = torus_blocks(ads_h, homspace._orthonormal_rows(X.h_basis))
    if not h_planes:
        return regular, dict(report, matching=[], vacuous=True)
    g_planes = torus_blocks(g.ad(t_g), np.eye(g.dim))[0] if regular else []
    matching = [{"h_root": (hp[1] @ ads_h @ hp[0]).tolist(),
                 "matched": any(np.linalg.svd(hp @ gp.T, compute_uv=False).min() > 1.0 - 1e-8 for gp in g_planes)}
                for hp in h_planes]
    regular = regular and all(m["matched"] for m in matching)
    return regular, dict(report, matching=matching, vacuous=False)


def test_adapted_basis_and_regularity_match_the_two_loop_and_schur_svd_oracles(request):
    spaces = _space_fixtures(request) + [_principal_so3_space(), build_space(build_lie_algebra("su", 3), [])]
    for X in spaces:
        m_basis, slices, tm_slice, adapted = _two_loop_basis(X.g, X.h_basis)
        assert np.array_equal(X.m_basis, m_basis)
        assert list(X.plane_slices.items()) == list(slices.items())
        assert X.tm_slice == tm_slice and X.adapted == adapted
        assert is_regular_subalgebra(X) == _schur_svd_regularity(X)
    # adapted, not adapted, regular and not regular all occur
    assert {X.adapted for X in spaces} == {True, False}
    assert {is_regular_subalgebra(X)[0] for X in spaces} == {True, False}


def _einsum_m_bracket_tensor(X):
    # the structure-constant contractions m_bracket_tensor replaced: the
    # algebra coordinates of [m_i, m_j], then their m-part
    M = X.m_basis
    bg = np.einsum("abe,ia,jb->ije", X.g.structure_constants, M, M)
    return np.einsum("ije,ke->ijk", bg, M)


def test_m_bracket_tensor_matches_the_structure_constant_contraction(request):
    from flagcurv.flatfinder import _catalog_space

    for X in _space_fixtures(request) + [_catalog_space(k) for k in range(1, 6)]:
        bm = X.m_bracket_tensor()
        assert bm.shape == (X.dim_m,) * 3
        assert np.abs(bm - _einsum_m_bracket_tensor(X)).max() <= 1e-14
