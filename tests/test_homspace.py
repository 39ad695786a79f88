import copy

import numpy as np
import pytest
import scipy.linalg as sla

from flagcurv.liealg import build_lie_algebra, maximal_torus, null_rows, _quat_to_real
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
    assert all(m["g_restriction"] is not None for m in report["matching"])
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
    X = request.getfixturevalue(name)
    ok, report = is_regular_subalgebra(X)
    assert ok
    assert all(match["g_restriction"] == match["h_root"] for match in report["matching"])


def test_regularity_of_block_with_straddling_planes(g2_short):
    # a sub-block whose short root planes straddle the canonical planes is
    # still regular: the matching realigns the ambient torus
    so7 = build_lie_algebra("so", 7)
    X = build_space(so7, [S.block(1, 2, 3, 4, 5)])
    assert not X.adapted
    ok, report = is_regular_subalgebra(X)
    assert ok
    assert all(m["g_restriction"] is not None for m in report["matching"])
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


def test_principal_so3_not_regular():
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
    X = build_space(g5, [S.explicit([rho(L) for L in (L1, L2, L3)])])
    ok, report = is_regular_subalgebra(X)
    assert not ok
    assert any(m["g_restriction"] is None for m in report["matching"])


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


def test_commutant_system_matches_the_column_loop(su4_weighted, sp3_mixed, g2_short):
    from flagcurv.homspace import _commutant_system

    for X in (su4_weighted, sp3_mixed, g2_short):
        nm = X.dim_m
        ops = [X.m_basis @ X.g.ad(h) @ X.m_basis.T for h in X.h_basis]
        # the reference: one packed unit symmetric matrix per column
        iu = np.triu_indices(nm)
        ref = np.zeros((len(ops) * nm * nm, len(iu[0])))
        for col, (i, j) in enumerate(zip(*iu)):
            E = np.zeros((nm, nm))
            E[i, j] = E[j, i] = 1.0
            ref[:, col] = np.concatenate([(E @ A - A @ E).ravel() for A in ops])
        assert _commutant_system(ops, nm).tobytes() == ref.tobytes()


def test_exp_isotropy_is_orthogonal(sp3_mixed):
    for R in sp3_mixed.sample_isotropy(6, seed=11):
        assert np.abs(R @ R.T - np.eye(sp3_mixed.dim_m)).max() < 1e-10
