import numpy as np
import pytest

from flagcurv.liealg import (
    UnsupportedAlgebraError,
    _g2_matrices,
    build_lie_algebra,
    bracket,
    format_root,
    maximal_torus,
    null_rows,
    octonion_structure,
    root_decomposition,
    subalgebra_from_matrices,
    torus_blocks,
)

TOL = 1e-10


@pytest.mark.parametrize(
    "family,n,dim",
    [("su", 2, 3), ("su", 4, 15), ("sp", 2, 10), ("sp", 3, 21), ("so", 5, 10), ("g2", 0, 14)],
)
def test_dimensions(family, n, dim):
    L = build_lie_algebra(family, n)
    assert L.dim == dim


@pytest.mark.parametrize("family,n", [("su", 3), ("sp", 2), ("so", 6), ("g2", 0)])
def test_algebra_invariants(family, n):
    L = build_lie_algebra(family, n)
    assert L.antisymmetry_residual() < TOL
    assert L.jacobi_residual() < TOL
    assert L.ad_invariance_residual() < TOL
    assert np.abs(L.bi_form - np.eye(L.dim)).max() < 1e-12


def test_unsupported_family():
    with pytest.raises(UnsupportedAlgebraError):
        build_lie_algebra("e8", 8)
    with pytest.raises(UnsupportedAlgebraError):
        build_lie_algebra("so", 2)
    # su(1) has no generators
    with pytest.raises(UnsupportedAlgebraError, match=r"su\(1\)"):
        build_lie_algebra("su", 1)
    assert build_lie_algebra("su", 2).dim == 3


def test_bracket_antisymmetry(sp2):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(sp2.dim)
        assert np.linalg.norm(bracket(sp2, x, x)) < 1e-12


def test_bracket_dimension_mismatch(sp2):
    with pytest.raises(ValueError):
        sp2.bracket(np.ones(3), np.ones(sp2.dim))


def test_jacobi_on_random_triples(su4):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        x, y, z = rng.standard_normal((3, su4.dim))
        n = max(np.linalg.norm(w) for w in (x, y, z))
        x, y, z = x / n, y / n, z / n
        r = (
            su4.bracket(x, su4.bracket(y, z))
            + su4.bracket(y, su4.bracket(z, x))
            + su4.bracket(z, su4.bracket(x, y))
        )
        worst = max(worst, np.linalg.norm(r))
    assert worst < 1e-12


@pytest.mark.parametrize("family,n", [("su", 4), ("sp", 3), ("so", 6), ("g2", 0)])
def test_ad_of_a_stack_is_the_stack_of_single_rows(family, n):
    # entry for entry, so root data, isotropy operators and seeded norms
    # built from one ad on a stack repeat those built row by row
    L = build_lie_algebra(family, n)
    rows = np.vstack([np.eye(L.dim), np.random.default_rng(1).standard_normal((5, L.dim))])
    ads = L.ad(rows)
    assert ads.shape == (len(rows), L.dim, L.dim)
    assert np.array_equal(ads, np.stack([L.ad(r) for r in rows]))
    assert L.ad(rows[:0]).shape == (0, L.dim, L.dim)


def test_bracket_matches_matrix_commutator(sp2):
    # independent oracle: commutator of the realized matrices
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        x, y = rng.standard_normal((2, sp2.dim))
        A = sp2.to_matrix(x) @ sp2.to_matrix(y) - sp2.to_matrix(y) @ sp2.to_matrix(x)
        worst = max(worst, np.abs(sp2.to_matrix(sp2.bracket(x, y)) - A).max())
    assert worst < 1e-12


def _dense_structure_constants(L):
    """The all-pairs formula: every commutator [B_a, B_b] at once, then
    c_abc = -kappa tr([B_a, B_b] B_c), in dim^2 N^2 memory."""
    B = L.basis
    comm = np.einsum("aij,bjk->abik", B, B) - np.einsum("bij,ajk->abik", B, B)
    return -L.kappa * np.einsum("abik,cki->abc", comm, B)


@pytest.mark.parametrize(
    "family,n,exact",
    [("su", 3, False), ("su", 4, False), ("sp", 2, True), ("sp", 3, True),
     ("so", 6, True), ("so", 7, True), ("g2", 0, False)],
)
def test_structure_constants_match_the_dense_formula(family, n, exact):
    # the a-slices sum in another order; on sp and so every entry is a sum
    # of few exact terms, so the two agree bit for bit there
    L = build_lie_algebra(family, n)
    ref = _dense_structure_constants(L)
    assert np.abs(L.structure_constants - ref).max() <= 4.5e-16
    if exact:
        assert np.array_equal(L.structure_constants, ref)


def test_matrices_that_do_not_close_are_rejected():
    # e_12, e_13, e_14, e_23 of so(4): [e_13, e_14] lies along e_34.  Only
    # the a-slice of e_23 closes, so each order has a failing slice at one end
    so4 = build_lie_algebra("so", 4)
    for order in ([0, 1, 2, 3], [3, 0, 1, 2]):
        with pytest.raises(ValueError, match="do not close under bracket"):
            subalgebra_from_matrices(so4, list(so4.basis[order]))
    assert subalgebra_from_matrices(so4, list(so4.basis[[0, 1, 3]])).dim == 3


def test_g2_generators_match_the_derivation_loop():
    # the derivation system row by row, as a triple loop over (i < j, k)
    f = octonion_structure()
    rows = []
    for i in range(7):
        for j in range(i + 1, 7):
            for k in range(7):
                row = np.zeros((7, 7))
                for m in range(7):
                    row[k, m] += f[i, j, m]
                    row[m, i] -= f[m, j, k]
                    row[m, j] -= f[i, m, k]
                rows.append(row.ravel())
    ref = [row.reshape(7, 7) for row in null_rows(np.stack(rows), 1e-10)]
    assert np.array_equal(np.stack(_g2_matrices()), np.stack(ref))


def test_sp2_root_set(sp2):
    datum = sp2.root_datum()
    labels = {datum.label(k) for k in range(datum.n_pairs)}
    assert labels == {"2e1", "2e2", "e1+e2", "e1-e2"}
    # a root that is not one is named in plain ints
    with pytest.raises(KeyError, match=r"'no root pair \(3, 0\)'$"):
        datum.index_for_root((3, 0))


def test_su_root_count():
    for n in (3, 4, 5):
        L = build_lie_algebra("su", n)
        assert L.root_datum().n_pairs == n * (n - 1) // 2


def test_root_datum_beyond_rank_eight():
    # the lead of the torus split takes one prime per lattice row, so su(10)
    # needs ten
    L = build_lie_algebra("su", 10)
    datum = L.root_datum()
    assert datum.n_pairs == 45
    expected = set()
    for i in range(10):
        for j in range(i + 1, 10):
            e = np.zeros(10, dtype=int)
            e[i], e[j] = 1, -1
            expected.add(tuple(e))
    assert {tuple(int(c) for c in r) for r in datum.roots} == expected


@pytest.mark.parametrize(
    "family,n,rank",
    [("su", n, n - 1) for n in range(2, 7)]
    + [("sp", n, n) for n in range(1, 5)]
    + [("so", n, n // 2) for n in range(3, 9)]
    + [("g2", 0, 2)],
)
def test_maximal_torus_is_abelian_with_the_family_rank(family, n, rank):
    L = build_lie_algebra(family, n)
    T = maximal_torus(L, np.eye(L.dim))
    assert T.shape == (rank, L.dim)
    assert np.abs(T @ T.T - np.eye(rank)).max() < TOL
    assert max(np.abs(L.bracket(a, b)).max() for a in T for b in T) < TOL


def test_null_rows_cutoff():
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    # tall: two zero singular values among six columns
    tall = rng.standard_normal((9, 6)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.0, 0.0]) @ Q.T
    ker = null_rows(tall, 1e-9)
    assert ker.shape == (2, 6)
    assert np.abs(tall @ ker.T).max() < 1e-12
    assert np.abs(ker @ ker.T - np.eye(2)).max() < 1e-12
    # wide: the kernel includes the rows beyond the singular values
    wide = rng.standard_normal((3, 7))
    ker = null_rows(wide, 1e-9)
    assert ker.shape == (4, 7)
    assert np.abs(wide @ ker.T).max() < 1e-12
    # scaled: the cutoff is tol * max(1, s_max), relative to s_max above 1
    # and absolute below it; singular values here are c, c * 1e-8 and 0
    A = np.diag([1.0, 1e-8, 0.0]) @ np.linalg.qr(rng.standard_normal((3, 3)))[0]
    assert null_rows(A, 1e-9).shape[0] == 1
    assert null_rows(1e3 * A, 1e-9).shape[0] == 1  # 1e-5 > 1e-6
    assert null_rows(1e3 * A, 1e-7).shape[0] == 2  # 1e-5 <= 1e-4; an absolute 1e-7 would keep it
    assert null_rows(1e-3 * A, 1e-9).shape[0] == 2  # 1e-11 <= 1e-9; a relative 1e-12 would keep it


def test_g2_root_structure(g2):
    datum = g2.root_datum()
    assert datum.n_pairs == 6
    # squared root lengths in the metric dual to the invariant form
    ads = g2.ad(datum.cartan)
    vals = np.einsum("kd,mde,ke->km", datum.planes[:, :, 1], ads, datum.planes[:, :, 0])
    lengths = (vals ** 2).sum(axis=1)
    lo, hi = lengths.min(), lengths.max()
    assert abs(hi / lo - 3.0) < 1e-9
    # short and long roots come in threes
    assert sum(1 for v in lengths if abs(v - lo) < 1e-9) == 3
    coords = {tuple(r) for r in datum.roots}
    assert coords == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def _assert_roots_do_not_depend_on_the_cartan_basis(L):
    datum = L.root_datum()
    lattice = L.canonical_cartan()[1]
    projector = lambda d: np.einsum("kia,kja->kij", d.planes, d.planes)
    rng = np.random.default_rng(0)
    r = len(datum.cartan)
    for _ in range(8):
        R = np.linalg.qr(rng.standard_normal((r, r)))[0]
        rotated = root_decomposition(L, R @ datum.cartan, lattice=lattice)
        assert np.array_equal(rotated.roots, datum.roots)
        assert np.abs(projector(rotated) - projector(datum)).max() < 1e-10


def test_g2_roots_do_not_depend_on_the_cartan_basis(g2):
    # the simple roots are chosen by a functional fixed in algebra
    # coordinates, so a rotated orthonormal basis of the same torus names
    # the same plane by every root
    _assert_roots_do_not_depend_on_the_cartan_basis(g2)


@pytest.mark.parametrize("family,n", [("su", 5), ("sp", 3), ("so", 7)])
def test_roots_do_not_depend_on_the_cartan_basis(family, n):
    # su, sp and so split by their lattice, whatever the Cartan basis
    _assert_roots_do_not_depend_on_the_cartan_basis(build_lie_algebra(family, n))


def _assert_single_speed_blocks(ops, basis):
    """torus_blocks(ops, basis) tiles the span of basis with orthonormal
    blocks that every op keeps and turns at one speed, and zero rows that
    every op kills."""
    rotating, zero_rows = torus_blocks(ops, basis)
    rows = np.vstack(rotating + [zero_rows])
    assert rows.shape == basis.shape
    assert np.abs(rows @ rows.T - np.eye(len(rows))).max() < 1e-10
    assert np.abs(rows.T @ rows - basis.T @ basis).max() < 1e-10
    assert np.abs(zero_rows @ ops).max(initial=0.0) < 1e-10
    for blk in rotating:
        assert len(blk) % 2 == 0
        R = blk @ ops @ blk.T
        assert np.abs(ops @ blk.T - blk.T @ R).max() < 1e-10
        RRt = R @ R.transpose(0, 2, 1)
        s2 = np.trace(RRt, axis1=1, axis2=2) / len(blk)
        assert np.abs(RRt - s2[:, None, None] * np.eye(len(blk))).max() < 1e-10
        assert s2.max() > 1e-6
    return rotating, zero_rows


@pytest.mark.parametrize(
    "family,n",
    [("su", n) for n in range(2, 9)] + [("so", n) for n in range(3, 9)]
    + [("sp", n) for n in range(1, 7)] + [("g2", 0)],
)
def test_torus_blocks_of_root_data_are_single_speed_planes(family, n):
    L = build_lie_algebra(family, n)
    cartan, lattice = L.canonical_cartan()
    rows = cartan if lattice is None else lattice
    rotating, zero_rows = _assert_single_speed_blocks(np.stack([L.ad(t) for t in rows]), np.eye(L.dim))
    assert [len(blk) for blk in rotating] == [2] * L.root_datum().n_pairs
    assert len(zero_rows) == L.rank


@pytest.mark.parametrize(
    "name", ["sp2_circle21", "su4_weighted", "su4_onecircle", "sp3_mixed", "g2_short", "so7_block5"]
)
def test_torus_blocks_of_the_space_fixtures_are_single_speed(request, name):
    # the three splits a space makes: m under its isotropy torus, the root
    # planes of h, and the planes of a maximal torus of g through t_H
    X = request.getfixturevalue(name)
    g = X.g
    _assert_single_speed_blocks(np.stack([X.m_basis @ g.ad(t) @ X.m_basis.T for t in X.t_h_raw]), np.eye(X.dim_m))
    ads_h = np.stack([g.ad(t) for t in X.t_h])
    _assert_single_speed_blocks(ads_h, X.h_basis)
    t_g = maximal_torus(g, null_rows(np.vstack(ads_h), 1e-9))
    _assert_single_speed_blocks(np.stack([g.ad(t) for t in t_g]), np.eye(g.dim))


def _planes_op(weights):
    """Skew operators of two torus rows on R^4 = two coordinate planes, the
    k-th plane turned at speed weights[k][i] by row i."""
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    ops = np.zeros((2, 4, 4))
    for k, w in enumerate(weights):
        for i in range(2):
            ops[i, 2 * k:2 * k + 2, 2 * k:2 * k + 2] = w[i] * J
    return ops


def test_torus_blocks_raise_where_the_lead_merges_weights():
    # the lead turns at speed |lam . w|, lam = (sqrt 2, sqrt 3)/sqrt 5: the
    # real weights (1, 0) and (0, sqrt 2/sqrt 3) both give sqrt 2/sqrt 5, and
    # (sqrt 3, -sqrt 2) gives 0
    _assert_single_speed_blocks(_planes_op([(1.0, 0.0), (0.0, 1.0)]), np.eye(4))
    with pytest.raises(RuntimeError, match="merged weights"):
        torus_blocks(_planes_op([(1.0, 0.0), (0.0, np.sqrt(2.0 / 3.0))]), np.eye(4))
    with pytest.raises(RuntimeError, match="does not kill"):
        torus_blocks(_planes_op([(1.0, 0.0), (np.sqrt(3.0), -np.sqrt(2.0))]), np.eye(4))


def test_root_plane_rotation_identities(sp3):
    datum = sp3.root_datum()
    for k in range(datum.n_pairs):
        x, y = datum.planes[k, :, 0], datum.planes[k, :, 1]
        for m, t in enumerate(datum.lattice):
            a = float(datum.roots[k, m])
            assert np.linalg.norm(sp3.bracket(t, x) - a * y) < TOL
            assert np.linalg.norm(sp3.bracket(t, y) + a * x) < TOL


def test_root_planes_orthonormal(su4):
    datum = su4.root_datum()
    rows = [datum.planes[k, :, i] for k in range(datum.n_pairs) for i in (0, 1)]
    rows.extend(datum.zero_space)
    V = np.stack(rows)
    assert np.abs(V @ V.T - np.eye(len(V))).max() < 1e-10
    assert 2 * datum.n_pairs + len(datum.zero_space) == su4.dim


def test_root_decomposition_rejects_nonabelian(su4):
    datum = su4.root_datum()
    bad = np.vstack([datum.cartan[:2], datum.planes[0, :, 0][None, :]])
    with pytest.raises(ValueError, match="cartan subspace is not abelian"):
        root_decomposition(su4, bad)


def test_from_matrix_round_trip(g2):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(g2.dim)
    assert np.linalg.norm(g2.from_matrix(g2.to_matrix(x)) - x) < 1e-10
    with pytest.raises(ValueError):
        g2.from_matrix(np.eye(7))  # identity is not a derivation


def test_format_root():
    assert format_root([2, 0, 0]) == "2e1"
    assert format_root([1, -1, 0]) == "e1-e2"
    assert format_root([0, 1, 1]) == "e2+e3"
    assert format_root([3, 2], symbol="a") == "3a1+2a2"
