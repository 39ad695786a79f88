import numpy as np
import pytest

from flagcurv.liealg import (
    UnsupportedAlgebraError,
    build_lie_algebra,
    bracket,
    format_root,
    null_rows,
    root_decomposition,
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


def test_bracket_matches_matrix_commutator(sp2):
    # independent oracle: commutator of the realized matrices
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        x, y = rng.standard_normal((2, sp2.dim))
        A = sp2.to_matrix(x) @ sp2.to_matrix(y) - sp2.to_matrix(y) @ sp2.to_matrix(x)
        worst = max(worst, np.abs(sp2.to_matrix(sp2.bracket(x, y)) - A).max())
    assert worst < 1e-12


def test_sp2_root_set(sp2):
    datum = sp2.root_datum()
    labels = {datum.label(k) for k in range(datum.n_pairs)}
    assert labels == {"2e1", "2e2", "e1+e2", "e1-e2"}


def test_su_root_count():
    for n in (3, 4, 5):
        L = build_lie_algebra("su", n)
        assert L.root_datum().n_pairs == n * (n - 1) // 2


def test_root_datum_beyond_rank_eight():
    # the refinement lead takes one prime per torus direction, so rank 9
    # needs a ninth prime
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
    lengths = datum.squared_lengths()
    lo, hi = lengths.min(), lengths.max()
    assert abs(hi / lo - 3.0) < 1e-9
    # short and long roots come in threes
    assert sum(1 for v in lengths if abs(v - lo) < 1e-9) == 3
    coords = {tuple(r) for r in datum.roots}
    assert coords == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


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
    with pytest.raises(ValueError):
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
