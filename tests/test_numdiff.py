import numpy as np
import pytest

from flagcurv import numdiff
from flagcurv.minkowski import make_norm

D = 6
_rng = np.random.default_rng(11)
_M = 0.3 * _rng.standard_normal((D, D))
A = _M @ _M.T + np.eye(D)
C = _rng.standard_normal((D, D))
C = C + C.T
b = 0.5 * _rng.standard_normal(D)


def quartic(V):
    """(x'Ax)^2 + (b.x)^3 + x'Cx on the rows of V."""
    V = np.atleast_2d(V)
    qa = np.einsum("ni,ij,nj->n", V, A, V)
    return qa * qa + (V @ b) ** 3 + np.einsum("ni,ij,nj->n", V, C, V)


def quartic_hessian(x):
    qa, Ax = x @ A @ x, A @ x
    return 8.0 * np.outer(Ax, Ax) + 4.0 * qa * A + 6.0 * (b @ x) * np.outer(b, b) + 2.0 * C


def test_hessian_matches_analytic_quartic():
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = rng.standard_normal(D)
        x /= np.linalg.norm(x)
        H = numdiff.hessian(quartic, x)
        exact = quartic_hessian(x)
        assert np.abs(H - exact).max() < 1e-8
        assert np.array_equal(H, H.T)


def test_hessian_calls_f_batch_twice_with_equal_shapes():
    # x + offsets and x - offsets: the rows at -x then sit where they sat at x
    shapes = []

    def f(V):
        shapes.append(V.shape)
        return quartic(V)

    numdiff.hessian(f, np.linspace(-1.0, 1.0, D), levels=4)
    assert len(shapes) == 2 and shapes[0] == shapes[1]


def test_fd_grams_are_exactly_reversible(sp2_circle21):
    # an even function gets bit-identical Hessians at u and -u; the alpha_beta
    # norm catches a stencil whose rows at -u land where BLAS rounds otherwise
    for kind, params in (("quartic_perturbed", {"epsilon": 0.1}), ("alpha_beta", {})):
        F = make_norm(kind, params, sp2_circle21, seed=3)
        rng = np.random.default_rng(6)
        for _ in range(20):
            u = rng.standard_normal(F.dim)
            u /= np.linalg.norm(u)
            assert np.array_equal(F.gram(u, method="fd"), F.gram(-u, method="fd"))


def test_cached_half_stencil_is_read_only_and_shared():
    # every Hessian of one dimension shares these arrays, so none may write them
    half, iu, ju = numdiff._half_stencil(D)
    assert numdiff._half_stencil(D)[0] is half
    assert half.shape == (D * D, D) and list(zip(iu, ju))[:2] == [(0, 1), (0, 2)]
    for a in (half, iu, ju):
        with pytest.raises(ValueError):
            a[0] = 0
    x = np.linspace(-1.0, 1.0, D)
    H = numdiff.hessian(quartic, x)
    numdiff.hessian(lambda V: (V * V).sum(axis=1), np.ones(D - 1))
    assert np.array_equal(numdiff.hessian(quartic, x), H)
