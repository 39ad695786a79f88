"""Compact simple Lie algebras as explicit real matrix algebras.

Families su(n), sp(n), so(n) are realized through real block embeddings of
their complex/quaternionic matrix models; g2 is realized as the derivation
algebra of the octonions acting on imaginary octonions (7x7 real matrices).
Every algebra carries an orthonormal basis with respect to a fixed
Ad-invariant trace form, the rank-3 structure-constant tensor, and a
root-plane decomposition with exact integer root covectors on the natural
torus lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

SPEED_CLUSTER_TOL = 1e-8

# seed of the generic element maximal_torus draws and _derive_lattice orders
# g2 roots by: fixed, so torus bases and g2 root labels repeat run to run
_TORUS_SEED = 2024

# Scale of the invariant form <x,y> = -kappa * trace(xy) in the real
# realization, chosen per family so the standard root-plane generators
# (e.g. e_ij - e_ji) come out with unit norm.
_KAPPA = {"su": 0.25, "so": 0.5, "sp": 0.125, "g2": 0.5}

# Fano triples defining octonion multiplication on imaginary units e1..e7.
_FANO = [(1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5)]


class UnsupportedAlgebraError(ValueError):
    """Raised for a family/rank combination outside the supported range."""


def _complex_to_real(Z):
    """Real 2n x 2n picture of a complex n x n matrix."""
    n = Z.shape[0]
    R = np.zeros((2 * n, 2 * n))
    R[:n, :n] = Z.real
    R[n:, n:] = Z.real
    R[:n, n:] = -Z.imag
    R[n:, :n] = Z.imag
    return R


def _quat_to_complex(A, B):
    """Complex 2n x 2n picture of the quaternionic matrix A + B j."""
    n = A.shape[0]
    Z = np.zeros((2 * n, 2 * n), dtype=complex)
    Z[:n, :n] = A
    Z[:n, n:] = B
    Z[n:, :n] = -B.conj()
    Z[n:, n:] = A.conj()
    return Z


def _quat_to_real(A, B):
    return _complex_to_real(_quat_to_complex(A, B))


def _hermitian_units(n, i, j):
    """Complex units e_ij - e_ji and i(e_ij + e_ji) of u(n), for i != j."""
    A = np.zeros((n, n), dtype=complex)
    A[i, j] = 1.0
    A[j, i] = -1.0
    B = np.zeros((n, n), dtype=complex)
    B[i, j] = 1j
    B[j, i] = 1j
    return [A, B]


def _unit_generators(family, n, i, j):
    """Realized unit generators of su(n), sp(n) or so(n) on the 0-based entry (i, j).

    i != j gives the off-diagonal units; i == j (sp only) the three
    quaternionic units on the diagonal.  The diagonal generators of su are
    torus generators (_torus_matrix).
    """
    if family == "so":
        A = np.zeros((n, n))
        A[i, j] = 1.0
        A[j, i] = -1.0
        return [A]
    if family == "su":
        return [_complex_to_real(Z) for Z in _hermitian_units(n, i, j)]
    zero = np.zeros((n, n), dtype=complex)
    if i == j:
        A = zero.copy()
        A[i, i] = 1j
        complex_part = [A]
    else:
        complex_part = _hermitian_units(n, i, j)
    j_part = []
    for val in (1.0, 1j):
        B = zero.copy()
        B[i, j] = val
        B[j, i] = val
        j_part.append(B)
    return [_quat_to_real(A, zero) for A in complex_part] + [_quat_to_real(zero, B) for B in j_part]


def _torus_matrix(family, n, weights):
    """Realized torus generator with the given integer weights.

    su and sp act by i*w_k on the k-th coordinate (su weights are projected
    to the traceless part); so rotates the k-th coordinate plane at speed w_k.
    """
    if family == "so":
        J = np.zeros((n, n))
        for k, w in enumerate(weights):
            J[2 * k, 2 * k + 1] = w
            J[2 * k + 1, 2 * k] = -w
        return J
    D = np.diag(1j * np.asarray(weights, dtype=float))
    if family == "su":
        D = D - np.trace(D) / n * np.eye(n)
        return _complex_to_real(D)
    return _quat_to_real(D, np.zeros((n, n), dtype=complex))


def _block_generators(family, n, idx):
    """Realized generators of the same-family sub-block on the 0-based coordinates idx."""
    mats = []
    for a, i in enumerate(idx):
        for j in idx[a + 1 :]:
            mats.extend(_unit_generators(family, n, i, j))
        if family == "sp":
            mats.extend(_unit_generators(family, n, i, i))
    if family == "su":
        for i, j in zip(idx, idx[1:]):
            w = np.zeros(n, dtype=int)
            w[i], w[j] = 1, -1
            mats.append(_torus_matrix(family, n, w))
    return mats


def octonion_structure():
    """Structure tensor f with e_i e_j = -delta_ij + sum_k f[i,j,k] e_k."""
    f = np.zeros((7, 7, 7))
    for (a, b, c) in _FANO:
        a, b, c = a - 1, b - 1, c - 1
        for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
            f[i, j, k] = 1.0
            f[j, i, k] = -1.0
    return f


def _g2_matrices():
    # Derivations of the octonion cross product: D(x X y) = Dx X y + x X Dy.
    # Row (i, j, k) holds the coefficients on D of the k-th coordinate of
    # D(e_i x e_j) - De_i x e_j - e_i x De_j; entries are sums of +-1.
    f, eye = octonion_structure(), np.eye(7)
    system = (
        np.einsum("ijm,kp->ijkpm", f, eye)
        - np.einsum("mjk,ip->ijkmp", f, eye)
        - np.einsum("imk,jp->ijkmp", f, eye)
    )
    null = null_rows(system[np.triu_indices(7, 1)].reshape(147, 49), 1e-10)
    if null.shape[0] != 14:
        raise RuntimeError("octonion derivation solve did not give a 14-dimensional algebra")
    return [row.reshape(7, 7) for row in null]


def _family_dim(family, n):
    if family == "su":
        return n * n - 1
    if family == "sp":
        return n * (2 * n + 1)
    if family == "so":
        return n * (n - 1) // 2
    if family == "g2":
        return 14
    raise UnsupportedAlgebraError("unsupported algebra: %r" % family)


def _family_rank(family, n):
    if family == "su":
        return n - 1
    if family in ("sp",):
        return n
    if family == "so":
        return n // 2
    if family == "g2":
        return 2
    raise UnsupportedAlgebraError("unsupported algebra: %r" % family)


@dataclass
class LieAlgebra:
    """Real matrix model of a compact Lie algebra.

    basis holds dim real matrices, orthonormal for the invariant form
    <x,y>_bi = -kappa tr(xy); elements are coordinate vectors against it.
    structure_constants c satisfies [b_i, b_j] = sum_k c[i,j,k] b_k.
    """

    family: str
    n: int
    dim: int
    basis: np.ndarray
    kappa: float
    structure_constants: np.ndarray
    bi_form: np.ndarray
    notes: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    # -- element algebra ---------------------------------------------------

    def bracket(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError("element dimension mismatch: expected %d" % self.dim)
        return np.einsum("ijk,i,j->k", self.structure_constants, x, y)

    def ad(self, x):
        """Matrix of ad(x) = [x, .] acting on coordinates.

        x may also be a (k, dim) stack of rows; the result is then the
        (k, dim, dim) stack of their matrices, equal entry for entry to the
        single-row calls, so the brackets among rows A and B are
        ad(A) @ B.T.
        """
        x = np.asarray(x, dtype=float)
        return np.einsum("ijl,...i->...lj", self.structure_constants, x)

    def to_matrix(self, x):
        return np.einsum("i,ijk->jk", np.asarray(x, dtype=float), self.basis)

    def from_matrix(self, M, check=True):
        coords = -self.kappa * np.einsum("ij,aji->a", np.asarray(M, dtype=float), self.basis)
        if check:
            res = np.abs(self.to_matrix(coords) - M).max()
            scale = max(1.0, np.abs(M).max())
            if res > 1e-8 * scale:
                raise ValueError("matrix is not in the span of the algebra (residual %.3e)" % res)
        return coords

    # -- invariant checks ---------------------------------------------------

    def antisymmetry_residual(self):
        c = self.structure_constants
        return float(np.abs(c + c.transpose(1, 0, 2)).max())

    def jacobi_residual(self):
        c = self.structure_constants
        jac = (
            np.einsum("jkm,iml->ijkl", c, c)
            + np.einsum("kim,jml->ijkl", c, c)
            + np.einsum("ijm,kml->ijkl", c, c)
        )
        return float(np.abs(jac).max())

    def ad_invariance_residual(self):
        # <[x,y],z> + <y,[x,z]> over all basis triples.
        c = self.structure_constants
        g = self.bi_form
        lhs = np.einsum("xyk,kz->xyz", c, g) + np.einsum("xzk,yk->xyz", c, g)
        return float(np.abs(lhs).max())

    # -- torus data ----------------------------------------------------------

    @property
    def rank(self):
        if "rank" not in self._cache:
            if self.family in ("su", "sp", "so", "g2"):
                self._cache["rank"] = _family_rank(self.family, self.n)
            else:
                self._cache["rank"] = maximal_torus(self, np.eye(self.dim)).shape[0]
        return self._cache["rank"]

    def canonical_cartan(self):
        """Canonical maximal torus: (cartan basis, lattice generators).

        Both are coordinate arrays; lattice generators are the elements on
        which root covectors take their canonical integer values.  For g2 the
        lattice is derived from the simple roots during root extraction and
        None is returned here.
        """
        if "cartan" in self._cache:
            return self._cache["cartan"]
        fam, n = self.family, self.n
        if fam in ("su", "sp", "so"):
            units = np.eye(n // 2 if fam == "so" else n, dtype=int)
            lattice = np.stack([self.from_matrix(_torus_matrix(fam, n, w)) for w in units])
            cartan = _orthonormal_rows(lattice[: n - 1] if fam == "su" else lattice)
        elif fam == "g2":
            cartan = maximal_torus(self, np.eye(self.dim))
            lattice = None
        else:
            raise UnsupportedAlgebraError("no canonical torus for %r" % fam)
        self._cache["cartan"] = (cartan, lattice)
        return self._cache["cartan"]

    def root_datum(self):
        if "datum" not in self._cache:
            cartan, lattice = self.canonical_cartan()
            self._cache["datum"] = root_decomposition(self, cartan, lattice=lattice)
        return self._cache["datum"]


def _orthonormal_rows(rows, tol=1e-12):
    """Orthonormal basis (rows) of the row span, via SVD."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size == 0:
        return np.zeros((0, rows.shape[1] if rows.ndim == 2 else 0))
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    keep = s > tol * max(1.0, s[0] if len(s) else 1.0)
    return vt[keep]


def null_rows(A, tol):
    """Orthonormal rows spanning the kernel of A.

    These are the rows of Vt whose singular value is at most
    tol * max(1, s_max), the cutoff _orthonormal_rows uses for the row span.
    The full Vt is formed only for a wide A; a tall A gets the economy SVD
    and never its full U.  scipy's gesdd keeps the bases of
    scipy.linalg.null_space: numpy's LAPACK rotates some degenerate kernels,
    and with them the g2 basis and minkowski._fixed_vector.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _, s, vt = sla.svd(A, full_matrices=A.shape[0] < A.shape[1], check_finite=False)
    svals = np.zeros(vt.shape[0])
    svals[: len(s)] = s
    return vt[svals <= tol * max(1.0, svals[0])]


def _from_matrices(family, n, mats, kappa, notes=None):
    """Assemble a LieAlgebra from spanning matrices (must close under bracket).

    c_abc = -kappa tr([B_a, B_b] B_c) is formed one a-slice at a time: [B_a, .]
    by one batched product, its coordinates and closure residual by one gemm
    each, so peak memory is O(dim N^2) for N x N matrices, not O(dim^2 N^2).
    """
    M = np.stack([np.asarray(m, dtype=float) for m in mats])
    dim = len(mats)
    gram = -kappa * np.einsum("aij,bji->ab", M, M)
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise ValueError("independent generating matrices required") from exc
    basis = np.linalg.solve(L, M.reshape(dim, -1)).reshape(M.shape)
    flat, flat_t = basis.reshape(dim, -1), basis.transpose(0, 2, 1).reshape(dim, -1)
    c = np.empty((dim, dim, dim))
    closure = 0.0
    for a in range(dim):
        comm = (basis[a] @ basis - basis @ basis[a]).reshape(dim, -1)
        c[a] = -kappa * (comm @ flat_t.T)
        closure = max(closure, np.abs(comm - c[a] @ flat).max())
    if closure > 1e-8:
        raise ValueError("matrices do not close under bracket (residual %.3e)" % closure)
    bi = -kappa * np.einsum("aij,bji->ab", basis, basis)
    alg = LieAlgebra(
        family=family,
        n=n,
        dim=dim,
        basis=basis,
        kappa=kappa,
        structure_constants=c,
        bi_form=bi,
        notes=dict(notes or {}),
    )
    return alg


def subalgebra_from_matrices(parent, mats, family="sub"):
    """Lie algebra spanned by explicit matrices, inheriting the parent form."""
    return _from_matrices(family, parent.n, mats, parent.kappa)


def build_lie_algebra(family, n=0):
    """Construct a compact Lie algebra of the given family.

    su requires n >= 2, sp requires n >= 1, so requires n >= 3; n is ignored
    for g2.
    """
    if family in ("su", "sp", "so"):
        if n < {"su": 2, "sp": 1, "so": 3}[family]:
            raise UnsupportedAlgebraError("unsupported algebra: %s(%d)" % (family, n))
        if family == "sp":
            # off-diagonal units first, then the diagonal ones
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)] + [(k, k) for k in range(n)]
            mats = [m for (i, j) in pairs for m in _unit_generators("sp", n, i, j)]
        else:
            mats = _block_generators(family, n, list(range(n)))
    elif family == "g2":
        mats = _g2_matrices()
        n = 0
    else:
        raise UnsupportedAlgebraError("unsupported algebra: %r" % family)
    alg = _from_matrices(family, n, mats, _KAPPA[family])
    expected = _family_dim(family, n)
    if alg.dim != expected:
        raise RuntimeError("dimension mismatch for %s(%d): %d != %d" % (family, n, alg.dim, expected))
    return alg


def bracket(L, x, y):
    """Coordinates of [x, y] through the structure constants of L."""
    return L.bracket(x, y)


# ---------------------------------------------------------------------------
# root decomposition
# ---------------------------------------------------------------------------


@dataclass
class RootDatum:
    """Root planes of a compact algebra relative to a maximal torus.

    roots holds one integer covector per pair +-alpha (canonical positive
    representative, values on the lattice generators); planes[k] is a
    (dim, 2) orthonormal pair (x, y) with ad(h) x = alpha(h) y and
    ad(h) y = -alpha(h) x for h in the torus.
    """

    algebra: LieAlgebra
    cartan: np.ndarray
    lattice: np.ndarray
    roots: np.ndarray
    planes: np.ndarray
    zero_space: np.ndarray

    @property
    def n_pairs(self):
        return len(self.roots)

    def root_value(self, k, t):
        """alpha_k(t) for an arbitrary torus element t (coordinates)."""
        x, y = self.planes[k, :, 0], self.planes[k, :, 1]
        return float(y @ (self.algebra.ad(t) @ x))

    def plane_for_root(self, root):
        return self.planes[self.index_for_root(root)]

    def index_for_root(self, root):
        root = np.asarray(root, dtype=int)
        for k in range(self.n_pairs):
            if np.array_equal(self.roots[k], root) or np.array_equal(self.roots[k], -root):
                return k
        raise KeyError("no root pair %s" % (tuple(root.tolist()),))

    def label(self, k):
        return format_root(self.roots[k], symbol="e" if self.algebra.family != "g2" else "a")


def format_root(coeffs, symbol="e"):
    parts = []
    for i, c in enumerate(np.asarray(coeffs, dtype=int)):
        if c == 0:
            continue
        mag = abs(int(c))
        term = "%s%d" % (symbol, i + 1) if mag == 1 else "%d%s%d" % (mag, symbol, i + 1)
        parts.append(("-" if c < 0 else "+") + term)
    if not parts:
        return "0"
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def _first_primes(r):
    """The first r primes, by trial division."""
    primes = []
    k = 2
    while len(primes) < r:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def torus_blocks(ops, basis):
    """Split the span of basis rows into blocks rotated at one speed by a torus.

    ops stacks the commuting skew operators of the torus rows, and basis rows
    span a subspace they keep.  One real Schur form of the lead
    sum_i lam_i ops[i], lam the normalized square roots of the first primes,
    splits it: on a plane of integer weights w the lead turns at speed
    |lam . w|, and square roots of distinct primes are linearly independent
    over Q (A. S. Besicovitch, J. London Math. Soc. 15, 1940), so two weights
    share a speed only if they agree up to sign.  The Schur pairs of one speed
    form one block, spanned by their Schur vectors.  Every op must then kill
    the zero rows and act at one speed on each block (R R^T = s^2 I for its
    restriction R); a block that fails holds weights the lead merged, and
    raises RuntimeError.

    Returns (rotating blocks, zero rows), blocks as orthonormal rows.
    """
    tol = SPEED_CLUSTER_TOL
    lam = np.sqrt(_first_primes(len(ops)))
    lead = basis @ np.tensordot(lam / np.linalg.norm(lam), ops, axes=1) @ basis.T
    T, Z = sla.schur(lead, output="real")
    groups = {0.0: []}
    i = 0
    while i < len(T):
        pair = i + 1 < len(T) and abs(T[i + 1, i]) > tol
        speed = abs(T[i + 1, i]) if pair else 0.0
        key = next((s for s in groups if abs(s - speed) < tol * max(1.0, speed)), speed)
        groups.setdefault(key, []).extend([i, i + 1] if pair else [i])
        i += 2 if pair else 1
    zero_rows, *rotating = [_orthonormal_rows(Z[:, cols].T @ basis) for cols in groups.values()]
    if np.abs(zero_rows @ ops).max(initial=0.0) > tol:
        raise RuntimeError("a torus row does not kill the zero rows of the lead")
    for blk in rotating:
        R = blk @ ops @ blk.T
        RRt = R @ R.transpose(0, 2, 1)
        s2 = np.trace(RRt, axis1=1, axis2=2) / len(blk)
        if np.abs(RRt - s2[:, None, None] * np.eye(len(blk))).max() > tol * max(1.0, s2.max()):
            raise RuntimeError(
                "the lead merged weights of different speeds into one %d-dim block "
                "(squared speeds %s)" % (len(blk), np.round(s2, 6).tolist())
            )
    return rotating, zero_rows


def root_decomposition(L, cartan, lattice=None):
    """Decompose L into root planes for the given Cartan subalgebra.

    cartan: rows spanning a maximal abelian subalgebra.  lattice, when given,
    supplies the elements on which roots take integer values, and they lead
    the torus split; otherwise the orthonormal Cartan rows lead it and a
    lattice is derived from the simple roots.  ad of each leading row is
    formed once, and the root covectors, the derived lattice and the final
    check all read that stack.  Roots are reported in canonical order
    (ascending lexicographic on the integer covector, with the
    lexicographically positive representative of each pair).
    """
    cartan = np.atleast_2d(np.asarray(cartan, dtype=float))
    r = cartan.shape[0]
    if np.linalg.norm(L.ad(cartan) @ cartan.T, axis=1).max(initial=0.0) > 1e-8:
        raise ValueError("cartan subspace is not abelian")
    cart_on = _orthonormal_rows(cartan)
    if cart_on.shape[0] != r:
        raise ValueError("cartan basis is not linearly independent")
    expected = L.rank
    if cart_on.shape[0] != expected:
        raise ValueError(
            "cartan has dimension %d but the algebra has rank %d" % (cart_on.shape[0], expected)
        )

    rows = cart_on if lattice is None else np.atleast_2d(np.asarray(lattice, dtype=float))
    ads = L.ad(rows)
    rotating, zero_space = torus_blocks(ads, np.eye(L.dim))
    if any(blk.shape[0] != 2 for blk in rotating):
        raise RuntimeError("a torus block of %s is not a root plane" % L.family)
    if 2 * len(rotating) + len(zero_space) != L.dim:
        raise RuntimeError("root plane decomposition does not fill the algebra")
    planes = np.stack([blk.T for blk in rotating])
    # covectors on the rows: alpha_k(t) = <y_k, ad(t) x_k>
    vals = np.einsum("kd,mde,ke->km", planes[:, :, 1], ads, planes[:, :, 0])
    if lattice is None:
        coeffs = _derive_lattice(L, cart_on, vals)
        lattice, vals, ads = coeffs @ cart_on, vals @ coeffs.T, np.tensordot(coeffs, ads, axes=1)

    roots = np.round(vals)
    off = np.abs(vals - roots).max(axis=1)
    if off.max() > 1e-6:
        raise RuntimeError("non-integral root covector %s on the torus lattice" % vals[off.argmax()])
    roots = roots.astype(int)
    if not roots.any(axis=1).all():
        raise RuntimeError("zero covector on a rotation plane")
    # orient each plane so its first nonzero coordinate is positive
    sign = np.sign(roots[np.arange(len(roots)), (roots != 0).argmax(axis=1)])
    roots *= sign[:, None]
    planes[:, :, 1] *= sign[:, None]
    order = np.lexsort(roots.T[::-1])

    datum = RootDatum(
        algebra=L,
        cartan=cart_on,
        lattice=lattice,
        roots=roots[order],
        planes=planes[order],
        zero_space=zero_space,
    )
    _verify_datum(datum, ads)
    return datum


def _derive_lattice(L, cart_on, reps):
    """Lattice generators dual to the simple roots (used when no natural
    diagonal lattice exists, e.g. g2), as coefficient rows on cart_on; reps
    are the root covectors on cart_on.  The positive roots are positive on
    the torus part of maximal_torus's generic element, which is fixed in
    algebra coordinates, so they do not depend on the basis cart_on."""
    func = cart_on @ np.random.default_rng(_TORUS_SEED).standard_normal(L.dim)
    pos = reps * np.sign(reps @ func)[:, None]
    # the simple roots: positive roots that are no sum of two positive roots
    sums = (pos[:, None] + pos[None]).reshape(-1, len(func))
    simple = [a for a in pos if np.linalg.norm(sums - a, axis=1).min() > 1e-8]
    if len(simple) != cart_on.shape[0]:
        raise RuntimeError("could not identify simple roots")
    simple.sort(key=lambda v: float(v @ v))  # short roots first
    # lattice generator j: element of t with simple_i(ell_j) = delta_ij
    return np.linalg.inv(np.stack(simple)).T


def _verify_datum(datum, ads):
    """Rotation identities on every plane against every lattice generator,
    ads stacking ad of the lattice rows, and orthonormality of the planes
    and the zero space."""
    X, Y = datum.planes[:, :, 0], datum.planes[:, :, 1]
    a = datum.roots.T[:, :, None].astype(float)
    r1 = np.linalg.norm(X @ ads.transpose(0, 2, 1) - a * Y, axis=2)
    r2 = np.linalg.norm(Y @ ads.transpose(0, 2, 1) + a * X, axis=2)
    worst = (np.maximum(r1, r2) / np.maximum(1.0, np.abs(a[:, :, 0]))).max()
    if worst > 1e-7:
        raise RuntimeError("root plane rotation identity failed (residual %.3e)" % worst)
    V = np.vstack([X, Y, datum.zero_space])
    gram = V @ datum.algebra.bi_form @ V.T
    if np.abs(gram - np.eye(len(V))).max() > 1e-9:
        raise RuntimeError("root planes are not orthonormal")


def maximal_torus(L, span_rows):
    """Maximal torus of the subalgebra spanned by span_rows, as orthonormal
    rows.

    The torus is the kernel of ad(x) on the span for one generic element x
    of it: a generic element of a compact Lie algebra is regular, and its
    centralizer is the maximal torus through it.  The rank is the row count.
    """
    rows = _orthonormal_rows(span_rows)
    torus = rows
    if len(rows):
        x = np.random.default_rng(_TORUS_SEED).standard_normal(len(rows)) @ rows
        x /= np.linalg.norm(x)
        torus = null_rows(rows @ L.ad(x) @ rows.T, 1e-9) @ rows
    if np.abs(L.ad(torus) @ torus.T).max(initial=0.0) > 1e-8:
        raise RuntimeError("the centralizer of a generic element is not abelian")
    return torus
