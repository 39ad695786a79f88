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

ALGEBRA_TOL = 1e-10
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
    null = null_rows(np.stack(rows), 1e-10)
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
        """Matrix of ad(x) = [x, .] acting on coordinates."""
        x = np.asarray(x, dtype=float)
        return np.einsum("ijl,i->lj", self.structure_constants, x)

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

    def inner(self, x, y):
        return float(np.asarray(x) @ self.bi_form @ np.asarray(y))

    def norm(self, x):
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

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
    and with them the commutant element invariant_blocks draws.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _, s, vt = sla.svd(A, full_matrices=A.shape[0] < A.shape[1], check_finite=False)
    svals = np.zeros(vt.shape[0])
    svals[: len(s)] = s
    return vt[svals <= tol * max(1.0, svals[0])]


def _from_matrices(family, n, mats, kappa, notes=None):
    """Assemble a LieAlgebra from spanning matrices (must close under bracket)."""
    M = np.stack([np.asarray(m, dtype=float) for m in mats])
    dim = len(mats)
    gram = -kappa * np.einsum("aij,bji->ab", M, M)
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise ValueError("independent generating matrices required") from exc
    basis = np.linalg.solve(L, M.reshape(dim, -1)).reshape(M.shape)
    comm = np.einsum("aij,bjk->abik", basis, basis) - np.einsum("bij,ajk->abik", basis, basis)
    c = -kappa * np.einsum("abik,cki->abc", comm, basis)
    recon = np.einsum("abc,cik->abik", c, basis)
    closure = np.abs(comm - recon).max()
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

    su requires n >= 1, sp requires n >= 1, so requires n >= 3; n is ignored
    for g2.
    """
    if family in ("su", "sp", "so"):
        if n < (3 if family == "so" else 1):
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
        raise KeyError("no root pair %s" % (tuple(root),))

    def label(self, k):
        return format_root(self.roots[k], symbol="e" if self.algebra.family != "g2" else "a")

    def squared_lengths(self):
        """Squared root lengths in the metric dual to the invariant form."""
        cart = _orthonormal_rows(self.cartan)
        vals = np.array([[self.root_value(k, t) for t in cart] for k in range(self.n_pairs)])
        return (vals ** 2).sum(axis=1)


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


def _refine_invariant_planes(ops, basis, tol=SPEED_CLUSTER_TOL):
    """Split a subspace into planes/lines invariant under commuting skew ops.

    ops: list of (dim, dim) skew matrices (restrictions handled internally);
    basis: (k, dim) orthonormal rows spanning the starting subspace.
    Returns a list of orthonormal blocks, each with rotation speed constant
    for every op (2-dim planes or 1-dim kernel lines).
    """
    blocks = [np.atleast_2d(basis)]
    for A in ops:
        refined = []
        for blk in blocks:
            if blk.shape[0] <= 1:
                refined.append(blk)
                continue
            R = blk @ A @ blk.T  # restriction, skew
            if np.abs(R).max() < tol:
                refined.append(blk)
                continue
            T, Z = sla.schur(R, output="real")
            k = blk.shape[0]
            groups = {}
            i = 0
            order = []
            while i < k:
                if i + 1 < k and abs(T[i + 1, i]) > tol:
                    speed = abs(T[i + 1, i])
                    cols = [i, i + 1]
                    i += 2
                else:
                    speed = 0.0
                    cols = [i]
                    i += 1
                key = None
                for s in groups:
                    if abs(s - speed) < tol * max(1.0, speed):
                        key = s
                        break
                if key is None:
                    key = speed
                    groups[key] = []
                    order.append(key)
                groups[key].extend(cols)
            for key in order:
                refined.append(_orthonormal_rows(Z[:, groups[key]].T @ blk))
        blocks = refined
    return blocks


def _first_primes(r):
    """The first r primes, by trial division."""
    primes = []
    k = 2
    while len(primes) < r:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def torus_blocks(op, torus_rows, basis):
    """Split the span of basis rows into blocks rotated at one speed by a torus.

    op maps an element of the torus to its skew operator; torus_rows span the
    torus and basis rows an op-invariant subspace.  The refinement leads with
    op(lam . torus_rows), lam the normalized square roots of the first
    primes, whose speeds separate any two distinct integer weights; the op of
    each torus row then only orients the blocks.  The within-plane basis from
    the Schur form is arbitrary, so the lead is op of the combined element
    rather than the combination of the ops: that form fixes the planes.

    Returns (rotating blocks, zero rows), blocks as orthonormal rows.
    """
    lam = np.sqrt(_first_primes(len(torus_rows)))
    lam /= np.linalg.norm(lam)
    ops = [op(lam @ torus_rows)] + [op(t) for t in torus_rows]
    rotating, zero_rows = [], []
    for blk in _refine_invariant_planes(ops, basis):
        if max(np.abs(blk @ A @ blk.T).max() for A in ops) < SPEED_CLUSTER_TOL:
            zero_rows.extend(blk)
        else:
            rotating.append(blk)
    return rotating, np.array(zero_rows).reshape(len(zero_rows), basis.shape[1])


def root_decomposition(L, cartan, lattice=None):
    """Decompose L into root planes for the given Cartan subalgebra.

    cartan: rows spanning a maximal abelian subalgebra.  lattice, when given,
    supplies the elements on which roots take integer values; otherwise a
    lattice is derived from the simple roots.  Roots are reported in
    canonical order (ascending lexicographic on the integer covector, with
    the lexicographically positive representative of each pair).
    """
    cartan = np.atleast_2d(np.asarray(cartan, dtype=float))
    r = cartan.shape[0]
    for i in range(r):
        for j in range(i + 1, r):
            if np.linalg.norm(L.bracket(cartan[i], cartan[j])) > 1e-8:
                raise ValueError("cartan subspace is not abelian")
    cart_on = _orthonormal_rows(cartan)
    if cart_on.shape[0] != r:
        raise ValueError("cartan basis is not linearly independent")
    expected = L.rank
    if cart_on.shape[0] != expected:
        raise ValueError(
            "cartan has dimension %d but the algebra has rank %d" % (cart_on.shape[0], expected)
        )

    rotating, zero_space = torus_blocks(L.ad, cart_on, np.eye(L.dim))
    for blk in rotating:
        if blk.shape[0] != 2:
            raise RuntimeError(
                "simultaneous refinement failed to isolate a root plane (block dim %d)" % blk.shape[0]
            )
    planes = [blk.T.copy() for blk in rotating]
    if 2 * len(planes) + len(zero_space) != L.dim:
        raise RuntimeError("root plane decomposition does not fill the algebra")

    # orient each plane and measure covectors
    def covector(plane, elts):
        x, y = plane[:, 0], plane[:, 1]
        return np.array([float(y @ (L.ad(t) @ x)) for t in elts])

    if lattice is None:
        lattice = _derive_lattice(L, cart_on, planes, covector)
    lattice = np.atleast_2d(np.asarray(lattice, dtype=float))

    roots = []
    oriented = []
    for plane in planes:
        vals = covector(plane, lattice)
        ints = np.round(vals)
        if np.abs(vals - ints).max() > 1e-6:
            raise RuntimeError("non-integral root covector %s on the torus lattice" % vals)
        ints = ints.astype(int)
        flip = False
        nz = ints[ints != 0]
        if len(nz) == 0:
            raise RuntimeError("zero covector on a rotation plane")
        if nz[0] < 0:
            ints = -ints
            flip = True
        pl = plane.copy()
        if flip:
            pl[:, 1] = -pl[:, 1]
        roots.append(ints)
        oriented.append(pl)

    order = sorted(range(len(roots)), key=lambda k: tuple(roots[k]))
    roots = np.stack([roots[k] for k in order])
    planes = np.stack([oriented[k] for k in order])

    datum = RootDatum(
        algebra=L,
        cartan=cart_on,
        lattice=lattice,
        roots=roots,
        planes=planes,
        zero_space=zero_space,
    )
    _verify_datum(datum)
    return datum


def _derive_lattice(L, cart_on, planes, covector):
    """Lattice generators dual to the simple roots (used when no natural
    diagonal lattice exists, e.g. g2).  The positive roots are positive on
    the torus part of maximal_torus's generic element, which is fixed in
    algebra coordinates, so they do not depend on the basis cart_on."""
    reps = [covector(p, cart_on) for p in planes]
    func = cart_on @ np.random.default_rng(_TORUS_SEED).standard_normal(L.dim)
    pos = [v if v @ func > 0 else -v for v in reps]
    # the simple roots: positive roots that are no sum of two positive roots
    sums = (np.array(pos)[:, None] + np.array(pos)[None]).reshape(-1, len(func))
    simple = [a for a in pos if np.linalg.norm(sums - a, axis=1).min() > 1e-8]
    if len(simple) != cart_on.shape[0]:
        raise RuntimeError("could not identify simple roots")
    simple.sort(key=lambda v: float(v @ v))  # short roots first
    S = np.stack(simple)
    # lattice generator j: element of t with simple_i(ell_j) = delta_ij
    dual = np.linalg.solve(S, np.eye(S.shape[0]))
    return (dual.T @ cart_on)


def _verify_datum(datum, tol=ALGEBRA_TOL):
    L = datum.algebra
    # rotation identities on every plane against every lattice generator
    for k in range(datum.n_pairs):
        x, y = datum.planes[k, :, 0], datum.planes[k, :, 1]
        for m, t in enumerate(datum.lattice):
            a = float(datum.roots[k, m])
            r1 = np.linalg.norm(L.bracket(t, x) - a * y)
            r2 = np.linalg.norm(L.bracket(t, y) + a * x)
            if max(r1, r2) > 1e-7 * max(1.0, abs(a)):
                raise RuntimeError("root plane rotation identity failed (residual %.3e)" % max(r1, r2))
    # orthogonality of planes and zero space
    flat = [datum.planes[k, :, i] for k in range(datum.n_pairs) for i in (0, 1)]
    flat.extend(datum.zero_space)
    V = np.stack(flat)
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
    brackets = np.einsum("ajk,bj->abk", np.tensordot(torus, L.structure_constants, axes=1), torus)
    if np.abs(brackets).max(initial=0.0) > 1e-8:
        raise RuntimeError("the centralizer of a generic element is not abelian")
    return torus
