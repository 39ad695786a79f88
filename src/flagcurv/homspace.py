"""Reductive homogeneous spaces G/H from subalgebra specifications.

A space stores the orthogonal splitting g = h + m for the invariant form,
a maximal torus of h with its integer weight data when available, and an
m-basis adapted to the root planes of g whenever the isotropy is spanned by
torus directions and whole root planes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .liealg import (
    _TORUS_SEED,
    LieAlgebra,
    _block_generators,
    _complex_to_real,
    _orthonormal_rows,
    _quat_to_real,
    _torus_matrix,
    _unit_generators,
    maximal_torus,
    null_rows,
    subalgebra_from_matrices,
    torus_blocks,
)

# eigenvalues of A^2, A the lead of _commutant, closer than this times |A|^2 form one cluster
LEAD_GAP = 1e-4


# ---------------------------------------------------------------------------
# subalgebra specifications
# ---------------------------------------------------------------------------


@dataclass
class SubalgebraSpec:
    """Isotropy specification: a list of generator pieces.

    Pieces: ("block", indices), ("circle", weights), ("sp1_block", index),
    ("explicit", matrices).  Indices are 1-based to match the usual
    block-subgroup notation.
    """

    pieces: list

    @staticmethod
    def block(*indices):
        return ("block", tuple(int(i) for i in indices))

    @staticmethod
    def circle(*weights):
        return ("circle", tuple(int(w) for w in weights))

    @staticmethod
    def sp1_block(index):
        return ("sp1_block", int(index))

    @staticmethod
    def explicit(matrices):
        return ("explicit", [np.asarray(m, dtype=float) for m in matrices])


def _block_indices(L, indices):
    """0-based coordinates of a block piece, checked against the family."""
    idx = [i - 1 for i in indices]
    if any(i < 0 or i >= L.n for i in idx) or len(set(idx)) != len(idx):
        raise ValueError("block indices out of range")
    if L.family not in ("su", "sp", "so"):
        raise ValueError("block pieces are only defined for su/sp/so")
    return idx


def _circle_generator(L, weights):
    """Torus generator of the circle with the given integer weights.

    Returns (matrix, weight vector, note).  su weights with nonzero sum are
    projected to the traceless part; the shift is recorded in the note.
    """
    fam, n = L.family, L.n
    weights = np.asarray(weights, dtype=float)
    if np.abs(weights - np.round(weights)).max() > 1e-9:
        raise ValueError("circle weights must be integers")
    w = np.round(weights).astype(int)
    if fam not in ("su", "sp", "so"):
        raise ValueError("circle pieces are only defined for su/sp/so")
    r = n // 2 if fam == "so" else n
    if len(w) != r:
        raise ValueError("circle weights must have length %d for %s(%d)" % (r, fam, n))
    note = None
    if fam == "su" and w.sum() != 0:
        note = "circle weights sum to %d; projected to the traceless part" % int(w.sum())
    return _torus_matrix(fam, n, w), w, note


def _intersect_spans(A, B, tol=1e-9):
    """Orthonormal basis of span(A) cap span(B) (rows)."""
    A = _orthonormal_rows(A)
    B = _orthonormal_rows(B)
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((0, A.shape[1] if A.size else B.shape[1]))
    M = A @ B.T
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    keep = S > 1.0 - tol
    if not keep.any():
        return np.zeros((0, A.shape[1]))
    return _orthonormal_rows(U[:, keep].T @ A)


# ---------------------------------------------------------------------------
# homogeneous space
# ---------------------------------------------------------------------------


@dataclass
class HomogeneousSpace:
    g: LieAlgebra
    h_basis: np.ndarray
    m_basis: np.ndarray
    rank_g: int
    rank_h: int
    t_h: np.ndarray
    t_h_raw: np.ndarray
    t_h_weights: list
    plane_slices: dict
    tm_slice: tuple
    adapted: bool
    notes: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim_h(self):
        return self.h_basis.shape[0]

    @property
    def dim_m(self):
        return self.m_basis.shape[0]

    # -- coordinates ---------------------------------------------------------

    def lift(self, u):
        """m-coordinates -> algebra coordinates."""
        return np.asarray(u, dtype=float) @ self.m_basis

    def project_m(self, x):
        return self.m_basis @ np.asarray(x, dtype=float)

    def m_bracket_tensor(self):
        """bm[i,j,k] with [m_i, m_j]_m = sum_k bm[i,j,k] m_k."""
        if "bm" not in self._cache:
            bg = self.full_bracket_tensor()
            self._cache["bm"] = np.einsum("ije,ke->ijk", bg, self.m_basis)
        return self._cache["bm"]

    def full_bracket_tensor(self):
        """bg[i,j,:] = algebra coordinates of [m_i, m_j]."""
        if "bg" not in self._cache:
            c = self.g.structure_constants
            M = self.m_basis
            self._cache["bg"] = np.einsum("abe,ia,jb->ije", c, M, M)
        return self._cache["bg"]

    def bracket_full(self, u, v):
        return np.einsum("ije,i,j->e", self.full_bracket_tensor(), u, v)

    def m_vector(self, root=None, xy=(1.0, 0.0), vector=None):
        """Build an m-coordinate vector, either raw or as root-plane data."""
        if vector is not None:
            v = np.asarray(vector, dtype=float)
            if v.shape != (self.dim_m,):
                raise ValueError("raw vector must have length %d" % self.dim_m)
            return v
        if root is None:
            raise ValueError("either root or vector must be given")
        sl = self.root_plane_slice(root)
        v = np.zeros(self.dim_m)
        v[sl[0]] = xy[0]
        v[sl[0] + 1] = xy[1]
        return v

    def root_plane_slice(self, root):
        if not self.plane_slices:
            raise ValueError("space basis is not adapted to root planes")
        key = tuple(int(r) for r in root)
        if key in self.plane_slices:
            return self.plane_slices[key]
        neg = tuple(-r for r in key)
        if neg in self.plane_slices:
            return self.plane_slices[neg]
        raise KeyError("root plane %s is not contained in m" % (key,))

    # -- group action ----------------------------------------------------------

    def ad_matrix(self, elt):
        """Ad(elt) acting on algebra coordinates, for a realized group matrix."""
        return _ad_matrix(self.g, elt)

    def isotropy_ad(self):
        """ad(h)|_m in m-coordinates for every row h of h_basis, as one
        (dim_h, dim_m, dim_m) stack: M @ g.ad(h_basis) @ M.T for M the
        m_basis, formed once per space."""
        if "isotropy_ad" not in self._cache:
            self._cache["isotropy_ad"] = self.m_basis @ self.g.ad(self.h_basis) @ self.m_basis.T
        return self._cache["isotropy_ad"]

    def sample_isotropy(self, count, seed=0):
        """Orthogonal matrices Ad(h)|_m for h sampled from H.

        Half the samples are torus points, half exponentials of generic
        isotropy directions.
        """
        rng = np.random.default_rng(seed)
        xis = np.zeros((count, self.g.dim))
        nh = self.dim_h
        rt = self.t_h.shape[0]
        for k in range(count):
            if rt > 0 and k % 2 == 0:
                xis[k] = (rng.integers(-3, 4, size=rt) + rng.random(rt)) @ self.t_h
            else:
                xi = rng.standard_normal(nh) @ self.h_basis
                xis[k] = xi * (rng.random() * np.pi / max(np.linalg.norm(xi), 1e-12))
        return list(self.m_basis @ sla.expm(self.g.ad(xis)) @ self.m_basis.T)


def build_space(g, spec, name=None):
    """Assemble G/H data from an isotropy specification.

    Raises ValueError("not a subalgebra") when the generated span fails to
    close under the bracket; a ValueError raised by the i-th piece carries i
    as piece_index.
    """
    if isinstance(spec, SubalgebraSpec):
        pieces = spec.pieces
    else:
        pieces = list(spec)
    notes = {}
    if name:
        notes["name"] = name
    gen_rows = []
    torus_rows = []
    torus_weights = []
    has_explicit = False
    for index, piece in enumerate(pieces):
        try:
            kind = piece[0]
            if kind == "block":
                idx = _block_indices(g, piece[1])
                gen_rows.extend(g.from_matrix(m) for m in _block_generators(g.family, g.n, idx))
                torus_rows.extend(_block_torus(g, idx, torus_weights))
            elif kind == "circle":
                mat, w, note = _circle_generator(g, piece[1])
                row = g.from_matrix(mat)
                gen_rows.append(row)
                torus_rows.append(row)
                torus_weights.append(np.asarray(w, dtype=int))
                if note:
                    notes.setdefault("circle", []).append(note)
            elif kind == "sp1_block":
                if g.family != "sp":
                    raise ValueError("sp1_block pieces require an sp algebra")
                i = piece[1] - 1
                if i < 0 or i >= g.n:
                    raise ValueError("sp1_block index out of range")
                rows = [g.from_matrix(m) for m in _unit_generators("sp", g.n, i, i)]
                gen_rows.extend(rows)
                torus_rows.append(rows[0])  # the i-unit direction
                torus_weights.append(np.eye(g.n, dtype=int)[i])
            elif kind == "explicit":
                has_explicit = True
                mats = [np.asarray(m, dtype=float) for m in piece[1]]
                if any(m.shape != g.basis.shape[1:] for m in mats):
                    raise ValueError("explicit matrices must be %d x %d" % g.basis.shape[1:])
                gen_rows.extend(g.from_matrix(m) for m in mats)
            else:
                raise ValueError("unknown isotropy piece %r" % (kind,))
        except ValueError as err:
            err.piece_index = index
            raise

    if gen_rows:
        h_rows = _orthonormal_rows(np.stack(gen_rows))
    else:
        h_rows = np.zeros((0, g.dim))
    if h_rows.shape[0] == g.dim:
        raise ValueError("the isotropy spans all of g, so its complement m is empty")

    # closure under bracket: column j of B[i] is [h_i, h_j]
    B = g.ad(h_rows) @ h_rows.T
    res = np.linalg.norm(B - h_rows.T @ (h_rows @ B), axis=1).max(initial=0.0)
    if res > 1e-8:
        raise ValueError("not a subalgebra (closure residual %.3e)" % res)

    t_on = maximal_torus(g, h_rows)
    rank_h = t_on.shape[0]

    # the lattice generators of the pieces, when they span a maximal torus of h
    t_pieces = _orthonormal_rows(np.stack(torus_rows)) if torus_rows and not has_explicit else None
    if t_pieces is not None and t_pieces.shape[0] == rank_h:
        t_on, t_raw, weights = t_pieces, np.stack(torus_rows), list(torus_weights)
    else:
        t_raw, weights = t_on.copy(), None

    space = _assemble_space(g, h_rows, rank_h, t_on, t_raw, weights, notes)
    return space


def _block_torus(g, idx, weights_out):
    """Torus generators of a block piece on the 0-based coordinates idx,
    appending their weight vectors."""
    fam, n = g.family, g.n
    weights = []
    if fam == "su":
        for i, j in zip(idx, idx[1:]):
            w = np.zeros(n, dtype=int)
            w[i], w[j] = 1, -1
            weights.append(w)
    elif fam == "sp":
        weights = [np.eye(n, dtype=int)[i] for i in idx]
    else:
        # so: the coordinate planes (2k, 2k+1) the block contains whole
        used = set(idx)
        weights = [np.eye(n // 2, dtype=int)[k] for k in range(n // 2) if {2 * k, 2 * k + 1} <= used]
    weights_out.extend(weights)
    return [g.from_matrix(_torus_matrix(fam, n, w)) for w in weights]


def _assemble_space(g, h_rows, rank_h, t_on, t_raw, weights, notes):
    dim = g.dim
    P_h = h_rows.T @ h_rows if h_rows.size else np.zeros((dim, dim))
    comp = _orthonormal_rows(np.eye(dim) - P_h, tol=1e-9)
    if comp.shape[0] != dim - h_rows.shape[0]:
        raise RuntimeError("complement dimension mismatch")

    plane_slices = {}
    tm_slice = None
    adapted = False
    m_rows = comp
    try:
        datum = g.root_datum()
    except (ValueError, RuntimeError):
        datum = None  # derived algebras carry no canonical torus
    if datum is not None:
        rows = []
        t_space = np.vstack([datum.zero_space]) if len(datum.zero_space) else np.zeros((0, dim))
        t_in_h = _intersect_spans(t_space, h_rows) if h_rows.size else np.zeros((0, dim))
        tm = _orthonormal_rows(t_space - (t_space @ t_in_h.T) @ t_in_h, tol=1e-9) if t_space.size else t_space
        ok = True
        slices = {}
        for k in range(datum.n_pairs):
            plane = datum.planes[k]
            in_h = np.linalg.norm(P_h @ plane)
            if in_h < 1e-9:
                continue
            if np.linalg.norm(plane - P_h @ plane) > 1e-9:
                ok = False
                break
        if ok:
            rows.extend(tm)
            tm_slice = (0, tm.shape[0])
            pos = tm.shape[0]
            for k in range(datum.n_pairs):
                plane = datum.planes[k]
                if np.linalg.norm(P_h @ plane) < 1e-9:
                    rows.append(plane[:, 0])
                    rows.append(plane[:, 1])
                    slices[tuple(int(r) for r in datum.roots[k])] = (pos, 2)
                    pos += 2
            if rows and len(rows) == dim - h_rows.shape[0]:
                m_rows = np.stack(rows)
                plane_slices = slices
                adapted = True
            else:
                tm_slice = None

    # invariance of the complement
    res = np.abs(h_rows @ g.ad(h_rows) @ m_rows.T).max(initial=0.0)
    if res > 1e-8:
        raise RuntimeError("[h, m] is not contained in m (residual %.3e)" % res)

    space = HomogeneousSpace(
        g=g,
        h_basis=h_rows,
        m_basis=m_rows,
        rank_g=g.rank,
        rank_h=rank_h,
        t_h=t_on,
        t_h_raw=t_raw,
        t_h_weights=weights,
        plane_slices=plane_slices,
        tm_slice=tm_slice,
        adapted=adapted,
        notes=notes,
    )
    return space


# ---------------------------------------------------------------------------
# centralizers and fixed-point spaces
# ---------------------------------------------------------------------------


def diag_element(L, entries):
    """Realized diagonal group element from complex unit entries."""
    fam, n = L.family, L.n
    entries = [complex(z) for z in entries]
    if len(entries) != n:
        raise ValueError("expected %d diagonal entries" % n)
    if any(abs(abs(z) - 1.0) > 1e-12 for z in entries):
        raise ValueError("diagonal entries must have unit modulus")
    D = np.diag(np.asarray(entries, dtype=complex))
    if fam == "su":
        return _complex_to_real(D)
    if fam == "sp":
        return _quat_to_real(D, np.zeros((n, n), dtype=complex))
    if fam == "so":
        if any(abs(z.imag) > 1e-12 for z in entries):
            raise ValueError("so diagonal elements must be real +-1")
        return np.diag([z.real for z in entries])
    raise ValueError("diagonal elements are not defined for %r" % fam)


def centralizer_subalgebra(g, elt):
    """Basis of the fixed algebra of Ad(elt), as coordinate rows.

    elt must be orthogonal in the real realization and act on the algebra.
    """
    elt = np.asarray(elt, dtype=float)
    if elt.shape != g.basis[0].shape:
        raise ValueError("element has the wrong realization size")
    if np.abs(elt @ elt.T - np.eye(elt.shape[0])).max() > 1e-9:
        raise ValueError("element is not in the group (orthogonality check failed)")
    return null_rows(_ad_matrix(g, elt) - np.eye(g.dim), 1e-9)


def _ad_matrix(g, elt):
    """Ad(elt) on algebra coordinates: coordinates of elt b_a elt^T."""
    conj = np.einsum("ij,ajk,kl->ail", elt, g.basis, elt.T)
    R = -g.kappa * np.einsum("aij,bji->ba", conj, g.basis)
    recon = np.einsum("ba,bjk->ajk", R, g.basis)
    res = np.abs(recon - conj).max()
    if res > 1e-8:
        raise ValueError("element does not act on the algebra (residual %.3e)" % res)
    return R


def fixed_point_space(X, iota):
    """Homogeneous space carried by the fixed-point set of Ad(iota).

    The total algebra is the centralizer c(iota), the isotropy c(iota) cap h.
    Rank equalities and the parity of the codimension are recorded in the
    notes of the returned space.
    """
    g = X.g
    c_rows = centralizer_subalgebra(g, iota)
    R = X.ad_matrix(iota)
    pres = np.abs(X.m_basis @ R.T @ X.h_basis.T).max() if X.dim_h else 0.0
    if pres > 1e-8:
        raise ValueError("element does not normalize the isotropy, so its fixed algebra c(iota) "
                         "has no fixed-point space in G/H (residual %.3e)" % pres)

    hi_rows = _intersect_spans(c_rows, X.h_basis) if X.dim_h else np.zeros((0, g.dim))
    if len(hi_rows) == len(c_rows):
        raise ValueError("the fixed algebra c(iota) (dimension %d) lies in the isotropy, so "
                         "the fixed-point space is a point" % len(c_rows))

    mats = [g.to_matrix(r) for r in c_rows]
    Lc = subalgebra_from_matrices(g, mats, family="fix(%s)" % g.family)

    h_sub = [g.to_matrix(r) for r in hi_rows]
    spec = SubalgebraSpec(pieces=[SubalgebraSpec.explicit(h_sub)] if h_sub else [])
    sub = build_space(Lc, spec)

    codim = X.dim_m - sub.dim_m
    sub.notes.update(
        {
            "fixed_point_of": "involution" if np.abs(iota @ iota - np.eye(iota.shape[0])).max() < 1e-9 else "element",
            "rank_total": sub.rank_g,
            "rank_total_equals_rank_g": bool(sub.rank_g == X.rank_g),
            "rank_isotropy": sub.rank_h,
            "rank_isotropy_equals_rank_h": bool(sub.rank_h == X.rank_h),
            "codimension": int(codim),
            "codimension_even": bool(codim % 2 == 0),
        }
    )
    return sub


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def is_regular_subalgebra(X):
    """Whether every root of h restricts from a root of g.

    Equivalent formulation used here: h is regular exactly when some
    maximal torus of g normalizes it.  The normalizer of h inside the
    centralizer of t_H is a subalgebra containing t_H; h is regular iff
    that normalizer has full rank.  When it does, a maximal torus of the
    normalizer aligns the root planes of g with those of h, and the report
    lists each root of h on t_H (h_root) with whether some root plane of g
    is its h-plane (matched); the root of g on a matched plane restricts to
    h_root itself.  Returns (verdict, report).
    The pair is computed once per space; each call gets its own copy of the
    report.
    """
    if "regular" not in X._cache:
        X._cache["regular"] = _regularity(X)
    regular, report = X._cache["regular"]
    return regular, copy.deepcopy(report)


def _regularity(X):
    g = X.g
    report = {}
    if X.dim_h == 0:
        report["matching"] = []
        report["vacuous"] = True
        return True, report

    # centralizer of t_H and the normalizer of h inside it
    ads_h = g.ad(X.t_h)
    z_rows = null_rows(np.vstack(ads_h), 1e-9)
    # column a holds the components of [z_a, h] off h
    P_off = np.eye(g.dim) - X.h_basis.T @ X.h_basis
    M = (P_off @ g.ad(z_rows) @ X.h_basis.T).reshape(len(z_rows), -1).T
    null = null_rows(M, 1e-8)
    n_rows = _orthonormal_rows(null @ z_rows) if null.shape[0] else np.zeros((0, g.dim))
    # t_H is central in the normalizer, so every maximal torus of it
    # contains t_H
    t_g = maximal_torus(g, n_rows)
    regular = t_g.shape[0] == g.rank
    report["normalizer_rank"] = int(t_g.shape[0])
    report["rank_required"] = int(g.rank)

    h_planes, _ = torus_blocks(ads_h, _orthonormal_rows(X.h_basis))
    if any(p.shape[0] != 2 for p in h_planes):
        raise RuntimeError("torus refinement left a block that is not a plane")
    if not h_planes:
        report["matching"] = []
        report["vacuous"] = True
        return regular, report
    report["vacuous"] = False

    g_planes = []
    if regular:
        g_planes, _ = torus_blocks(g.ad(t_g), np.eye(g.dim))
        if any(p.shape[0] != 2 for p in g_planes):
            raise RuntimeError("torus refinement left a block that is not a plane")
    matching = []
    for hp in h_planes:
        beta = (hp[1] @ ads_h @ hp[0]).tolist()
        # a root plane of g that is hp: ad(t_H) turns that one plane, so the
        # root of g restricts to beta
        matched = any(np.linalg.svd(hp @ gp.T, compute_uv=False).min() > 1.0 - 1e-8 for gp in g_planes)
        matching.append({"h_root": beta, "matched": matched})
    if regular and not all(m["matched"] for m in matching):
        regular = False
    report["matching"] = matching
    return regular, report


# ---------------------------------------------------------------------------
# isotropy decompositions and invariant blocks
# ---------------------------------------------------------------------------


@dataclass
class InvariantDecomposition:
    summands: list
    signatures: list
    labels: list

    def dims(self):
        return [s.shape[0] for s in self.summands]


def isotropy_invariant_decomposition(X):
    """Split m into ad(t_H)-weight subspaces merged by equal signature.

    Signatures are integer vectors of rotation speeds against the raw torus
    generators of H (exact integers when the isotropy carries lattice data);
    summands are m-coordinate row bases, the zero summand first, the rest in
    ascending signature order.
    """
    rt = X.t_h_raw.shape[0]
    nm = X.dim_m
    if rt == 0:
        return InvariantDecomposition([np.eye(nm)], [tuple([0] * 0)], ["m0"])

    ops = X.m_basis @ X.g.ad(X.t_h_raw) @ X.m_basis.T
    rotating, zero_rows = torus_blocks(ops, np.eye(nm))
    entries = []
    for blk in rotating:
        # the lead separates distinct signatures, so on the block every op is
        # a multiple of one complex structure: the plane of a row and its
        # image is invariant, and the speeds measured on it are coherent
        images = ops @ blk[0]
        y = images[np.argmax(np.linalg.norm(images, axis=1))]
        entries.append((images @ y / np.linalg.norm(y), blk))

    # integer signatures; weights from lattice-backed generators are already
    # integral, otherwise rescale globally by the smallest nonzero speed
    all_speeds = np.concatenate([np.abs(sig) for sig, _ in entries]) if entries else np.array([1.0])
    if np.abs(all_speeds - np.round(all_speeds)).max() > 1e-6:
        scale = all_speeds[all_speeds > 1e-8].min()
    else:
        scale = 1.0

    def canonical(sig):
        ints = np.round(sig / scale)
        if np.abs(sig / scale - ints).max() > 1e-6:
            raise ValueError(
                "the torus basis of this explicit rank-%d isotropy is not lattice-aligned, so "
                "integer weights are undefined (speeds %s)" % (rt, np.round(sig, 4).tolist())
            )
        ints = ints.astype(int)
        nz = ints[ints != 0]
        if len(nz) and nz[0] < 0:
            ints = -ints
        return tuple(ints)

    groups = {}
    for sig, blk in entries:
        key = canonical(sig)
        groups.setdefault(key, []).append(blk)

    summands = []
    signatures = []
    if len(zero_rows):
        summands.append(_orthonormal_rows(zero_rows))
        signatures.append(tuple([0] * rt))
    for key in sorted(groups):
        summands.append(_orthonormal_rows(np.vstack(groups[key])))
        signatures.append(key)
    labels = ["m%d" % k for k in range(len(summands))]
    return InvariantDecomposition(summands, signatures, labels)


def ad_rotation_speeds(X, torus_weights, datum=None):
    """Integer rotation speeds of Ad of a weighted circle on the m root planes.

    torus_weights is an integer vector in the lattice of the canonical torus
    of g; the speed on the plane of root alpha is |alpha . w|, computed in
    integer arithmetic.  Returns (root tuple, label, speed) triples in
    canonical root order.
    """
    if datum is None:
        datum = X.g.root_datum()
    w = np.asarray(torus_weights, dtype=float)
    if np.abs(w - np.round(w)).max() > 1e-9:
        raise ValueError("torus element is outside the integer lattice")
    w = np.round(w).astype(int)
    if w.shape != (datum.lattice.shape[0],):
        raise ValueError("expected %d weights" % datum.lattice.shape[0])
    P_h = X.h_basis.T @ X.h_basis if X.dim_h else np.zeros((X.g.dim, X.g.dim))
    out = []
    for k in range(datum.n_pairs):
        plane = datum.planes[k]
        if np.linalg.norm(P_h @ plane) > 1e-9:
            if np.linalg.norm(plane - P_h @ plane) > 1e-9:
                raise ValueError("root plane %s straddles the splitting" % (tuple(datum.roots[k]),))
            continue
        speed = int(abs(int(datum.roots[k] @ w)))
        out.append((tuple(int(r) for r in datum.roots[k]), datum.label(k), speed))
    return out


def _commutant(ops, centre):
    """Frobenius-orthonormal basis, as a (k, nm, nm) stack, of the symmetric
    matrices that commute with the skew stack ops, the representation of an
    algebra h whose centre has coefficient rows centre on ops.

    A symmetric S that commutes with a skew A commutes with A^2, so it
    preserves every eigenspace of A^2, and every union of them, for the lead
    A, a generic element drawn from the fixed seed.  Eigenvalues of A^2
    closer than LEAD_GAP * |A|^2 form one cluster: eigenvectors that close
    are mixed, while the span of a cluster is accurate.  Only the symmetric
    blocks on the clusters are unknowns, and [S, A] = 0 restores any finer
    split a cluster merges.  Two generic elements and the centre generate a
    compact h (M. Kuranishi, Nagoya Math. J. 2, 1951), so S commutes with
    ops once it commutes with the lead, the next draw and the centre."""
    nm = ops.shape[1]
    gens = np.tensordot(np.random.default_rng(_TORUS_SEED).standard_normal((2, len(ops))), ops, axes=1)
    vals, V = np.linalg.eigh(gens[0] @ gens[0])
    cluster = np.concatenate([[0], np.cumsum(np.diff(vals) > LEAD_GAP * np.abs(vals).max())])
    gens = np.concatenate([gens, np.tensordot(centre, ops, axes=1)])
    # unknowns: the unit symmetric matrices within one cluster, in the
    # eigenbasis and of Frobenius norm 1, so kernel rows are orthonormal
    p, q = np.triu_indices(nm)
    pairs = cluster[p] == cluster[q]
    k = np.arange(np.count_nonzero(pairs))
    E = np.zeros((len(k), nm, nm))
    E[k, p[pairs], q[pairs]] = E[k, q[pairs], p[pairs]] = np.where(p == q, 1.0, np.sqrt(0.5))[pairs]
    # [S, B] is symmetric: its upper triangle holds every condition
    system = np.vstack([(E @ B - B @ E).reshape(len(E), -1)[:, p * nm + q].T for B in V.T @ gens @ V])
    kernel = np.tensordot(null_rows(system, 1e-10), E, axes=1)
    return V @ kernel @ V.T


def invariant_blocks(X, seed=0):
    """Finest Ad(H)-invariant orthogonal splitting of m, via the commutant.

    The commutant of ad(h)|_m is solved once per space by _commutant: the
    symmetric matrices, block diagonal over the clusters of eigenvalues of
    A^2 (gaps within a cluster below LEAD_GAP * |A|^2) for the lead A, a
    generic isotropy element drawn from a fixed seed, that commute with a
    generating set of h: the lead, the next draw and a basis of the centre
    of h.  The seeded
    element S is the Frobenius projection of a seeded symmetric R (upper
    triangle standard normal), S = sum_i <R, N_i> N_i over the cached
    orthonormal basis N, so S does not depend on that basis.  The
    eigenspaces of S are the blocks (rows in m-coordinates), and each is
    checked to be invariant under ad(h) for every row h of h_basis.
    """
    nm = X.dim_m
    if X.dim_h == 0:
        return [np.eye(nm)]
    ops = X.isotropy_ad()
    if "commutant" not in X._cache:
        # the h-coordinates of [h_a, h_b] for each a, against b
        centre = null_rows((X.h_basis @ X.g.ad(X.h_basis) @ X.h_basis.T).reshape(-1, X.dim_h), 1e-9)
        X._cache["commutant"] = _commutant(ops, centre)
    null = X._cache["commutant"]
    R = np.zeros((nm, nm))
    R[np.triu_indices(nm)] = np.random.default_rng(seed).standard_normal(nm * (nm + 1) // 2)
    S = np.tensordot(np.tensordot(null, R + np.triu(R, 1).T, axes=2), null, axes=1)
    vals, vecs = np.linalg.eigh(S)
    cuts = np.flatnonzero(np.diff(vals) > 1e-6 * max(vals[-1] - vals[0], 1.0)) + 1
    blocks = [blk.T.copy() for blk in np.split(vecs, cuts, axis=1)]
    for blk in blocks:
        off = np.abs((np.eye(nm) - blk.T @ blk) @ ops @ blk.T).max()
        if off > 1e-9:
            raise RuntimeError("commutant block is not invariant (residual %.3e)" % off)
    return blocks
