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

    def bracket_m(self, u, v):
        return np.einsum("ijk,i,j->k", self.m_bracket_tensor(), u, v)

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
        (dim_h, dim_m, dim_m) stack built once per space."""
        if "isotropy_ad" not in self._cache:
            M = self.m_basis
            ops = [M @ self.g.ad(h) @ M.T for h in self.h_basis]
            self._cache["isotropy_ad"] = np.array(ops).reshape(self.dim_h, self.dim_m, self.dim_m)
        return self._cache["isotropy_ad"]

    def sample_isotropy(self, count, seed=0):
        """Orthogonal matrices Ad(h)|_m for h sampled from H.

        Half the samples are torus points, half exponentials of generic
        isotropy directions.
        """
        rng = np.random.default_rng(seed)
        out = []
        nh = self.dim_h
        rt = self.t_h.shape[0]
        for k in range(count):
            if rt > 0 and k % 2 == 0:
                xi = (rng.integers(-3, 4, size=rt) + rng.random(rt)) @ self.t_h
            else:
                xi = rng.standard_normal(nh) @ self.h_basis
                xi *= rng.random() * np.pi / max(np.linalg.norm(xi), 1e-12)
            out.append(self.m_basis @ sla.expm(self.g.ad(xi)) @ self.m_basis.T)
        return out


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

    # closure under bracket
    for i in range(h_rows.shape[0]):
        for j in range(i + 1, h_rows.shape[0]):
            b = g.bracket(h_rows[i], h_rows[j])
            res = np.linalg.norm(b - h_rows.T @ (h_rows @ b))
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
    for i in range(h_rows.shape[0]):
        res = np.abs(m_rows @ g.ad(h_rows[i]).T @ h_rows.T).max() if h_rows.size else 0.0
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
        raise ValueError("element does not normalize the isotropy (residual %.3e)" % pres)

    hi_rows = _intersect_spans(c_rows, X.h_basis) if X.dim_h else np.zeros((0, g.dim))

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
    lists each root of h on t_H (h_root) with the root of g on t_H that
    restricts to it (g_restriction): that is h_root when some root plane
    of g is the h-plane, and None when none is.  Returns (verdict, report).
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
    if X.t_h.shape[0]:
        A = np.vstack([g.ad(t) for t in X.t_h])
        z_rows = null_rows(A, 1e-9)
    else:
        z_rows = np.eye(g.dim)
    P_off = np.eye(g.dim) - X.h_basis.T @ X.h_basis
    cols = []
    for za in z_rows:
        img = np.concatenate([P_off @ g.bracket(za, hb) for hb in X.h_basis])
        cols.append(img)
    M = np.stack(cols, axis=1)
    null = null_rows(M, 1e-8)
    n_rows = _orthonormal_rows(null @ z_rows) if null.shape[0] else np.zeros((0, g.dim))
    # t_H is central in the normalizer, so every maximal torus of it
    # contains t_H
    t_g = maximal_torus(g, n_rows)
    regular = t_g.shape[0] == g.rank
    report["normalizer_rank"] = int(t_g.shape[0])
    report["rank_required"] = int(g.rank)

    h_planes, _ = torus_blocks(g.ad, X.t_h, _orthonormal_rows(X.h_basis))
    if any(p.shape[0] != 2 for p in h_planes):
        raise RuntimeError("torus refinement left a block that is not a plane")
    if not h_planes:
        report["matching"] = []
        report["vacuous"] = True
        return regular, report
    report["vacuous"] = False

    g_planes = []
    if regular:
        report["torus_extension_dim"] = int(t_g.shape[0])
        g_planes, _ = torus_blocks(g.ad, t_g, np.eye(g.dim))
        if any(p.shape[0] != 2 for p in g_planes):
            raise RuntimeError("torus refinement left a block that is not a plane")
    matching = []
    for hp in h_planes:
        beta = [float(hp[1] @ g.ad(t) @ hp[0]) for t in X.t_h]
        # a root plane of g that is hp: ad(t_H) turns that one plane, so the
        # root of g restricts to beta
        matched = any(np.linalg.svd(hp @ gp.T, compute_uv=False).min() > 1.0 - 1e-8 for gp in g_planes)
        matching.append({"h_root": beta, "g_restriction": list(beta) if matched else None})
    if regular and any(m["g_restriction"] is None for m in matching):
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
    g = X.g
    rt = X.t_h_raw.shape[0]
    nm = X.dim_m
    if rt == 0:
        return InvariantDecomposition([np.eye(nm)], [tuple([0] * 0)], ["m0"])

    def op(t):
        return X.m_basis @ g.ad(t) @ X.m_basis.T

    ops = [op(t) for t in X.t_h_raw]
    rotating, zero_rows = torus_blocks(op, X.t_h_raw, np.eye(nm))
    entries = []
    for blk in rotating:
        # the lead separates distinct signatures, so on the block every op is
        # a multiple of one complex structure: the plane of a row and its
        # image is invariant, and the speeds measured on it are coherent
        x = blk[0]
        y = max((A @ x for A in ops), key=np.linalg.norm)
        y = y / np.linalg.norm(y)
        entries.append((np.array([float(y @ A @ x) for A in ops]), blk))

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


def _commutant_system(ops, nm):
    """The commutator [S, A] for every A in ops, as a linear map of the
    packed upper triangle of a symmetric S (np.triu_indices order): one
    block of nm * nm rows per op, one column per packed entry.

    Each op's block comes from all the packed unit symmetric matrices E at
    once.  A row of E holds one unit entry at most, so every entry of
    E A - A E is an entry of A or a difference of two, exactly as in a
    product formed column by column.  The temporaries are the size of one
    op's block."""
    iu = np.triu_indices(nm)
    k = len(iu[0])
    E = np.zeros((k, nm, nm))
    E[np.arange(k), iu[0], iu[1]] = 1.0
    E[np.arange(k), iu[1], iu[0]] = 1.0
    mat = np.empty((len(ops) * nm * nm, k))
    for a, A in enumerate(ops):
        mat[a * nm * nm:(a + 1) * nm * nm] = (E @ A - A @ E).reshape(k, nm * nm).T
    return mat


def invariant_blocks(X, seed=0):
    """Finest Ad(H)-invariant orthogonal splitting of m, via the commutant.

    Solves for all symmetric matrices commuting with every ad(h)|_m and
    takes eigenspaces of a seeded generic element; each returned block is an
    exactly invariant subspace (rows in m-coordinates).  The commutant does
    not depend on the seed and is solved once per space.
    """
    nm = X.dim_m
    if X.dim_h == 0:
        return [np.eye(nm)]
    ops = X.isotropy_ad()
    if "commutant" not in X._cache:
        X._cache["commutant"] = null_rows(_commutant_system(ops, nm), 1e-10)
    null = X._cache["commutant"]
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(null.shape[0])
    # kernel vectors as contiguous columns: the basis eigh returns inside a
    # degenerate eigenvalue of S, and so every pole later maximized over a
    # block, follows the last bits of this product
    S = np.zeros((nm, nm))
    S[np.triu_indices(nm)] = np.ascontiguousarray(null.T) @ coeffs
    S = S + S.T - np.diag(np.diag(S))
    S = 0.5 * (S + S.T)
    vals, vecs = np.linalg.eigh(S)
    spread = max(vals.max() - vals.min(), 1.0)
    blocks = []
    start = 0
    for i in range(1, nm + 1):
        if i == nm or vals[i] - vals[i - 1] > 1e-6 * spread:
            blocks.append(vecs[:, start:i].T.copy())
            start = i
    for blk in blocks:
        for A in ops:
            off = np.abs((np.eye(nm) - blk.T @ blk) @ (A @ blk.T)).max()
            if off > 1e-9:
                raise RuntimeError("commutant block is not invariant (residual %.3e)" % off)
    return blocks
