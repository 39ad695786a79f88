"""Reversible Ad(H)-invariant Minkowski norms on the tangent model m.

Three families are supported:

* riemannian          F(v) = sqrt(v' Q v)
* alpha_beta          F(v) = |v| phi(<v0, v/|v|>), phi an even polynomial
* quartic_perturbed   F(v) = (Q(v)^2 + eps P(v))^(1/4), P a positive
                      combination of squares of invariant quadratics

All three are positively 1-homogeneous and reversible by construction.
make_norm checks Ad(H)-invariance exactly (_invariance_residual), as Q
commuting with and v0 fixed by ad(h)|_m for every generator h of the
connected group H, and proves strong
convexity over the whole sphere with a lower bound on the smallest gram
eigenvalue (_convexity_scan): the smallest eigenvalue of q for riemannian
norms, Chern and Shen's criterion at the exact extrema of polynomials in s
for alpha_beta norms, and a Cauchy-Schwarz bound from the eigenvalues of
the quadratic forms for quartic norms with every coefficient >= 0 and
every form positive semidefinite, which covers every quartic norm that
make_norm builds with epsilon >= 0.  Only the other quartic norms (a
negative epsilon, an indefinite hand-built form) are sampled: the smallest
gram eigenvalue at 4096 random unit directions, an upper estimate of the
true margin.

The quartic family is one stacked form, F^4 = sum_k c_k (v'M_k v)^2 with
M = (Q, B_1, ...) and c = (1, eps w_1, ...), stacked once per norm.

Each kind has one closed-form fundamental tensor (half the Hessian of F^2),
MinkowskiNorm.gram_batch_closed; a single point is a batch of one.
method="auto" keeps Richardson finite differences of F^2, which need only
F, as the certifying path for the quartic family; the closed form agrees
with them to about 1e-9 and guides the search and the convexity scan.
Making it the default changes what the perfbench tracer test pins (one
numdiff.hessian call per default quartic flag_curvature).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrf

from . import numdiff
from .homspace import invariant_blocks
from .liealg import null_rows

CONVEXITY_DIRECTIONS = 4096

_CONVEXITY_KEYS = ("convexity_lower_bound", "convexity_min_eigenvalue")  # proven, sampled


class NormValidationError(ValueError):
    pass


def _parameter_error(key, message):
    """A NormValidationError caused by the make_norm parameter key alone,
    which it carries as .parameter."""
    err = NormValidationError(message)
    err.parameter = key
    return err


_polyval = np.polynomial.polynomial.polyval


def _quadratic_many(V, A):
    """v' A v for every row v of V, as a BLAS product and a row-wise dot."""
    return np.einsum("ni,ni->n", V @ A, V)


@dataclass
class MinkowskiNorm:
    """A positively 1-homogeneous strongly convex norm on m-coordinates.

    Norms are immutable: the stacked quartic form, the phi-derivative
    coefficients and the reference metric are cached on first use, and
    transform returns a new norm."""

    kind: str
    dim: int
    q: np.ndarray
    v0: np.ndarray = None
    phi: np.ndarray = None
    quartic_terms: list = None
    epsilon: float = 0.0
    meta: dict = field(default_factory=dict)

    # -- evaluation -----------------------------------------------------------

    @cached_property
    def _quartic_forms(self):
        """(c, M) with F^4 = sum_k c_k (v'M_k v)^2.  c is used as it is, with
        no square roots, so a negative epsilon and no terms stay valid."""
        c = np.array([1.0] + [self.epsilon * w for w, _ in self.quartic_terms])
        M = np.stack([self.q] + [B for _, B in self.quartic_terms])
        return c, M

    @cached_property
    def _phi_coefficients(self):
        """Coefficient arrays of phi, phi' and phi'' for polyval."""
        p = np.polynomial.polynomial
        c = np.asarray(self.phi, dtype=float)
        return c, p.polyder(c), p.polyder(c, 2)

    def value_many(self, V):
        V = np.atleast_2d(np.asarray(V, dtype=float))
        if self.kind == "riemannian":
            return np.sqrt(_quadratic_many(V, self.q))
        if self.kind == "alpha_beta":
            alpha = np.sqrt(_quadratic_many(V, self.q))
            beta = V @ (self.q @ self.v0)
            return alpha * _polyval(beta / alpha, self._phi_coefficients[0])
        if self.kind == "quartic_perturbed":
            c, M = self._quartic_forms
            p = np.einsum("kni,ni->kn", V @ M, V)
            return (c @ (p * p)) ** 0.25
        raise ValueError("unknown norm kind %r" % self.kind)

    def value(self, v):
        return float(self.value_many(np.asarray(v, dtype=float)[None, :])[0])

    __call__ = value

    # -- fundamental tensor ---------------------------------------------------

    def gram(self, u, method="auto", step=None):
        """One half of the Hessian of F^2 at u.

        "closed" is gram_batch_closed on a batch of one; "fd" takes
        Richardson finite differences of F^2 through value_many; "auto" is
        closed for riemannian and alpha_beta and fd for quartic_perturbed
        (see the module docstring for why).
        """
        u = np.asarray(u, dtype=float)
        if u @ u == 0.0:
            raise ValueError("fundamental tensor is undefined at u = 0")
        if method == "auto":
            method = "closed" if self.kind in ("riemannian", "alpha_beta") else "fd"
        if method == "closed":
            return self.gram_batch_closed(u[None, :])[0]
        if method == "fd":
            f2 = lambda V: self.value_many(V) ** 2
            return numdiff.hessian(f2, u, step=step if step is not None else numdiff.DEFAULT_STEP) * 0.5
        raise ValueError("unknown gram method %r" % method)

    def gram_batch_closed(self, V):
        """Closed-form grams at the rows of V, one formula per kind."""
        V = np.atleast_2d(np.asarray(V, dtype=float))
        n, d = V.shape
        if self.kind == "riemannian":
            return np.broadcast_to(self.q, (n, d, d)).copy()
        if self.kind == "alpha_beta":
            Q = self.q
            QV = V @ Q
            alpha = np.sqrt(np.einsum("ni,ni->n", QV, V))
            a = QV / alpha[:, None]
            b = Q @ self.v0
            s = (V @ b) / alpha
            phi, dphi, ddphi = (_polyval(s, c) for c in self._phi_coefficients)
            c3 = dphi * dphi + phi * ddphi
            A4 = phi * phi - s * phi * dphi
            A1 = -s * phi * dphi + s * s * c3
            A2 = phi * dphi - s * c3
            ab = np.einsum("ni,j->nij", a, b)
            return (
                A1[:, None, None] * np.einsum("ni,nj->nij", a, a)
                + A2[:, None, None] * (ab + ab.transpose(0, 2, 1))
                + c3[:, None, None] * np.outer(b, b)
                + A4[:, None, None] * Q
            )
        if self.kind == "quartic_perturbed":
            # with G = F^4 = sum_k c_k p_k^2, p_k = v'M_k v, and r = sqrt(G):
            # g = (sum_k c_k p_k M_k + 2 sum_k c_k (M_k v)(M_k v)' - 2 D D' / G) / r,
            # D = sum_k c_k p_k M_k v = grad(G) / 4
            c, M = self._quartic_forms
            MV = (V @ M).transpose(1, 0, 2)  # (n, k, d): rows M_k v
            p = np.einsum("nki,ni->nk", MV, V)
            cp = p * c
            G = np.einsum("nk,nk->n", cp, p)
            D = np.einsum("nk,nki->ni", cp, MV)
            H = (cp @ M.reshape(len(c), d * d)).reshape(n, d, d)
            H += (MV.transpose(0, 2, 1) * (2.0 * c)) @ MV
            H -= (D * (2.0 / G)[:, None])[:, :, None] * D[:, None, :]
            H /= np.sqrt(G)[:, None, None]
            return H
        raise ValueError("unknown norm kind %r" % self.kind)

    # -- structure ------------------------------------------------------------

    def transform(self, S):
        """Pullback F(S v) of the norm along an invertible linear map.  The
        meta is copied without its convexity key, which a non-orthogonal S
        falsifies; check_norm_properties finds the margin of any norm."""
        S, terms = np.asarray(S, dtype=float), self.quartic_terms
        return replace(
            self,
            q=S.T @ self.q @ S,
            v0=None if self.v0 is None else np.linalg.solve(S, self.v0),
            quartic_terms=None if terms is None else [(w, S.T @ B @ S) for w, B in terms],
            meta={k: v for k, v in self.meta.items() if k not in _CONVEXITY_KEYS},
        )

    def reference_riemannian(self):
        """For alpha_beta: the constant inner product induced on directions
        orthogonal to v0, as a riemannian norm, built once per norm."""
        if self.kind != "alpha_beta":
            raise ValueError("reference metric is defined for alpha_beta norms only")
        return self._reference

    @cached_property
    def _reference(self):
        c, _, ddc = self._phi_coefficients
        phi0, ddphi0 = _polyval(0.0, c), _polyval(0.0, ddc)
        b = self.q @ self.v0
        q0 = phi0 * phi0 * self.q + phi0 * ddphi0 * np.outer(b, b)
        return MinkowskiNorm("riemannian", self.dim, q0, meta={"derived_from": "alpha_beta"})

    def orthogonal_part_residual(self, u):
        """|<v0, u>_Q| / (|v0|_Q |u|_Q), zero when u lies in the complement of v0."""
        if self.kind != "alpha_beta":
            raise ValueError("defined for alpha_beta norms only")
        num = abs(float(self.v0 @ self.q @ u))
        den = np.sqrt(float(self.v0 @ self.q @ self.v0) * float(u @ self.q @ u))
        return num / max(den, 1e-300)


@dataclass
class FundamentalTensor:
    """The gram g_u at u and its upper Cholesky factor, as LAPACK potrf
    leaves it (the strict lower triangle is not cleared)."""

    u: np.ndarray
    gram: np.ndarray
    factor: np.ndarray = None


def fundamental_tensor(F, u, method="auto", step=None):
    """Fundamental tensor of the norm at u, with positivity enforced.

    The gram comes from F.gram, so method="auto" takes finite differences
    for quartic norms and method="closed" the closed form.  One Cholesky
    factorisation of the gram serves as the positivity check and is kept
    as .factor, so the curvature solve does not factor again.
    Raises ValueError for u = 0 and NormValidationError when the Gram
    matrix fails to be positive definite at u.
    """
    u = np.asarray(u, dtype=float)
    G = F.gram(u, method=method, step=step)
    G = 0.5 * (G + G.T)
    factor, info = dpotrf(G, lower=0, clean=0)
    if info:
        raise NormValidationError("norm not strongly convex at the given direction")
    fval = F.value(u)
    rel = abs(float(u @ G @ u) - fval * fval) / max(fval * fval, 1e-300)
    if rel > 1e-5:
        raise RuntimeError("fundamental tensor fails g_u(u,u) = F(u)^2 (relative %.3e)" % rel)
    return FundamentalTensor(u=u.copy(), gram=G, factor=factor)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _unit_sphere(dim, count, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((count, dim))
    return V / np.linalg.norm(V, axis=1, keepdims=True)


def _extrema(p, b):
    """(min, max) of the Polynomial p on [-b, b], over the endpoints and the
    roots of its derivative.  The real parts of all roots are taken, so a
    double root that rounding splits into a complex pair still counts;
    every candidate lies in the interval."""
    roots = p.deriv().trim().roots()
    values = p(np.clip(np.concatenate(([-b, b], roots.real)), -b, b))
    return values.min(), values.max()


def _alpha_beta_bound(F):
    """A lower bound on the smallest gram eigenvalue of an alpha_beta norm
    at every direction, or NormValidationError where the norm is not
    strongly convex.

    With b = |v0|_Q, s = <v0, v>_Q / |v|_Q ranges over [-b, b].  Relative
    to Q the gram is rho = phi (phi - s phi') on the Q-complement of
    span{v, v0}; on that plane its determinant is
    D = phi^3 (phi - s phi' + (b^2 - s^2) phi'') and its trace is
    T = 2 rho + A1 + 2 A2 s + c3 b^2 = 2 phi^2 - s phi phi'
    + (b^2 - s^2)(phi'^2 + phi phi''), in the names of gram_batch_closed.
    The norm is strongly convex if and only if phi > 0 and D > 0 on
    [-b, b] (S.-S. Chern and Z. Shen, Riemann-Finsler Geometry, 2005,
    Lemma 1.1.2); then the plane's smaller eigenvalue is at least D / T,
    and the gram's is at least lambda_min(Q) min(min rho, min D / max T),
    with every extremum taken by _extrema."""
    phi, dphi, ddphi = (np.polynomial.Polynomial(c) for c in F._phi_coefficients)
    b = float(np.sqrt(F.v0 @ F.q @ F.v0))
    if _extrema(phi, b)[0] <= 0:
        raise NormValidationError("phi is not positive on the reachable range")
    s = np.polynomial.Polynomial([0.0, 1.0])
    w = b * b - s * s
    D = phi ** 3 * (phi - s * dphi + w * ddphi)
    low_D = _extrema(D, b)[0]
    if low_D <= 0:
        raise NormValidationError(
            "convexity check fails (phi^3 (phi - s phi' + (b^2 - s^2) phi'') reaches %.3e on |s| <= %.4g)"
            % (low_D, b)
        )
    rho = phi * (phi - s * dphi)
    T = 2.0 * phi * phi - s * phi * dphi + w * (dphi * dphi + phi * ddphi)
    return np.linalg.eigvalsh(F.q)[0] * min(_extrema(rho, b)[0], low_D / _extrema(T, b)[1])


def _quartic_bound(F):
    """A lower bound on the smallest gram eigenvalue of a quartic norm at
    every direction, or None where the argument below does not apply:
    some c_k < 0, Q not positive definite, a form M_k with
    mu_k = lambda_min(M_k) < -1e-12 s_k (s_k = |M_k|_2), or a bound <= 0.

    With p_k = v'M_k v at a unit v, G = F^4 and r = sqrt(G), the gram is
    (A + B) / r with A = sum_k c_k p_k M_k and
    B = 2 sum_k c_k (M_k v)(M_k v)' - 2 D D' / G, D = sum_k c_k p_k M_k v.
    For c_k >= 0, B is positive semidefinite by Cauchy-Schwarz,
    (x'D)^2 <= G sum_k c_k (x'M_k v)^2.  With M_0 = Q, c_0 = 1 and
    lambda_Q = lambda_min(Q): p_0 >= lambda_Q, |p_k| <= s_k, and
    c_k p_k M_k >= -c_k s_k |min(mu_k, 0)| I, which absorbs the negative
    eigenvalues at rounding level of block projectors.  As
    r <= p_0 sqrt(1 + sum_{k>=1} c_k s_k^2 / lambda_Q^2) and r >= p_0,
    lambda_min(g_v) >= lambda_Q / sqrt(1 + sum_{k>=1} c_k s_k^2 / lambda_Q^2)
    - sum_{k>=1} c_k s_k |min(mu_k, 0)| / lambda_Q."""
    c, M = F._quartic_forms
    ev = np.linalg.eigvalsh(M)
    lam, mu, s = ev[0, 0], ev[1:, 0], np.abs(ev[1:]).max(axis=1)
    if (c < 0).any() or lam <= 0 or (mu < -1e-12 * s).any():
        return None
    cs = c[1:] * s
    bound = lam / np.sqrt(1.0 + cs @ s / (lam * lam)) - cs @ np.maximum(-mu, 0.0) / lam
    return bound if bound > 0 else None


def _convexity_scan(F, count=CONVEXITY_DIRECTIONS, seed=1):
    """(value, direction): a lower bound on the smallest gram eigenvalue
    over the whole sphere, with direction None, or else the smallest over
    count random unit directions and the direction attaining it.

    A riemannian gram is q at every direction, so its value is the
    smallest eigenvalue of q; alpha_beta norms take _alpha_beta_bound, and
    quartic norms _quartic_bound where it applies.  Any other quartic norm
    is scanned: np.argmin(np.linalg.eigvalsh(grams)[:, 0]) over the
    closed-form grams at all count directions, the first index on an equal
    value.  F^4 not positive at a direction (a negative epsilon too large
    for the quartic form), and so a non-finite gram there, raises
    NormValidationError naming the first such direction."""
    if F.kind == "riemannian":
        return float(np.linalg.eigvalsh(F.q)[0]), None
    if F.kind == "alpha_beta":
        return float(_alpha_beta_bound(F)), None
    bound = _quartic_bound(F)
    if bound is not None:
        return float(bound), None
    V = _unit_sphere(F.dim, count, seed)
    with np.errstate(invalid="ignore", divide="ignore"):
        grams = F.gram_batch_closed(V)
    ok = np.isfinite(grams).all(axis=(1, 2))
    if not ok.all():
        raise NormValidationError(
            "quartic form not positive (non-finite gram at direction %s)"
            % np.round(V[np.argmin(ok)], 4).tolist()
        )
    low = np.linalg.eigvalsh(grams)[:, 0]
    worst = int(np.argmin(low))
    return float(low[worst]), V[worst]


def _invariance_residual(ops, forms=(), vectors=()):
    """max |[M, A]| over the forms M and max |A v| over the vectors v, for A in
    ops; with ops the ad(h)|_m of the generators of a connected H, zero is
    exact Ad(H)-invariance."""
    res = [np.abs(M @ ops - ops @ M).max(initial=0.0) for M in forms]
    res += [np.linalg.norm(ops @ v, axis=1).max(initial=0.0) for v in vectors]
    return float(max(res, default=0.0))


def _block_projectors(blocks):
    return [blk.T @ blk for blk in blocks]


def make_norm(kind, parameters, X, seed=0):
    """Build a validated invariant norm on the tangent model of X.

    parameters (all optional unless noted):
      block_scales : per-invariant-block coefficients of the quadratic part
      weights      : per-block coefficients of the quartic perturbation
      epsilon      : quartic strength, 0.1 when omitted
      v0 / v0_scale: alpha_beta distinguished vector (defaults to a
                     generator of the Ad(H)-fixed subspace)
      phi          : alpha_beta profile coefficients [c0, c1, c2, ...];
                     odd entries must vanish (reversibility)
      q            : explicit quadratic matrix overriding the block build

    A NormValidationError that one parameter causes alone (a list of the
    wrong length or sign, a q that is not positive definite) carries that
    parameter's key as .parameter.
    """
    parameters = dict(parameters or {})
    rng = np.random.default_rng(seed)
    nm = X.dim_m
    blocks = invariant_blocks(X, seed=seed)
    projs = _block_projectors(blocks)

    if "q" in parameters:
        Q = np.asarray(parameters["q"], dtype=float)
        if Q.shape != (nm, nm):
            raise NormValidationError("quadratic matrix must be %d x %d" % (nm, nm))
        Q = 0.5 * (Q + Q.T)
    else:
        scales = parameters.get("block_scales")
        if scales is None:
            scales = 0.85 + 0.75 * rng.random(len(blocks))
        if len(scales) != len(blocks):
            raise _parameter_error(
                "block_scales", "expected %d block scales, got %d" % (len(blocks), len(scales))
            )
        if min(scales) <= 0:
            raise _parameter_error("block_scales", "block scales must be positive")
        Q = sum(float(s) * P for s, P in zip(scales, projs))

    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise _parameter_error(
            "q" if "q" in parameters else "block_scales", "quadratic part is not positive definite"
        )

    # H is connected, so commuting with ad(h)|_m for every generator h is
    # the exact invariance condition
    ops = X.isotropy_ad()
    q_res = _invariance_residual(ops, forms=[Q])
    if q_res > 1e-8:
        raise NormValidationError("quadratic part is not Ad(H)-invariant (residual %.3e)" % q_res)

    meta = {"seed": int(seed), "kind": kind}

    if kind == "riemannian":
        F = MinkowskiNorm("riemannian", nm, Q, meta=meta)

    elif kind == "alpha_beta":
        phi = np.asarray(parameters.get("phi", [1.0, 0.0, 0.3, 0.0, 0.05]), dtype=float)
        if phi.ndim != 1 or len(phi) < 1:
            raise NormValidationError("phi must be a coefficient list")
        odd = phi[1::2]
        if len(odd) and np.abs(odd).max() > 0:
            raise NormValidationError("phi has a nonzero odd part; the norm would not be reversible")
        if "v0" in parameters:
            v0 = np.asarray(parameters["v0"], dtype=float)
            if v0.shape != (nm,):
                raise _parameter_error("v0", "v0 must be an m-coordinate vector of length %d" % nm)
        else:
            v0 = _fixed_vector(X)
            if v0 is None:
                raise NormValidationError("the isotropy fixes no direction; v0 must be supplied")
            v0 = v0 * float(parameters.get("v0_scale", 0.8)) / np.sqrt(v0 @ Q @ v0)
        res = _invariance_residual(ops, vectors=[v0])
        if res > 1e-8:
            raise NormValidationError("v0 is not fixed by Ad(H) (residual %.3e)" % res)
        F = MinkowskiNorm("alpha_beta", nm, Q, v0=v0, phi=phi, meta=meta)

    elif kind == "quartic_perturbed":
        weights = parameters.get("weights")
        if weights is None:
            weights = 0.4 + 0.8 * rng.random(len(blocks))
        if len(weights) != len(blocks):
            raise _parameter_error(
                "weights", "expected %d quartic weights, got %d" % (len(blocks), len(weights))
            )
        if min(weights) < 0:
            raise _parameter_error("weights", "quartic weights must be nonnegative")
        terms = [(float(w), P) for w, P in zip(weights, projs)]
        eps = float(parameters.get("epsilon", 0.1))
        F = MinkowskiNorm("quartic_perturbed", nm, Q, quartic_terms=terms, epsilon=eps, meta=meta)
        meta["epsilon"] = eps

    else:
        raise NormValidationError("unknown norm kind %r" % kind)

    # a certified bound, or a sampled minimum for the quartic norms that
    # _quartic_bound does not cover
    min_eig, worst = _convexity_scan(F, seed=seed + 101)
    if min_eig <= 0:
        raise NormValidationError(
            "convexity check fails (min eigenvalue %.3e at direction %s)"
            % (min_eig, worst if worst is None else np.round(worst, 4).tolist())
        )
    F.meta[_CONVEXITY_KEYS[worst is not None]] = min_eig
    F.meta["invariant_blocks"] = [int(b.shape[0]) for b in blocks]
    return F


def _fixed_vector(X):
    """A unit generator of the Ad(H)-fixed subspace of m, or None."""
    if X.dim_h == 0:
        return None
    null = null_rows(X.isotropy_ad().reshape(-1, X.dim_m), 1e-9)
    if null.shape[0] == 0:
        return None
    return null[0]


def check_norm_properties(F, X, samples=200, seed=0):
    """Property report of F on X.  invariance_residual is exact, over every
    form F is built from and v0; the convexity margin is _convexity_scan's
    under make_norm's key, convexity_lower_bound when proven and
    convexity_min_eigenvalue when sampled (as make_norm samples it when seed
    is the norm's seed); a norm it rejects raises its NormValidationError.
    Homogeneity and reversibility hold by construction; their residuals are
    sampled at `samples` unit directions."""
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((samples, F.dim))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    lam = 0.25 + 3.0 * rng.random(samples)
    vals = F.value_many(V)
    forms = F._quartic_forms[1] if F.kind == "quartic_perturbed" else [F.q]
    vectors = [F.v0] if F.kind == "alpha_beta" else []
    margin, worst = _convexity_scan(F, seed=seed + 101)
    return {
        "homogeneity_residual": float(np.abs(F.value_many(V * lam[:, None]) - lam * vals).max()),
        "reversibility_residual": float(np.abs(F.value_many(-V) - vals).max()),
        "invariance_residual": _invariance_residual(X.isotropy_ad(), forms, vectors),
        _CONVEXITY_KEYS[worst is not None]: margin,
        "samples": int(samples),
        "seed": int(seed),
    }
