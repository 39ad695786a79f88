"""Reversible Ad(H)-invariant Minkowski norms on the tangent model m.

Three families are supported:

* riemannian          F(v) = sqrt(v' Q v)
* alpha_beta          F(v) = |v| phi(<v0, v/|v|>), phi an even polynomial
* quartic_perturbed   F(v) = (Q(v)^2 + eps P(v))^(1/4), P a positive
                      combination of squares of invariant quadratics

All three are positively 1-homogeneous and reversible by construction;
Ad(H)-invariance and strong convexity are validated numerically at build
time.  The quartic family is one stacked form, F^4 = sum_k c_k (v'M_k v)^2
with M = (Q, B_1, ...) and c = (1, eps w_1, ...).

Each kind has one closed-form fundamental tensor (half the Hessian of F^2),
MinkowskiNorm.gram_batch_closed; a single point is a batch of one.
method="auto" keeps Richardson finite differences of F^2, which need only
F, as the certifying path for the quartic family; the closed form agrees
with them to about 1e-9 and guides the search and the convexity scan.
Making it the default changes what the perfbench tracer test pins (one
numdiff.hessian call per default quartic flag_curvature).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numdiff
from .homspace import invariant_blocks
from .liealg import null_rows

CONVEXITY_DIRECTIONS = 4096


class NormValidationError(ValueError):
    pass


def _phi_eval(coeffs, s):
    """phi, phi', phi'' for a polynomial with the given coefficient list."""
    c = np.asarray(coeffs, dtype=float)
    p = np.polynomial.polynomial
    return (
        p.polyval(s, c),
        p.polyval(s, p.polyder(c)),
        p.polyval(s, p.polyder(c, 2)),
    )


def _quadratic_many(V, A):
    """v' A v for every row v of V, as a BLAS product and a row-wise dot."""
    return np.einsum("ni,ni->n", V @ A, V)


@dataclass
class MinkowskiNorm:
    """A positively 1-homogeneous strongly convex norm on m-coordinates."""

    kind: str
    dim: int
    q: np.ndarray
    v0: np.ndarray = None
    phi: np.ndarray = None
    quartic_terms: list = None
    epsilon: float = 0.0
    meta: dict = field(default_factory=dict)

    # -- evaluation -----------------------------------------------------------

    def _quartic_forms(self):
        """(c, M) with F^4 = sum_k c_k (v'M_k v)^2.  c is used as it is, with
        no square roots, so a negative epsilon and no terms stay valid."""
        c = np.array([1.0] + [self.epsilon * w for w, _ in self.quartic_terms])
        M = np.stack([self.q] + [B for _, B in self.quartic_terms])
        return c, M

    def value_many(self, V):
        V = np.atleast_2d(np.asarray(V, dtype=float))
        if self.kind == "riemannian":
            return np.sqrt(_quadratic_many(V, self.q))
        if self.kind == "alpha_beta":
            alpha = np.sqrt(_quadratic_many(V, self.q))
            beta = V @ (self.q @ self.v0)
            s = beta / alpha
            phi, _, _ = _phi_eval(self.phi, s)
            return alpha * phi
        if self.kind == "quartic_perturbed":
            c, M = self._quartic_forms()
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
        if np.linalg.norm(u) == 0.0:
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
            phi, dphi, ddphi = _phi_eval(self.phi, s)
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
            c, M = self._quartic_forms()
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
        """Pullback F(S v) of the norm along an invertible linear map."""
        S = np.asarray(S, dtype=float)
        q = S.T @ self.q @ S
        if self.kind == "riemannian":
            return MinkowskiNorm("riemannian", self.dim, q, meta=dict(self.meta))
        if self.kind == "alpha_beta":
            v0 = np.linalg.solve(S, self.v0)
            return MinkowskiNorm(
                "alpha_beta", self.dim, q, v0=v0, phi=self.phi.copy(), meta=dict(self.meta)
            )
        terms = [(w, S.T @ B @ S) for (w, B) in self.quartic_terms]
        return MinkowskiNorm(
            "quartic_perturbed",
            self.dim,
            q,
            quartic_terms=terms,
            epsilon=self.epsilon,
            meta=dict(self.meta),
        )

    def reference_riemannian(self):
        """For alpha_beta: the constant inner product induced on directions
        orthogonal to v0, as a riemannian norm."""
        if self.kind != "alpha_beta":
            raise ValueError("reference metric is defined for alpha_beta norms only")
        phi0, _, ddphi0 = _phi_eval(self.phi, 0.0)
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
    u: np.ndarray
    gram: np.ndarray


def fundamental_tensor(F, u, method="auto", step=None):
    """Fundamental tensor of the norm at u, with positivity enforced.

    Raises ValueError for u = 0 and NormValidationError when the Gram
    matrix fails to be positive definite at u.
    """
    u = np.asarray(u, dtype=float)
    G = F.gram(u, method=method, step=step)
    G = 0.5 * (G + G.T)
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise NormValidationError("norm not strongly convex at the given direction")
    fval = F.value(u)
    rel = abs(float(u @ G @ u) - fval * fval) / max(fval * fval, 1e-300)
    if rel > 1e-5:
        raise RuntimeError("fundamental tensor fails g_u(u,u) = F(u)^2 (relative %.3e)" % rel)
    return FundamentalTensor(u=u.copy(), gram=G)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _unit_sphere(dim, count, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((count, dim))
    return V / np.linalg.norm(V, axis=1, keepdims=True)


def _convexity_scan(F, count=CONVEXITY_DIRECTIONS, seed=1):
    """Smallest gram eigenvalue over count random unit directions, and the
    direction that attains it.  A riemannian gram is q in every direction,
    so its scan reads the smallest eigenvalue of q, which every direction
    attains."""
    if F.kind == "riemannian":
        return float(np.linalg.eigvalsh(F.q)[0]), np.eye(F.dim)[0]
    V = _unit_sphere(F.dim, count, seed)
    grams = F.gram_batch_closed(V)
    eigs = np.linalg.eigvalsh(grams)
    worst = int(np.argmin(eigs[:, 0]))
    return float(eigs[worst, 0]), V[worst]


def _block_projectors(blocks):
    return [blk.T @ blk for blk in blocks]


def make_norm(kind, parameters, X, seed=0):
    """Build a validated invariant norm on the tangent model of X.

    parameters (all optional unless noted):
      block_scales : per-invariant-block coefficients of the quadratic part
      weights      : per-block coefficients of the quartic perturbation
      epsilon      : quartic strength; when omitted, starts at 0.1 and is
                     halved until the convexity scan passes
      v0 / v0_scale: alpha_beta distinguished vector (defaults to a
                     generator of the Ad(H)-fixed subspace)
      phi          : alpha_beta profile coefficients [c0, c1, c2, ...];
                     odd entries must vanish (reversibility)
      q            : explicit quadratic matrix overriding the block build
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
            raise NormValidationError(
                "expected %d block scales, got %d" % (len(blocks), len(scales))
            )
        if min(scales) <= 0:
            raise NormValidationError("block scales must be positive")
        Q = sum(float(s) * P for s, P in zip(scales, projs))

    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise NormValidationError("quadratic part is not positive definite")

    samples = X.sample_isotropy(12, seed=seed + 17)
    q_res = max(np.abs(R.T @ Q @ R - Q).max() for R in samples) if samples else 0.0
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
                raise NormValidationError("v0 must be an m-coordinate vector of length %d" % nm)
        else:
            v0 = _fixed_vector(X)
            if v0 is None:
                raise NormValidationError("the isotropy fixes no direction; v0 must be supplied")
            v0 = v0 * float(parameters.get("v0_scale", 0.8)) / np.sqrt(v0 @ Q @ v0)
        res = max(np.linalg.norm((X.m_basis @ X.g.ad(h) @ X.m_basis.T) @ v0) for h in X.h_basis) if X.dim_h else 0.0
        if res > 1e-8:
            raise NormValidationError("v0 is not fixed by Ad(H) (residual %.3e)" % res)
        smax = float(np.sqrt(v0 @ Q @ v0))
        grid = np.linspace(-smax, smax, 101)
        vals, _, _ = _phi_eval(phi, grid)
        if vals.min() <= 0:
            raise NormValidationError("phi is not positive on the reachable range")
        F = MinkowskiNorm("alpha_beta", nm, Q, v0=v0, phi=phi, meta=meta)

    elif kind == "quartic_perturbed":
        weights = parameters.get("weights")
        if weights is None:
            weights = 0.4 + 0.8 * rng.random(len(blocks))
        if len(weights) != len(blocks):
            raise NormValidationError(
                "expected %d quartic weights, got %d" % (len(blocks), len(weights))
            )
        if min(weights) < 0:
            raise NormValidationError("quartic weights must be nonnegative")
        terms = [(float(w), P) for w, P in zip(weights, projs)]
        eps = parameters.get("epsilon")
        auto = eps is None
        eps = 0.1 if auto else float(eps)
        halvings = 0
        while True:
            F = MinkowskiNorm("quartic_perturbed", nm, Q, quartic_terms=terms, epsilon=eps, meta=meta)
            min_eig, worst = _convexity_scan(F, seed=seed + 101)
            if min_eig > 0:
                break
            if not auto or halvings >= 10:
                raise NormValidationError(
                    "convexity check fails (min eigenvalue %.3e at direction %s)"
                    % (min_eig, np.round(worst, 4).tolist())
                )
            eps *= 0.5
            halvings += 1
        meta["epsilon"] = eps
        if halvings:
            meta["epsilon_halvings"] = halvings

    else:
        raise NormValidationError("unknown norm kind %r" % kind)

    if kind != "quartic_perturbed":
        # the quartic loop above has already scanned its accepted norm
        min_eig, worst = _convexity_scan(F, seed=seed + 101)
    if min_eig <= 0:
        raise NormValidationError(
            "convexity check fails (min eigenvalue %.3e at direction %s)"
            % (min_eig, np.round(worst, 4).tolist())
        )
    F.meta["convexity_min_eigenvalue"] = min_eig
    F.meta["invariant_blocks"] = [int(b.shape[0]) for b in blocks]
    return F


def _fixed_vector(X):
    """A unit generator of the Ad(H)-fixed subspace of m, or None."""
    if X.dim_h == 0:
        return None
    ops = np.vstack([X.m_basis @ X.g.ad(h) @ X.m_basis.T for h in X.h_basis])
    null = null_rows(ops, 1e-9)
    if null.shape[0] == 0:
        return None
    return null[0]


def check_norm_properties(F, X, samples=200, seed=0):
    """Sampled residual report: homogeneity, reversibility, invariance,
    convexity margin."""
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((samples, F.dim))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    lam = 0.25 + 3.0 * rng.random(samples)
    vals = F.value_many(V)

    hom = np.abs(F.value_many(V * lam[:, None]) - lam * vals).max()
    rev = np.abs(F.value_many(-V) - vals).max()

    inv = 0.0
    for k, R in enumerate(X.sample_isotropy(min(16, max(4, samples // 16)), seed=seed + 5)):
        inv = max(inv, np.abs(F.value_many(V @ R.T) - vals).max())

    grams = F.gram_batch_closed(V[: min(samples, 512)])
    eigs = np.linalg.eigvalsh(grams)
    return {
        "homogeneity_residual": float(hom),
        "reversibility_residual": float(rev),
        "invariance_residual": float(inv),
        "min_gram_eigenvalue": float(eigs[:, 0].min()),
        "samples": int(samples),
        "seed": int(seed),
    }
