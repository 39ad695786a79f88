"""Output checks for the benchmark, computed apart from flagcurv.

Brackets come from products of the realized matrices, curvature from the
full curvature tensor of the reductive splitting, and fundamental tensors
from the quartic norm's own data.  Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg as sla

RIEMANNIAN_REL_TOL = 1e-9
ALPHA_BETA_TOL = 1e-7
INVARIANCE_TOL = 1e-10
COMMUTATOR_TOL = 1e-8
NORMS_BLOCK_DIMS = [1] * 8 + [6] * 3


class Brackets:
    """Structure tensors of a space G/H, computed from matrix commutators.

    c[a, b, :] holds the algebra coordinates of [B_a, B_b] for the realized
    basis matrices B, found by least squares against the basis.
    """

    def __init__(self, X):
        B = np.asarray(X.g.basis, dtype=float)
        dim = B.shape[0]
        flat = B.reshape(dim, -1)
        comm = np.einsum("aij,bjk->abik", B, B)
        comm = comm - comm.transpose(1, 0, 2, 3)
        coords, *_ = np.linalg.lstsq(flat.T, comm.reshape(dim * dim, -1).T, rcond=None)
        self.c = coords.T.reshape(dim, dim, dim)
        self.basis = B
        self.M = np.asarray(X.m_basis, dtype=float)
        self.H = np.asarray(X.h_basis, dtype=float)
        # [m_i, m_j] split into its m- and h-coordinates
        full = np.einsum("abe,ia,jb->ije", self.c, self.M, self.M)
        self.mm = np.einsum("ije,ke->ijk", full, self.M)
        self.mh = np.einsum("ije,ke->ijk", full, self.H)

    def matrix(self, u):
        """Realized matrix of the m-coordinate vector u."""
        return np.einsum("a,aij->ij", np.asarray(u, dtype=float) @ self.M, self.basis)

    def ad(self, xi):
        """ad(xi) on algebra coordinates, for xi in algebra coordinates."""
        return np.einsum("a,abe->eb", xi, self.c)

    def isotropy_element(self, rng):
        """Ad(exp xi)|_m for a random xi in h, through scipy.linalg.expm."""
        xi = rng.standard_normal(self.H.shape[0]) @ self.H
        xi *= rng.uniform(0.5, 3.0) / np.linalg.norm(xi)
        return self.M @ sla.expm(self.ad(xi)) @ self.M.T


def sectional_curvature(br, Q, x, y):
    """Sectional curvature of the invariant Riemannian metric Q on the plane
    x ^ y, through the full curvature tensor of the reductive splitting:
    Lambda(a) z = [a, z]_m / 2 + U(a, z) and
    R(a, b) z = [Lambda(a), Lambda(b)] z - Lambda([a, b]_m) z - [[a, b]_h, z]."""
    Qinv = np.linalg.inv(Q)
    mm, mh = br.mm, br.mh

    def lam(a, z):
        sym = np.einsum("ijk,j->ik", mm, a) @ Q @ z + np.einsum("ijk,j->ik", mm, z) @ Q @ a
        return 0.5 * np.einsum("ijk,i,j->k", mm, a, z) + Qinv @ (0.5 * sym)

    def h_part_acts(a, b, z):
        eta = np.einsum("ijk,i,j->k", mh, a, b) @ br.H  # [a, b]_h in algebra coordinates
        return br.M @ (br.ad(eta) @ (z @ br.M))

    def riem(a, b, z):
        ab = np.einsum("ijk,i,j->k", mm, a, b)
        return lam(a, lam(b, z)) - lam(b, lam(a, z)) - lam(ab, z) - h_part_acts(a, b, z)

    num = float(riem(x, y, y) @ Q @ x)
    den = float((x @ Q @ x) * (y @ Q @ y) - (x @ Q @ y) ** 2)
    return num / den


def quartic_value(F, V):
    """F(v) = (q(v)^2 + eps sum_k w_k p_k(v)^2)^(1/4) from the norm's data."""
    V = np.atleast_2d(V)
    q = np.einsum("ni,ij,nj->n", V, F.q, V)
    total = q * q
    for w, B in F.quartic_terms:
        total = total + F.epsilon * w * np.einsum("ni,ij,nj->n", V, B, V) ** 2
    return total ** 0.25


def quartic_gram(F, u):
    """One half of the Hessian of F^2 = G^(1/2), with G the quartic form:
    g = G^(-1/2) Hess(G) / 4 - G^(-3/2) grad(G) grad(G)' / 8."""
    u = np.asarray(u, dtype=float)
    forms = [(1.0, F.q)] + [(F.epsilon * w, B) for w, B in F.quartic_terms]
    G = 0.0
    grad = np.zeros(len(u))
    hess = np.zeros((len(u), len(u)))
    for c, A in forms:
        a = float(u @ A @ u)
        Au = A @ u
        G += c * a * a
        grad += c * 4.0 * a * Au
        hess += c * (8.0 * np.outer(Au, Au) + 4.0 * a * A)
    return hess / (4.0 * np.sqrt(G)) - np.outer(grad, grad) / (8.0 * G ** 1.5)


def flatness_residuals(br, gram, u, v):
    """max_w |<[w,u]_m, u>_u|, |<[w,u]_m, v>_u|, |<[w,v]_m, u>_u| over the
    m-basis, for u and v scaled to unit length."""
    un = np.asarray(u, dtype=float) / np.linalg.norm(u)
    vn = np.asarray(v, dtype=float) / np.linalg.norm(v)
    bu = np.einsum("ijk,j->ik", br.mm, un)
    bv = np.einsum("ijk,j->ik", br.mm, vn)
    return (
        float(np.abs(bu @ gram @ un).max()),
        float(np.abs(bu @ gram @ vn).max()),
        float(np.abs(bv @ gram @ un).max()),
    )


def commutator_residual(br, u, v):
    """|[U, V]| / (|U| |V|) for the realized matrices of u and v."""
    A, B = br.matrix(u), br.matrix(v)
    return float(np.linalg.norm(A @ B - B @ A) / (np.linalg.norm(A) * np.linalg.norm(B)))


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------


def check_zero_flag(cert, label):
    if cert.verdict != "zero_flag":
        return ["%s: verdict %r, expected zero_flag" % (label, cert.verdict)]
    return []


def check_riemannian_flag(br, Q, u, v, K, label):
    """Certificate curvature K against the full-tensor sectional curvature."""
    ref = sectional_curvature(br, Q, u, v)
    if not abs(K - ref) <= RIEMANNIAN_REL_TOL * abs(ref):
        return ["%s: K %.17g differs from the full-tensor value %.17g" % (label, K, ref)]
    return []


def alpha_beta_reference_q(F):
    """Quadratic form induced on the complement of v0: phi(0)^2 Q + phi(0)
    phi''(0) b b' with b = Q v0."""
    phi = np.asarray(F.phi, dtype=float)
    phi0 = phi[0]
    ddphi0 = 2.0 * phi[2] if len(phi) > 2 else 0.0
    b = F.q @ F.v0
    return phi0 * phi0 * F.q + phi0 * ddphi0 * np.outer(b, b)


def check_alpha_beta_flag(br, F, u, v, K_F, label):
    ref = sectional_curvature(br, alpha_beta_reference_q(F), u, v)
    if not abs(K_F - ref) < ALPHA_BETA_TOL:
        return ["%s: K_F %.3e differs from the reference K_0 %.3e" % (label, K_F, ref)]
    return []


def check_block_dims(dims, label, expected=NORMS_BLOCK_DIMS):
    if sorted(int(d) for d in dims) != sorted(expected):
        return ["%s: invariant block dimensions %s, expected %s" % (label, sorted(dims), expected)]
    return []


def check_invariance(br, F, rng, label, elements=4, vectors=64):
    """F(Ad(h) v) = F(v) for isotropy elements built here."""
    V = rng.standard_normal((vectors, F.dim))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    base = quartic_value(F, V)
    worst = 0.0
    for _ in range(elements):
        R = br.isotropy_element(rng)
        worst = max(worst, float(np.abs(quartic_value(F, V @ R.T) - base).max()))
    if not worst < INVARIANCE_TOL:
        return ["%s: F(Ad(h)v) - F(v) reaches %.3e" % (label, worst)]
    return []


def check_gram_positive(F, rng, label, directions=32):
    worst = np.inf
    for _ in range(directions):
        u = rng.standard_normal(F.dim)
        worst = min(worst, float(np.linalg.eigvalsh(quartic_gram(F, u / np.linalg.norm(u)))[0]))
    if not worst > 0:
        return ["%s: fundamental tensor has eigenvalue %.3e" % (label, worst)]
    return []


def check_search(br, F, certs, label):
    flats = [c for c in certs if c.verdict == "zero_flag"]
    fails = [] if flats else ["%s: no flat flag certified" % label]
    for k, c in enumerate(flats):
        comm = commutator_residual(br, c.u, c.v)
        if not comm < COMMUTATOR_TOL:
            fails.append("%s flat %d: matrices do not commute (%.3e)" % (label, k, comm))
        tol = c.details["tolerances"]["zero_residual"]
        res = flatness_residuals(br, quartic_gram(F, c.u / np.linalg.norm(c.u)), c.u, c.v)
        if not max(res) < tol:
            fails.append("%s flat %d: flatness residuals %s above %.1e" % (label, k, res, tol))
    return fails


def check_report(code, text, label):
    """verify-example: exit 0, JSON report, passed, zero_flag verdicts and
    passing closure claims."""
    if code != 0:
        return ["%s: exit code %r" % (label, code)]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return ["%s: report is not JSON (%s)" % (label, exc)]
    payload = report.get("payload", {})
    fails = []
    if payload.get("passed") is not True:
        fails.append("%s: passed is %r" % (label, payload.get("passed")))
    flags = payload.get("flags") or []
    if not flags:
        fails.append("%s: no flags in the report" % label)
    for k, entry in enumerate(flags):
        verdict = entry.get("certificate", {}).get("verdict")
        if verdict != "zero_flag":
            fails.append("%s flag %d: verdict %r" % (label, k, verdict))
        for claim in entry.get("closure_claims", []):
            if claim.get("passes") is not True:
                fails.append("%s flag %d: closure claim %r fails" % (label, k, claim.get("description")))
    return fails
