"""Flag curvature of commuting flags on homogeneous spaces.

For linearly independent u, v in m with [u, v] = 0 and
<[u, m]_m, u>_u = 0, the flag curvature of the plane u ^ v with pole u is

    K(u, u^v) = <U, U>_u / (<u,u>_u <v,v>_u - <u,v>_u^2)

where U solves <U, w>_u = ([w,u]_m . v + [w,v]_m . u)_u / 2 for every
w in m.  When additionally <[u,m], v>_u and <[v,m], u>_u vanish, U = 0 and
the flag is certified flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .minkowski import fundamental_tensor

PRECONDITION_TOL = 1e-8
ZERO_RESIDUAL_TOL = 1e-8
ZERO_CURVATURE_TOL = 1e-7
DEGENERATE_DENOMINATOR = 1e-12


@dataclass
class FlagCertificate:
    u: np.ndarray
    v: np.ndarray
    commutator_residual: float
    zero_residuals: tuple
    u_vector: np.ndarray
    curvature: float
    verdict: str
    denominator: float = 0.0
    solve_residual: float = 0.0
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "u": self.u.tolist(),
            "v": self.v.tolist(),
            "commutator_residual": self.commutator_residual,
            "zero_residuals": list(self.zero_residuals),
            "u_tensor_norm": float(np.linalg.norm(self.u_vector)) if self.u_vector is not None else None,
            "curvature": self.curvature,
            "verdict": self.verdict,
            "denominator": self.denominator,
            "solve_residual": self.solve_residual,
            "details": self.details,
        }


def _bracket_rows(X, u):
    """Rows [w_i, u]_m over the m-basis."""
    return np.einsum("ijk,j->ik", X.m_bracket_tensor(), u)


def _flatness_vectors(X, gram, u, v):
    """<[w_i,u]_m, u>_u, <[w_i,u]_m, v>_u and <[w_i,v]_m, u>_u over the m-basis."""
    bug = _bracket_rows(X, u) @ gram
    bvg = _bracket_rows(X, v) @ gram
    return bug @ u, bug @ v, bvg @ u


def _solve_u(gram, rhs):
    """U with gram @ U = rhs, and the solve residual."""
    try:
        cho = sla.cho_factor(gram)
    except np.linalg.LinAlgError:
        raise ValueError("norm not strongly convex at u: Gram matrix is not positive definite")
    U = sla.cho_solve(cho, rhs)
    return U, float(np.abs(gram @ U - rhs).max())


def u_tensor(X, F, u, v, gram=None, return_residual=False):
    """Solve for U in m with <U, w>_u = ([w,u]_m.v + [w,v]_m.u)_u / 2.

    The solve goes through a symmetric positive definite factorization of
    the fundamental-tensor Gram matrix; failure is reported as
    non-convexity rather than regularized away.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if gram is None:
        gram = fundamental_tensor(F, u).gram
    _, ruv, rvu = _flatness_vectors(X, gram, u, v)
    U, res = _solve_u(gram, 0.5 * (ruv + rvu))
    return (U, res) if return_residual else U


def zero_conditions_residual(X, F, u, v, gram=None):
    """Maxima over the basis of |<[w,u]_m,u>_u|, |<[w,u]_m,v>_u|, |<[w,v]_m,u>_u|."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(u) == 0.0:
        raise ValueError("u must be nonzero")
    if gram is None:
        gram = fundamental_tensor(F, u).gram
    return tuple(float(np.abs(r).max()) for r in _flatness_vectors(X, gram, u, v))


def flag_curvature(X, F, u, v, tolerances=None, gram_method="auto", gram_step=None):
    """Certificate for the flag with pole u and plane u ^ v.

    Preconditions (linear independence, commuting in the full algebra, and
    the first flatness condition) are checked on the binormalized pair; a
    violation yields verdict "preconditions_failed" with the residual
    recorded instead of a curvature claim.
    """
    tol = {
        "precondition": PRECONDITION_TOL,
        "zero_residual": ZERO_RESIDUAL_TOL,
        "zero_curvature": ZERO_CURVATURE_TOL,
    }
    if tolerances:
        tol.update(tolerances)

    u0 = np.asarray(u, dtype=float)
    v0 = np.asarray(v, dtype=float)
    nu, nv = np.linalg.norm(u0), np.linalg.norm(v0)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("flag vectors must be nonzero")
    un, vn = u0 / nu, v0 / nv

    details = {"tolerances": dict(tol)}
    comm = float(np.linalg.norm(X.bracket_full(un, vn)))
    indep = 1.0 - abs(float(un @ vn))

    def failed(reason, extra=None):
        d = dict(details)
        d["failure"] = reason
        if extra is not None:
            d.update(extra)
        return FlagCertificate(
            u=u0,
            v=v0,
            commutator_residual=comm,
            zero_residuals=(np.nan, np.nan, np.nan),
            u_vector=None,
            curvature=np.nan,
            verdict="preconditions_failed",
            details=d,
        )

    if indep < 1e-10:
        return failed("u and v are linearly dependent")
    if comm > tol["precondition"]:
        return failed("[u, v] != 0", {"commutator_residual": comm})

    gram = fundamental_tensor(F, un, method=gram_method, step=gram_step).gram
    ruu, ruv, rvu = _flatness_vectors(X, gram, un, vn)
    r1, r2, r3 = (float(np.abs(r).max()) for r in (ruu, ruv, rvu))
    if r1 > tol["precondition"]:
        return failed("<[u,m]_m, u>_u != 0", {"first_condition_residual": r1})

    U, solve_res = _solve_u(gram, 0.5 * (ruv + rvu))
    guu = float(un @ gram @ un)
    gvv = float(vn @ gram @ vn)
    guv = float(un @ gram @ vn)
    den = guu * gvv - guv * guv
    if den < DEGENERATE_DENOMINATOR * guu * gvv:
        return failed("degenerate flag plane", {"denominator": den})
    K = float(U @ gram @ U) / den

    # K = <U,U>_u / den >= 0, so no negative verdict can arise
    if max(r1, r2, r3) < tol["zero_residual"] and abs(K) < tol["zero_curvature"]:
        verdict = "zero_flag"
    elif K > tol["zero_curvature"]:
        verdict = "positive"
    else:
        # |K| within tolerance while a flatness residual is not: the flag is
        # neither certified flat nor shown to be positively curved
        verdict = "inconclusive"

    return FlagCertificate(
        u=u0,
        v=v0,
        commutator_residual=comm,
        zero_residuals=(r1, r2, r3),
        u_vector=U,
        curvature=K,
        verdict=verdict,
        denominator=den,
        solve_residual=solve_res,
        details=details,
    )


def alpha_beta_comparison(X, F_ab, u, v, tolerances=None):
    """Flag curvature of an alpha_beta norm against its reference metric.

    u and v must lie in the orthogonal complement of the distinguished
    vector; returns (K for the alpha_beta norm, K for the induced
    riemannian metric) computed through the same flag machinery.
    """
    if F_ab.kind != "alpha_beta":
        raise ValueError("comparison requires an alpha_beta norm")
    for name, w in (("u", u), ("v", v)):
        if F_ab.orthogonal_part_residual(np.asarray(w, dtype=float)) > 1e-9:
            raise ValueError("%s does not lie in the complement of the distinguished vector" % name)
    F0 = F_ab.reference_riemannian()
    cert_ab = flag_curvature(X, F_ab, u, v, tolerances=tolerances)
    cert_0 = flag_curvature(X, F0, u, v, tolerances=tolerances)
    if cert_ab.verdict == "preconditions_failed" or cert_0.verdict == "preconditions_failed":
        raise ValueError("flag does not satisfy the curvature-formula hypotheses")
    return cert_ab.curvature, cert_0.curvature
