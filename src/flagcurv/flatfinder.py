"""Deterministic constructions of flat flags and a generic seeded search.

The catalog holds five constructions on low-rank homogeneous spaces whose
flags certify zero curvature under every reversible invariant norm of the
quartic-perturbed family:

  1  su(4) / su(2)x(weighted circle), two-parameter family
  2  su(4) / su(2)x(circle with weights 1,1,-1,-1)
  3  sp(2) / weighted circle, two-parameter family
  4  sp(3) / sp(1)x(circle with weights 1,3,0)
  5  g2 / su(2) built on a short root

Constructions 2 and 5 pick the flag pole by maximizing the invariant length
over the F-unit sphere of a distinguished subspace and then rotate it into
a named root plane with an isometry generated by the centralizing
subalgebra, pulling the norm back along the same rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .liealg import build_lie_algebra, _orthonormal_rows, null_rows
from .homspace import SubalgebraSpec, ad_rotation_speeds, build_space
from .minkowski import make_norm, fundamental_tensor
from .curvature import _bracket_rows, flag_curvature

CLOSURE_TOL = 1e-10
DEFAULT_EPSILONS = (0.05, 0.1, 0.2)


class ExampleParameterError(ValueError):
    """Raised when catalog parameters violate their stated constraints."""


@dataclass
class ClosureClaim:
    description: str
    vector: str
    domain: str  # "m" or "m_prime"
    target: np.ndarray
    narrow_target: np.ndarray = None  # a tempting smaller target that fails
    note: str = None


@dataclass
class FlagInstance:
    norm: object
    u: np.ndarray
    v: np.ndarray
    m_prime: np.ndarray = None
    claims: list = field(default_factory=list)
    aux: dict = field(default_factory=dict)


@dataclass
class ExampleConstruction:
    example_id: int
    params: dict
    space: object
    flags: list
    notes: dict = field(default_factory=dict)

    @property
    def m_prime(self):
        return self.flags[0].m_prime if self.flags else None


# ---------------------------------------------------------------------------
# small subspace helpers (rows in m-coordinates)
# ---------------------------------------------------------------------------


def _plane_rows(X, root):
    sl = X.root_plane_slice(root)
    rows = np.zeros((2, X.dim_m))
    rows[0, sl[0]] = 1.0
    rows[1, sl[0] + 1] = 1.0
    return rows


def _tm_rows(X):
    s, k = X.tm_slice
    rows = np.zeros((k, X.dim_m))
    for i in range(k):
        rows[i, s + i] = 1.0
    return rows


def _t_bracket_line(X, u):
    """Span of [t, u] projected to m, for the full torus t of g."""
    datum = X.g.root_datum()
    ug = X.lift(u)
    rows = [X.project_m(X.g.bracket(t, ug)) for t in datum.cartan]
    return _orthonormal_rows(np.stack(rows), tol=1e-9)


def _stack_rows(*groups):
    rows = [g for g in groups if g is not None and len(g)]
    return _orthonormal_rows(np.vstack(rows)) if rows else np.zeros((0, 0))


def bracket_closure_residual(X, x, domain_rows, target_rows):
    """Largest off-target component of [x, w]_m over unit w in the domain."""
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    T = _orthonormal_rows(target_rows)
    worst = 0.0
    for w in np.atleast_2d(domain_rows):
        b = X.bracket_m(x, w)
        off = b - T.T @ (T @ b) if T.size else b
        worst = max(worst, float(np.linalg.norm(off)))
    return worst


# ---------------------------------------------------------------------------
# extremal pole and plane alignment
# ---------------------------------------------------------------------------


def extremal_unit_vector(F, subspace, seed=0, max_iter=500, starts=6):
    """F-unit vector of maximal invariant length in the subspace.

    Seeded multi-start projected ascent on the F-unit sphere; the returned
    info records the first-order stationarity residual
    max |g_u(u, w)| / g_u(u,u) over unit w orthogonal to u in the subspace.
    """
    S = _orthonormal_rows(subspace)
    k = S.shape[0]
    if k == 0:
        raise ValueError("subspace must be nonzero")
    rng = np.random.default_rng(seed)

    def to_unit(c):
        return c / F.value(c @ S)

    def stationarity(c):
        u = c @ S
        G = F.gram(u, method="closed")
        p = S @ (G @ u)
        chat = c / np.linalg.norm(c)
        tang = p - (p @ chat) * chat
        return float(np.abs(tang).max() / (u @ G @ u))

    def kkt_polish(c, iters=25):
        # Newton on the stationarity system 2c = mu * grad(F^2), F^2 = 1;
        # grad F^2 = 2 G u and Hess F^2 = 2 G with G the fundamental tensor
        mu = None
        for _ in range(iters):
            u = c @ S
            G = F.gram(u, method="closed")
            gc = 2.0 * (S @ (G @ u))
            if mu is None:
                mu = float(2.0 * c @ gc) / float(gc @ gc)
            r = np.concatenate([2.0 * c - mu * gc, [F.value(u) ** 2 - 1.0]])
            if np.abs(r).max() < 1e-14:
                break
            J = np.zeros((k + 1, k + 1))
            J[:k, :k] = 2.0 * np.eye(k) - 2.0 * mu * (S @ G @ S.T)
            J[:k, k] = -gc
            J[k, :k] = gc
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
            c = c + step[:k]
            mu = mu + step[k]
        return to_unit(c)

    best = None
    for trial in range(starts):
        c = to_unit(rng.standard_normal(k))
        n_it = 0
        for n_it in range(1, max_iter + 1):
            u = c @ S
            G = F.gram(u, method="closed")
            grad_con = 2.0 * (S @ (G @ u))
            grad_obj = 2.0 * c
            lam = (grad_obj @ grad_con) / (grad_con @ grad_con)
            t = grad_obj - lam * grad_con
            tn = np.linalg.norm(t)
            if tn < 1e-9 or n_it >= 80:
                break
            eta = 0.5
            base = c @ c
            for _ in range(40):
                cand = to_unit(c + eta * t)
                if cand @ cand > base + 0.25 * eta * tn * tn:
                    break
                eta *= 0.5
            c = cand
        c = kkt_polish(c)
        res = stationarity(c)
        value = float(c @ c)
        if best is None or value > best[0] + 1e-14 or (abs(value - best[0]) < 1e-12 and res < best[1]):
            best = (value, res, c, n_it)
    value, res, c, iters = best
    if res > 1e-6:
        err = RuntimeError(
            "projected ascent did not reach stationarity (residual %.3e after %d iterations)"
            % (res, iters)
        )
        err.best_iterate = c @ S
        raise err
    u = c @ S
    info = {"stationarity": res, "iterations": iters, "bi_norm_sq": value}
    return u, info


def _align_into_plane(X, rot_alg_rows, u, target_rows, seed=0, max_outer=200):
    """Rotation Ad(exp x), x in the given centralizing subalgebra, moving u
    into the span of target_rows.  Returns (R on m, off-target residual)."""
    K = _orthonormal_rows(rot_alg_rows)
    T = _orthonormal_rows(target_rows)
    nm = X.dim_m
    P_off = np.eye(nm) - T.T @ T
    gens = [X.lift(row) for row in K]

    def rot(x):
        xi = sum(float(a) * g for a, g in zip(x, gens))
        return X.m_basis @ sla.expm(X.g.ad(xi)) @ X.m_basis.T

    rng = np.random.default_rng(seed)
    best = None
    for trial in range(8):
        R = np.eye(nm) if trial == 0 else rot(rng.standard_normal(len(gens)))
        for _ in range(max_outer):
            r = P_off @ (R @ u)
            if np.linalg.norm(r) < 1e-14:
                break
            # Gauss-Newton on the increment in the subalgebra
            J = np.zeros((nm, len(gens)))
            h = 1e-6
            for a in range(len(gens)):
                e = np.zeros(len(gens))
                e[a] = h
                J[:, a] = (P_off @ (rot(e) @ (R @ u)) - r) / h
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
            if np.linalg.norm(step) > 1.0:
                step = step / np.linalg.norm(step)
            R = rot(step) @ R
        res = float(np.linalg.norm(P_off @ (R @ u)))
        if best is None or res < best[1]:
            best = (R, res)
        if best[1] < 1e-13:
            break
    return best


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------


def _gcd_ok(p, q):
    return math.gcd(abs(int(p)), abs(int(q))) == 1


def example1_speed_separation(p, q):
    """Rotation-speed diagnostic for construction 1.

    The invariance argument needs the distinguished 2-plane to carry a
    rotation speed not shared by (and not vanishing on) the remaining
    summands under the circle with weights (-p, 2p+q, -p, -q).
    """
    speeds = {
        "pole_summand": 0,
        "plane_summand": 2 * p + 2 * q,
        "rest": sorted({abs(q - p), abs(3 * p + q), abs(q - p)}),
    }
    unique = (
        speeds["plane_summand"] != 0
        and abs(speeds["plane_summand"]) not in speeds["rest"]
    )
    return {"weights": (-p, 2 * p + q, -p, -q), "speeds": speeds, "separated": bool(unique)}


def _validate_example_params(example_id, params):
    if example_id == 1:
        p, q = int(params.get("p", 2)), int(params.get("q", 1))
        if not _gcd_ok(p, q):
            raise ExampleParameterError("construction 1 requires gcd(p, q) = 1")
        if p + q <= 0:
            raise ExampleParameterError("construction 1 requires p + q > 0")
        if p < q:
            raise ExampleParameterError("construction 1 requires p >= q")
        if (p, q) in ((1, 0), (1, 1), (1, -1), (3, -1)):
            raise ExampleParameterError(
                "construction 1 excludes (p, q) = %s; the invariance argument degenerates" % ((p, q),)
            )
        return {"p": p, "q": q}
    if example_id == 3:
        p, q = int(params.get("p", 2)), int(params.get("q", 1))
        if not _gcd_ok(p, q):
            raise ExampleParameterError("construction 3 requires gcd(p, q) = 1")
        if not (p > q > 0):
            raise ExampleParameterError("construction 3 requires p > q > 0")
        if (p, q) == (3, 1):
            raise ExampleParameterError("construction 3 excludes (p, q) = (3, 1)")
        return {"p": p, "q": q}
    if example_id in (2, 4, 5):
        return {}
    raise ExampleParameterError("unknown construction id %r" % (example_id,))


def construct_example_flat(example_id, params=None, epsilons=DEFAULT_EPSILONS, seed=0,
                           u_angle=0.35, v_angle=-0.6):
    """Build a catalog construction: space, norm family, and flat flags.

    Every returned flag certifies verdict zero_flag through the curvature
    module for each norm in the family; constructions 1, 2, 5 also carry
    the auxiliary subspace m' with their bracket-closure claims.
    """
    params = _validate_example_params(example_id, params or {})
    builder = {
        1: _example1,
        2: _example2,
        3: _example3,
        4: _example4,
        5: _example5,
    }[example_id]
    return builder(params, tuple(epsilons), seed, float(u_angle), float(v_angle))


def _angle_vector(X, root, angle, scale=1.0):
    return X.m_vector(root=root, xy=(scale * np.cos(angle), scale * np.sin(angle)))


def _example1(params, epsilons, seed, u_angle, v_angle):
    p, q = params["p"], params["q"]
    g = build_lie_algebra("su", 4)
    X = build_space(
        g,
        [SubalgebraSpec.block(1, 2), SubalgebraSpec.circle(p + q, p + q, -2 * p, -2 * q)],
        name="su(4)/su(2)xS1(%d,%d,%d,%d)" % (p + q, p + q, -2 * p, -2 * q),
    )
    u = _angle_vector(X, (1, 0, -1, 0), u_angle)
    v = _angle_vector(X, (0, 1, 0, -1), v_angle)

    tm = _tm_rows(X)
    m2 = np.vstack([_plane_rows(X, r) for r in ((1, 0, 0, -1), (0, 1, -1, 0), (0, 0, 1, -1))])
    tu = _t_bracket_line(X, u)
    tv = _t_bracket_line(X, v)
    m_prime = _stack_rows(tm, tu, m2)

    claims = [
        ClosureClaim(
            description="[u, m']_m inside m'",
            vector="u",
            domain="m_prime",
            target=m_prime,
        ),
        ClosureClaim(
            description="[v, m']_m inside m' + [t, v]",
            vector="v",
            domain="m_prime",
            target=_stack_rows(m_prime, tv),
            narrow_target=m_prime,
            note="m' alone misses the [t, v] rotation line; the overflow lies in "
            "the v-summand, which every invariant norm keeps orthogonal to the pole",
        ),
    ]
    flags = []
    for k, eps in enumerate(epsilons):
        F = make_norm("quartic_perturbed", {"epsilon": eps}, X, seed=seed + k)
        flags.append(FlagInstance(norm=F, u=u, v=v, m_prime=m_prime, claims=claims))
    notes = {
        "parameter_constraints": "gcd(p,q)=1, p+q>0, p>=q, (p,q) not in {(1,0),(1,1),(1,-1),(3,-1)}",
        "constraint_note": "the excluded set is the union of the two stated versions "
        "of the constraint list, which disagree about (1,0)",
        "speed_separation": example1_speed_separation(p, q),
    }
    return ExampleConstruction(1, params, X, flags, notes)


def _example2(params, epsilons, seed, u_angle, v_angle):
    g = build_lie_algebra("su", 4)
    X = build_space(
        g,
        [SubalgebraSpec.block(1, 2), SubalgebraSpec.circle(1, 1, -1, -1)],
        name="su(4)/su(2)xS1(1,1,-1,-1)",
    )
    tm = _tm_rows(X)
    p34 = _plane_rows(X, (0, 0, 1, -1))
    m0 = _stack_rows(tm, p34)
    m1 = np.vstack([_plane_rows(X, (1, 0, -1, 0)), _plane_rows(X, (1, 0, 0, -1))])
    m2 = np.vstack([_plane_rows(X, (0, 1, -1, 0)), _plane_rows(X, (0, 1, 0, -1))])
    target = _plane_rows(X, (1, 0, -1, 0))
    v = _angle_vector(X, (0, 1, 0, -1), v_angle)

    flags = []
    for k, eps in enumerate(epsilons):
        F = make_norm("quartic_perturbed", {"epsilon": eps}, X, seed=seed + k)
        u_star, ext = extremal_unit_vector(F, m1, seed=seed + 7 + k)
        R, align_res = _align_into_plane(X, m0, u_star, target, seed=seed + 11 + k)
        u = R @ u_star
        Fr = F.transform(R.T)
        tu = _t_bracket_line(X, u)
        m_prime = _stack_rows(tm, p34, tu, _plane_rows(X, (1, 0, 0, -1)))
        claims = [
            ClosureClaim(
                description="[u, m]_m inside m'",
                vector="u",
                domain="m",
                target=m_prime,
            ),
            ClosureClaim(
                description="[v, m]_m inside m0 + m2",
                vector="v",
                domain="m",
                target=_stack_rows(m0, m2),
                narrow_target=m_prime,
                note="m' itself misses the v-brackets (the [t, v] line and the "
                "within-summand images); m0 + m2 is the inclusion the flatness "
                "conditions rest on, and its overflow stays orthogonal to the pole",
            ),
        ]
        flags.append(
            FlagInstance(
                norm=Fr,
                u=u,
                v=v,
                m_prime=m_prime,
                claims=claims,
                aux={"extremal": ext, "alignment_residual": align_res},
            )
        )
    return ExampleConstruction(2, params, X, flags, {"pole": "extremal in m1, rotated into a named plane"})


def _example3(params, epsilons, seed, u_angle, v_angle):
    p, q = params["p"], params["q"]
    g = build_lie_algebra("sp", 2)
    X = build_space(g, [SubalgebraSpec.circle(p, q)], name="sp(2)/S1(%d,%d)" % (p, q))
    u = _angle_vector(X, (2, 0), u_angle)
    v = _angle_vector(X, (0, 2), v_angle)
    flags = []
    for k, eps in enumerate(epsilons):
        F = make_norm("quartic_perturbed", {"epsilon": eps}, X, seed=seed + k)
        flags.append(FlagInstance(norm=F, u=u, v=v))
    notes = {"speeds": [s for (_, _, s) in ad_rotation_speeds(X, [p, q])]}
    return ExampleConstruction(3, params, X, flags, notes)


def _example4(params, epsilons, seed, u_angle, v_angle):
    g = build_lie_algebra("sp", 3)
    X = build_space(
        g,
        [SubalgebraSpec.sp1_block(3), SubalgebraSpec.circle(1, 3, 0)],
        name="sp(3)/sp(1)xS1(1,3,0)",
    )
    u = _angle_vector(X, (0, 2, 0), u_angle)
    v = _angle_vector(X, (1, 0, -1), v_angle)

    # order-12 torus element rotating the pole plane by pi
    datum = g.root_datum()
    tau = np.asarray([1.0, 3.0, 4.0]) @ datum.lattice
    theta = np.pi / 6.0
    R = X.m_basis @ sla.expm(theta * g.ad(tau)) @ X.m_basis.T

    flags = []
    for k, eps in enumerate(epsilons):
        F = make_norm("quartic_perturbed", {"epsilon": eps}, X, seed=seed + k)
        un = u / np.linalg.norm(u)
        G = fundamental_tensor(F, un).gram
        aux = {
            "pole_reversal_residual": float(np.linalg.norm(R @ un + un)),
            "gram_preservation_residual": float(np.abs(R.T @ G @ R - G).max()),
            "speeds": [s for (_, _, s) in ad_rotation_speeds(X, [1, 3, 4])],
        }
        flags.append(FlagInstance(norm=F, u=u, v=v, aux=aux))
    return ExampleConstruction(4, params, X, flags, {"torus_element": "weights (1,3,4) at angle pi/6"})


def _example5(params, epsilons, seed, u_angle, v_angle):
    g = build_lie_algebra("g2")
    datum = g.root_datum()
    pl1 = datum.plane_for_root((1, 0))  # short generator root
    x1, y1 = pl1[:, 0], pl1[:, 1]
    t1 = g.bracket(x1, y1)
    t1 /= np.linalg.norm(t1)
    X = build_space(
        g,
        [SubalgebraSpec.explicit([g.to_matrix(x1), g.to_matrix(y1), g.to_matrix(t1)])],
        name="g2/su(2)-short",
    )
    tm = _tm_rows(X)
    p_g2 = _plane_rows(X, (0, 1))
    p_g3 = _plane_rows(X, (1, 1))
    p_g4 = _plane_rows(X, (2, 1))
    p_g5 = _plane_rows(X, (3, 1))
    p_g6 = _plane_rows(X, (3, 2))
    m0 = _stack_rows(tm, p_g6)
    m1 = _stack_rows(p_g2, p_g5)
    m2 = _stack_rows(p_g3, p_g4)

    # torus element of H acting as Id / -Id / R(pi/3) on m0 / m1 / m2
    s_unit = abs(datum.root_value(datum.index_for_root((1, 1)), t1))
    R_blocks = X.m_basis @ sla.expm((np.pi / 3.0 / s_unit) * g.ad(t1)) @ X.m_basis.T
    block_eigs = {}
    for name, rows in (("m0", m0), ("m1", m1), ("m2", m2)):
        sub = rows @ R_blocks @ rows.T
        block_eigs[name] = np.linalg.eigvals(sub)

    v = _angle_vector(X, (2, 1), v_angle)
    flags = []
    for k, eps in enumerate(epsilons):
        F = make_norm("quartic_perturbed", {"epsilon": eps}, X, seed=seed + k)
        u_star, ext = extremal_unit_vector(F, m1, seed=seed + 7 + k)
        R, align_res = _align_into_plane(X, m0, u_star, p_g2, seed=seed + 11 + k)
        u = R @ u_star
        Fr = F.transform(R.T)
        tu = _t_bracket_line(X, u)
        claims = [
            ClosureClaim(
                description="[u, m]_m inside m0 + [u, t] + (long-root plane of the pole summand)",
                vector="u",
                domain="m",
                target=_stack_rows(m0, tu, p_g5),
            ),
            ClosureClaim(
                description="[v, m]_m inside m0 + m2",
                vector="v",
                domain="m",
                target=_stack_rows(m0, m2),
            ),
        ]
        flags.append(
            FlagInstance(
                norm=Fr,
                u=u,
                v=v,
                m_prime=_stack_rows(m0, tu, p_g5),
                claims=claims,
                aux={
                    "extremal": ext,
                    "alignment_residual": align_res,
                    "block_rotation_eigenvalues": {k2: v2.tolist() for k2, v2 in block_eigs.items()},
                },
            )
        )
    notes = {
        "decomposition_dims": [int(m0.shape[0]), int(m1.shape[0]), int(m2.shape[0])],
        "block_action": "identity on m0, minus identity on m1, rotation by pi/3 on m2",
    }
    return ExampleConstruction(5, params, X, flags, notes)


# ---------------------------------------------------------------------------
# closure-claim verification
# ---------------------------------------------------------------------------


def verify_closure_claims(example, m_prime=None, flag_index=0, tol=CLOSURE_TOL):
    """Residual report for the bracket-closure claims of a construction.

    m_prime overrides the stored auxiliary subspace (used for negative
    controls); claims whose target is built from m' are re-targeted.
    """
    flag = example.flags[flag_index]
    X = example.space
    out = []
    for claim in flag.claims:
        x = flag.u if claim.vector == "u" else flag.v
        if claim.domain == "m":
            domain = np.eye(X.dim_m)
        else:
            domain = m_prime if m_prime is not None else flag.m_prime
        target = claim.target
        if m_prime is not None and claim.domain == "m_prime":
            target = m_prime
        res = bracket_closure_residual(X, x, domain, target)
        entry = {
            "description": claim.description,
            "vector": claim.vector,
            "residual": res,
            "passes": bool(res < tol),
        }
        if claim.narrow_target is not None and m_prime is None:
            entry["narrow_residual"] = bracket_closure_residual(
                X, x, domain if claim.domain == "m_prime" else np.eye(X.dim_m), claim.narrow_target
            )
            entry["note"] = claim.note
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# generic search
# ---------------------------------------------------------------------------


def _commutant_in_m(X, u):
    """Kernel of w -> [u, w] on m (full bracket), excluding the pole line."""
    B = np.einsum("ije,i->ej", X.full_bracket_tensor(), u)
    ker = null_rows(B, 1e-9)
    if ker.shape[0] == 0:
        return ker
    un = u / np.linalg.norm(u)
    ker = ker - np.outer(ker @ un, un)
    return _orthonormal_rows(ker, tol=1e-9)


def _residual_form(X, F, u):
    """PSD form A and constant c with residual(u, v) = v'Av + c."""
    un = u / np.linalg.norm(u)
    gram = F.gram(un, method="closed")
    M1 = _bracket_rows(X, un) @ gram  # rows: <[w_i,u]_m, .>_u
    M2 = np.einsum("ijk,k->ij", X.m_bracket_tensor(), gram @ un)  # entry (i,j): <[w_i, e_j]_m, u>_u
    r1 = M1 @ un
    A = M1.T @ M1 + M2.T @ M2
    return A, float(r1 @ r1)


def generic_flat_search(X, F, budget=200, seed=0, tolerances=None):
    """Seeded search for flat flags: sample poles, minimize the flatness
    residual over the commutant, certify candidates.

    Deterministic pole starts at the root-plane axes come first, then
    random points on the F-unit sphere.  Returns certificates sorted
    canonically, flat flags first, followed by the best non-certified
    candidates.
    """
    rng = np.random.default_rng(seed)
    nm = X.dim_m
    starts = []
    for root in sorted(X.plane_slices):
        if len(starts) >= budget:
            break
        starts.append(X.m_vector(root=root, xy=(1.0, 0.0)))
    while len(starts) < budget:
        w = rng.standard_normal(nm)
        starts.append(w / np.linalg.norm(w))

    certified = []
    near = []
    seen = set()
    for w in starts:
        u = w / F.value(w)
        score, v = _flatness_score(X, F, u)
        if v is None:
            continue
        if score > 1e-16:
            u2, v2, score2 = _descend_pole(X, F, u, score, seed=seed)
            if v2 is not None and score2 < score:
                u, v, score = u2, v2, score2
        cert = flag_curvature(X, F, u, v, tolerances=tolerances)
        key = _flag_key(u, v)
        if key in seen:
            continue
        seen.add(key)
        if cert.verdict == "zero_flag":
            certified.append(cert)
        else:
            near.append((score, cert))

    certified.sort(key=lambda crt: _flag_key(crt.u, crt.v))
    near.sort(key=lambda t: t[0])
    return certified + [crt for _, crt in near[:3]]


def _flag_key(u, v):
    def canon(x):
        x = np.asarray(x, dtype=float)
        x = x / np.linalg.norm(x)
        nz = x[np.abs(x) > 1e-9]
        if len(nz) and nz[0] < 0:
            x = -x
        return tuple(np.round(x, 7).tolist())

    return (canon(u), canon(v))


def _flatness_score(X, F, u):
    """Smallest flatness residual over v in the commutant of the F-unit pole
    u, and the v attaining it; (inf, None) when the commutant is empty."""
    com = _commutant_in_m(X, u)
    if com.shape[0] == 0:
        return np.inf, None
    A, c0 = _residual_form(X, F, u)
    Ak = com @ A @ com.T
    vals, vecs = np.linalg.eigh(0.5 * (Ak + Ak.T))
    return float(vals[0]) + c0, vecs[:, 0] @ com


def _descend_pole(X, F, u0, score0, seed=0, max_iter=120):
    """Projected-gradient refinement of the pole, v re-solved per step."""

    def objective(u):
        return _flatness_score(X, F, u / F.value(u))

    u = u0 / F.value(u0)
    score, v = objective(u)
    if not np.isfinite(score):
        return u0, None, np.inf
    h = 1e-6
    for _ in range(max_iter):
        grad = np.zeros(len(u))
        finite = True
        for i in range(len(u)):
            e = np.zeros(len(u))
            e[i] = h
            s_plus, _ = objective(u + e)
            if not np.isfinite(s_plus):
                finite = False
                break
            grad[i] = (s_plus - score) / h
        gn = np.linalg.norm(grad)
        if not finite or gn < 1e-14 or score < 1e-18:
            break
        eta = 0.1 / max(gn, 1.0)
        improved = False
        for _ in range(25):
            cand = u - eta * grad
            s_new, v_new = objective(cand)
            if np.isfinite(s_new) and s_new < score - 1e-20:
                u, score, v = cand / F.value(cand), s_new, v_new
                improved = True
                break
            eta *= 0.5
        if not improved:
            break
    return u, v, score
