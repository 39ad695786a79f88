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
over the F-unit sphere of a distinguished subspace m1, by Newton steps from
the best of a seeded sample of directions, then rotate it with Ad(exp x),
x in the centralizing subalgebra m0, onto the positive first axis of a
named root plane, pulling the norm back along the same rotation.  The pole
is thus sqrt(bi_norm_sq) times that axis, whichever point of the
maximizing orbit the Newton steps reached.

Each construction's G/H is built once per process for its (p, q) and
shared, read-only and with the caches it carries, by later calls
(_catalog_space); the norms, poles and flags are built on every call.

The generic search scores a pole by the smallest flatness residual over
its commutant in m and descends on that score with its exact gradient,
read off the commutant SVD that scoring already does (_flatness_score)
and formed only at the poles the descent accepts (_score_gradient).  Where
the gradient is undefined, at a degenerate minimum or where the commutant
dimension is about to change, the descent stops and the pole is certified
as scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, is_dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from .liealg import build_lie_algebra, _orthonormal_rows
from .homspace import SubalgebraSpec, ad_rotation_speeds, build_space, invariant_blocks
from .minkowski import NormValidationError, make_norm, fundamental_tensor
from .curvature import _bracket_rows, flag_curvature

CLOSURE_TOL = 1e-10
DEFAULT_EPSILONS = (0.05, 0.1, 0.2)
EXTREMAL_SAMPLES = 256
EXTREMAL_STARTS = 6
EXTREMAL_STEPS = 25
DESCENT_STEPS = 120
# _score_gradient: the exact gradient needs a simple minimum (relative
# eigenvalue gap) and a locally constant kernel dimension (smallest
# non-kernel singular value above, growth rates of the zero ones below,
# this fraction of max(1, s_max)); the Cartan term is a central difference
# of the closed-form gram with this step
GRADIENT_GAP = 1e-8
GRADIENT_SPLIT = 1e-6
GRADIENT_CARTAN_STEP = 1e-5


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
    s = X.root_plane_slice(root)[0]
    return np.eye(X.dim_m)[s:s + 2]


def _tm_rows(X):
    s, k = X.tm_slice
    return np.eye(X.dim_m)[s:s + k]


def _t_bracket_line(X, u):
    """Span of [t, u] projected to m, for the full torus t of g."""
    rows = X.g.ad(X.g.root_datum().cartan) @ X.lift(u) @ X.m_basis.T
    return _orthonormal_rows(rows, tol=1e-9)


def _stack_rows(*groups):
    rows = [g for g in groups if g is not None and len(g)]
    return _orthonormal_rows(np.vstack(rows)) if rows else np.zeros((0, 0))


def bracket_closure_residual(X, x, domain_rows, target_rows):
    """Largest off-target component of [x, w]_m over unit w in the domain."""
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    T = _orthonormal_rows(target_rows)
    B = np.atleast_2d(domain_rows) @ np.tensordot(x, X.m_bracket_tensor(), axes=1)
    off = B - (B @ T.T) @ T if T.size else B
    return float(np.linalg.norm(off, axis=1).max(initial=0.0))


# ---------------------------------------------------------------------------
# extremal pole and plane alignment
# ---------------------------------------------------------------------------


def extremal_unit_vector(F, subspace, seed=0):
    """F-unit vector of maximal invariant length |u|^2 in the subspace.

    EXTREMAL_SAMPLES seeded directions are scaled to F = 1, and the
    EXTREMAL_STARTS of largest |u|^2 take up to EXTREMAL_STEPS Newton
    steps together on the stationarity condition 2c = mu grad F^2, each
    rescaled to F = 1; per step one gram batch and one value_many batch
    serve the starts whose residual 2c - mu grad F^2 is still >= 1e-14.
    A step solves with the Hessian of |c|^2 - mu F^2 on the tangent space,
    2I - 2 mu G with G the fundamental tensor, its eigenvalues replaced by
    -max(|lambda|, 1e-8): Newton at a maximum, and away from a saddle,
    to which the plain KKT Newton would converge; steps are capped at half
    of |c|.  The largest value wins, ties going to the smaller
    stationarity residual max |g_u(u, w)| / g_u(u,u) over unit w
    orthogonal to u in the subspace, and it may not fall below the best
    sample.  The seed decides which point of the maximizing orbit comes
    back; _extremal_pole moves it to a canonical one."""
    S = _orthonormal_rows(subspace)
    k = S.shape[0]
    if k == 0:
        raise ValueError("subspace must be nonzero")
    C = np.random.default_rng(seed).standard_normal((EXTREMAL_SAMPLES, k))
    C /= F.value_many(C @ S)[:, None]
    sq = np.einsum("ni,ni->n", C, C)
    top = np.argsort(-sq, kind="stable")[:EXTREMAL_STARTS]
    sampled, C = sq[top[0]], C[top]
    iters = np.zeros(len(C), dtype=int)
    live = np.arange(len(C))
    for _ in range(EXTREMAL_STEPS):
        c = C[live]
        G = S @ F.gram_batch_closed(c @ S) @ S.T
        gc = 2.0 * np.einsum("nij,nj->ni", G, c)
        mu = np.einsum("ni,ni->n", 2.0 * c, gc) / np.einsum("ni,ni->n", gc, gc)
        t = 2.0 * c - mu[:, None] * gc
        moving = np.abs(t).max(axis=1) >= 1e-14
        live, c, G, gc, mu, t = (a[moving] for a in (live, c, G, gc, mu, t))
        if not len(live):
            break
        nrm = gc / np.linalg.norm(gc, axis=1, keepdims=True)
        P = np.eye(k) - nrm[:, :, None] * nrm[:, None, :]
        lam, V = np.linalg.eigh(P @ (2.0 * np.eye(k) - 2.0 * mu[:, None, None] * G) @ P)
        d = np.einsum("nij,nj->ni", V, np.einsum("nji,nj->ni", V, t) / np.maximum(np.abs(lam), 1e-8))
        d *= np.minimum(1.0, 0.5 * np.linalg.norm(c, axis=1) / np.linalg.norm(d, axis=1))[:, None]
        c = c + d
        C[live] = c / F.value_many(c @ S)[:, None]
        iters[live] += 1
    U = C @ S
    GU = np.einsum("nij,nj->ni", F.gram_batch_closed(U), U)
    p = GU @ S.T
    chat = C / np.linalg.norm(C, axis=1, keepdims=True)
    tang = p - np.einsum("ni,ni->n", p, chat)[:, None] * chat
    stationarity = np.abs(tang).max(axis=1) / np.einsum("ni,ni->n", U, GU)

    best = None
    for c, res, n_it in zip(C, stationarity, iters):
        value = float(c @ c)
        if best is None or value > best[0] + 1e-14 or (abs(value - best[0]) < 1e-12 and res < best[1]):
            best = (value, float(res), c, int(n_it))
    value, res, c, iters = best
    if res > 1e-6 or value < sampled - 1e-12:
        err = RuntimeError(
            "Newton did not reach a stationary maximum (residual %.3e after %d iterations, "
            "value %.17g, best sample %.17g)" % (res, iters, value, sampled)
        )
        err.best_iterate = c @ S
        raise err
    u = c @ S
    info = {"stationarity": res, "iterations": iters, "bi_norm_sq": value}
    return u, info


def _align_into_plane(X, rot_alg_rows, u, axis):
    """Rotation R = Ad(exp x) on m, x in the given centralizing subalgebra,
    moving u onto the line of the unit vector axis.  Returns (R, residual).

    Gauss-Newton on x from the identity.  As x commutes with h, ad(x) keeps
    m and R = expm(ad_m(x)), with ad_m the m-block of ad; the Jacobian of
    P_off R u in x_a is P_off ad_m(k_a) R u."""
    K = _orthonormal_rows(rot_alg_rows)
    P_off = np.eye(X.dim_m) - np.outer(axis, axis)
    ad_m = np.einsum("ai,ijk->akj", K, X.m_bracket_tensor())
    R = np.eye(X.dim_m)
    for _ in range(200):
        Ru = R @ u
        r = P_off @ Ru
        if np.linalg.norm(r) < 1e-14:
            break
        step, *_ = np.linalg.lstsq(P_off @ (ad_m @ Ru).T, -r, rcond=None)
        R = sla.expm(np.tensordot(step / max(1.0, np.linalg.norm(step)), ad_m, axes=1)) @ R
    return R, float(np.linalg.norm(P_off @ (R @ u)))


def _extremal_pole(X, F, m0, m1, axis, seed):
    """Pole u of constructions 2 and 5, the norm pulled back for it, and aux.

    The F-extremal pole of m1 (seed + 7) is rotated by m0 onto the line of
    the unit vector axis and taken on its positive side, so u is
    sqrt(bi_norm_sq) axis whatever orbit point the Newton steps reached.  The
    norm is reversible, so the sign needs no pullback."""
    u_star, ext = extremal_unit_vector(F, m1, seed=seed + 7)
    R, align_res = _align_into_plane(X, m0, u_star, axis)
    u = R @ u_star
    if u @ axis < 0:
        u = -u
    return u, F.transform(R.T), {"extremal": ext, "alignment_residual": align_res}


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
    the auxiliary subspace m' with their bracket-closure claims.  The space
    is shared with every call for the same construction and (p, q).
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


@lru_cache(maxsize=32)
def _catalog_space(example_id, p=0, q=0):
    """The G/H of a construction, built once per (example_id, p, q) and
    shared by every call.  Its space-level caches (bracket tensors,
    isotropy operators, commutant, root datum) are filled before it is
    shared, and then every array of the space and of its algebra is made
    read-only, so no caller can change what a later call is given.  Norms,
    poles and all else drawn from a seed or an angle stay per call."""
    X = _build_catalog_space(example_id, p, q)
    X.m_bracket_tensor()
    invariant_blocks(X)
    X.g.root_datum()
    _make_read_only(X)
    return X


def _build_catalog_space(example_id, p, q):
    if example_id == 1:
        return build_space(
            build_lie_algebra("su", 4),
            [SubalgebraSpec.block(1, 2), SubalgebraSpec.circle(p + q, p + q, -2 * p, -2 * q)],
            name="su(4)/su(2)xS1(%d,%d,%d,%d)" % (p + q, p + q, -2 * p, -2 * q),
        )
    if example_id == 2:
        return build_space(
            build_lie_algebra("su", 4),
            [SubalgebraSpec.block(1, 2), SubalgebraSpec.circle(1, 1, -1, -1)],
            name="su(4)/su(2)xS1(1,1,-1,-1)",
        )
    if example_id == 3:
        return build_space(
            build_lie_algebra("sp", 2), [SubalgebraSpec.circle(p, q)], name="sp(2)/S1(%d,%d)" % (p, q)
        )
    if example_id == 4:
        return build_space(
            build_lie_algebra("sp", 3),
            [SubalgebraSpec.sp1_block(3), SubalgebraSpec.circle(1, 3, 0)],
            name="sp(3)/sp(1)xS1(1,3,0)",
        )
    g = build_lie_algebra("g2")
    x1, y1, t1 = _short_root_su2(g)
    return build_space(
        g,
        [SubalgebraSpec.explicit([g.to_matrix(x1), g.to_matrix(y1), g.to_matrix(t1)])],
        name="g2/su(2)-short",
    )


def _make_read_only(root):
    """Clear the writeable flag of every array reachable from root through
    dataclass fields, dicts, lists and tuples."""
    stack, seen = [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            obj.flags.writeable = False
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif is_dataclass(obj):
            stack.extend(vars(obj).values())


def _short_root_su2(g):
    """The su(2) of g2 on the short generator root (1, 0): its plane x1, y1
    and the unit torus element t1 along [x1, y1]."""
    pl1 = g.root_datum().plane_for_root((1, 0))
    x1, y1 = pl1[:, 0], pl1[:, 1]
    t1 = g.bracket(x1, y1)
    return x1, y1, t1 / np.linalg.norm(t1)


def _quartic_norms(X, epsilons, seed):
    """The construction's quartic norms, the k-th at epsilons[k] with seed
    seed + k.  A NormValidationError carries the failing k as epsilon_index."""
    for k, eps in enumerate(epsilons):
        try:
            F = make_norm("quartic_perturbed", {"epsilon": eps}, X, seed=seed + k)
        except NormValidationError as err:
            err.epsilon_index = k
            raise
        yield F


def _angle_vector(X, root, angle, scale=1.0):
    return X.m_vector(root=root, xy=(scale * np.cos(angle), scale * np.sin(angle)))


def _example1(params, epsilons, seed, u_angle, v_angle):
    p, q = params["p"], params["q"]
    X = _catalog_space(1, p, q)
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
    flags = [FlagInstance(norm=F, u=u, v=v, m_prime=m_prime, claims=claims)
             for F in _quartic_norms(X, epsilons, seed)]
    notes = {
        "parameter_constraints": "gcd(p,q)=1, p+q>0, p>=q, (p,q) not in {(1,0),(1,1),(1,-1),(3,-1)}",
        "constraint_note": "the excluded set is the union of the two stated versions "
        "of the constraint list, which disagree about (1,0)",
        "speed_separation": example1_speed_separation(p, q),
    }
    return ExampleConstruction(1, params, X, flags, notes)


def _example2(params, epsilons, seed, u_angle, v_angle):
    X = _catalog_space(2)
    tm = _tm_rows(X)
    p34 = _plane_rows(X, (0, 0, 1, -1))
    m0 = _stack_rows(tm, p34)
    m1 = np.vstack([_plane_rows(X, (1, 0, -1, 0)), _plane_rows(X, (1, 0, 0, -1))])
    m2 = np.vstack([_plane_rows(X, (0, 1, -1, 0)), _plane_rows(X, (0, 1, 0, -1))])
    axis = _plane_rows(X, (1, 0, -1, 0))[0]
    v = _angle_vector(X, (0, 1, 0, -1), v_angle)

    flags = []
    for k, F in enumerate(_quartic_norms(X, epsilons, seed)):
        u, Fr, aux = _extremal_pole(X, F, m0, m1, axis, seed + k)
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
                aux=aux,
            )
        )
    return ExampleConstruction(2, params, X, flags, {"pole": "extremal in m1, rotated into a named plane"})


def _example3(params, epsilons, seed, u_angle, v_angle):
    p, q = params["p"], params["q"]
    X = _catalog_space(3, p, q)
    u = _angle_vector(X, (2, 0), u_angle)
    v = _angle_vector(X, (0, 2), v_angle)
    flags = [FlagInstance(norm=F, u=u, v=v) for F in _quartic_norms(X, epsilons, seed)]
    notes = {"speeds": [s for (_, _, s) in ad_rotation_speeds(X, [p, q])]}
    return ExampleConstruction(3, params, X, flags, notes)


def _example4(params, epsilons, seed, u_angle, v_angle):
    X = _catalog_space(4)
    g = X.g
    u = _angle_vector(X, (0, 2, 0), u_angle)
    v = _angle_vector(X, (1, 0, -1), v_angle)

    # order-12 torus element rotating the pole plane by pi
    datum = g.root_datum()
    tau = np.asarray([1.0, 3.0, 4.0]) @ datum.lattice
    theta = np.pi / 6.0
    R = X.m_basis @ sla.expm(theta * g.ad(tau)) @ X.m_basis.T

    flags = []
    for F in _quartic_norms(X, epsilons, seed):
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
    X = _catalog_space(5)
    g = X.g
    datum = g.root_datum()
    t1 = _short_root_su2(g)[2]
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
    # complex even where every eigenvalue comes out real: one JSON type
    block_eigs = {
        name: np.asarray(np.linalg.eigvals(rows @ R_blocks @ rows.T), complex).tolist()
        for name, rows in (("m0", m0), ("m1", m1), ("m2", m2))
    }

    v = _angle_vector(X, (2, 1), v_angle)
    flags = []
    for k, F in enumerate(_quartic_norms(X, epsilons, seed)):
        u, Fr, aux = _extremal_pole(X, F, m0, m1, p_g2[0], seed + k)
        aux["block_rotation_eigenvalues"] = block_eigs
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
                aux=aux,
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
    controls); a claim whose domain is m' is re-targeted to the override
    plus the rows of its own target that lie outside the stored m'.
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
            T = _orthonormal_rows(target)
            target = _stack_rows(m_prime, _orthonormal_rows(T - (T @ flag.m_prime.T) @ flag.m_prime, tol=1e-9))
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
    """Commutant in m of the pole u, pole line excluded, as (W, s, Vt, k)
    from one SVD W diag(s) Vt of [B(u); u/|u|], with B(u) w = [u, w] (full
    bracket): the commutant is Vt[dim m - k:].  As B(u) u = 0, the appended
    row lifts the pole's zero singular value to 1 and leaves the null_rows
    cutoff s <= 1e-9 max(1, s_max) as it is.  dim g + 1 > dim m, so the
    economy Vt is all of Vt."""
    B = np.einsum("ije,i->ej", X.full_bracket_tensor(), u)
    w, s, vt = np.linalg.svd(np.vstack([B, u / np.linalg.norm(u)]), full_matrices=False)
    return w, s, vt, int(np.count_nonzero(s <= 1e-9 * max(1.0, s[0])))


def generic_flat_search(X, F, budget=200, seed=0, tolerances=None):
    """Seeded search for flat flags: sample poles, minimize the flatness
    residual over the commutant, certify candidates.

    Deterministic pole starts at the root-plane axes come first, then
    random points on the F-unit sphere.  Each start is scored here by
    _flatness_score and, unless already flat, refined by _descend_pole.
    The gradient is None where the smallest residual eigenvalue has a
    relative gap <= GRADIENT_GAP or the commutant dimension may change
    nearby (see _score_gradient); there the start, or the iterate that
    reaches such a pole, is certified as scored.
    Returns certificates sorted canonically, flat flags first, followed by
    the best non-certified candidates.
    """
    rng = np.random.default_rng(seed)
    starts = [X.m_vector(root=root, xy=(1.0, 0.0)) for root in sorted(X.plane_slices)][:budget]
    while len(starts) < budget:
        w = rng.standard_normal(X.dim_m)
        starts.append(w / np.linalg.norm(w))

    certified = []
    near = []
    seen = set()
    for w in starts:
        u = w / F.value(w)
        score, v, parts = _flatness_score(X, F, u)
        if v is None:
            continue
        if score > 1e-16:
            u, v, score = _descend_pole(X, F, u, score, v, parts)
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


def _oriented(x):
    """x or -x, whichever has its first entry that is nonzero at 7
    decimals of x/|x| positive."""
    r = np.round(x / np.linalg.norm(x), 7)
    nz = r[r != 0]
    return -x if len(nz) and nz[0] < 0 else x


def _flag_key(u, v):
    return tuple(tuple(np.round(_oriented(x) / np.linalg.norm(x), 7).tolist()) for x in (u, v))


def _flatness_score(X, F, u):
    """Smallest flatness residual over v in the commutant of the F-unit
    pole u, the unit v attaining it, and the parts _score_gradient needs
    (None where the minimum is not simple); inf, None and None where the
    commutant is empty.

    The residual is v'Av + |r1|^2 at u/|u|, with M1 = [w_i, u]_m g_u,
    M2[i, j] = <[w_i, e_j]_m, u>_u, A = M1'M1 + M2'M2 and r1 = M1 u; one
    eigh minimises it over unit v in the commutant.  At a minimum lam that
    is not simple (gap <= GRADIENT_GAP max(1, |lam|)), v is the normalized
    projection onto the minimizing eigenspace of the first m-basis vector
    it keeps most of, so v does not follow the SVD's commutant basis; v is
    oriented as in _flag_key."""
    W, sv, vt, k = _commutant_in_m(X, u)
    if k == 0:
        return np.inf, None, None
    uh = u / np.linalg.norm(u)
    g = F.gram_batch_closed(uh[None])[0]
    N = _bracket_rows(X, uh)
    M1 = N @ g
    M2 = np.einsum("ijk,k->ij", X.m_bracket_tensor(), g @ uh)
    r1 = M1 @ uh
    A = M1.T @ M1 + M2.T @ M2
    com = vt[len(u) - k:]
    Ak = com @ A @ com.T
    vals, vecs = np.linalg.eigh(0.5 * (Ak + Ak.T))
    lam = vals[0]
    near = vals - lam <= GRADIENT_GAP * max(1.0, abs(lam))
    if near.sum() == 1:
        v, parts = vecs[:, 0] @ com, (W, sv, vt, k, lam, g, N, M1, M2, r1, A)
    else:
        E = vecs[:, near].T @ com
        p = np.einsum("ki,ki->i", E, E)  # the diagonal of the projector E'E
        v, parts = E.T @ E[:, np.argmax(p > p.max() - 1e-9)], None
    return lam + r1 @ r1, _oriented(v / np.linalg.norm(v)), parts


def _score_gradient(X, F, u, v, parts):
    """Gradient in u of the residual that _flatness_score minimised at the
    F-unit pole u, from its v and parts; None where parts is None or the
    kernel dimension k may change nearby.

    The gradient is exact where the minimum lam is simple (eigenvalue gap
    > GRADIENT_GAP max(1, |lam|)) and the kernel dimension k is locally
    constant, and None elsewhere (M. L. Overton, Large-scale optimization
    of eigenvalues, SIAM J. Optim. 2, 1992).  k is locally constant when
    the smallest non-kernel singular value is > GRADIENT_SPLIT
    max(1, s_max), so no singular value can fall into the kernel, and the
    zero singular values grow at rates <= GRADIENT_SPLIT max(1, s_max), so
    none leaves it (at the root-plane axes of so(6)/S1(1,2,0) k is 3, not
    the generic 1, and the score jumps off the axis).  There, with
    [B(u); u/|u|] = W diag(s) Vt from _commutant_in_m, the multiplier of
    the constraint [B(u); u/|u|] v = 0 is y = W diag(1/s) Vt 2(A - lam)v
    over the non-kernel rows, and with uh = u/|u| the gradient is
    (I - uh uh')gamma/|u| - sum_e y_e [e_i, v]_e - y_pole v/|u|.  gamma is
    the gradient in w of v'A(w)v + |r1(w)|^2 at uh with v held fixed,
      2 bm(M1v, ., gv) + 2 (d_a g)v + 2 g (bm(M2v, v, .) + N'r1) + 2 M2'r1,
    with g the gram at uh, N = bm(., uh, .) and a = N'M1v, as the Cartan
    tensor kills uh; (d_a g)v is a central difference of the closed-form
    gram along a.
    """
    if parts is None:
        return None
    W, sv, vt, k, lam, g, N, M1, M2, r1, A = parts
    r = len(u) - k
    tol = GRADIENT_SPLIT * max(1.0, sv[0])
    if sv[r - 1] <= tol:
        return None
    bm, bg = X.m_bracket_tensor(), X.full_bracket_tensor()
    unorm = np.linalg.norm(u)
    # the parts of d[B(u); u/|u|][e_i] x = ([e_i, x]; x_i/|u|), x in the
    # kernel, outside the range of [B(u); u/|u|] are the rates at which the
    # zero singular values grow: nonzero where u sits on a stratum of larger k
    com, Wr = vt[r:], W[:, :r]
    D = np.concatenate([np.einsum("xj,ije->xie", com, bg), com[:, :, None] / unorm], axis=2)
    if np.abs(D - (D @ Wr) @ Wr.T).max() > tol:
        return None
    uh = u / unorm
    # the multiplier y of [B(u); u/|u|] v = 0, over the non-kernel rows
    y = Wr @ ((vt[:r] @ (2.0 * (A @ v - lam * v))) / sv[:r])
    M1v = M1 @ v
    a = N.T @ M1v
    an = np.linalg.norm(a)
    h = GRADIENT_CARTAN_STEP
    step = a * (h / max(an, 1e-300))
    Gp, Gm = F.gram_batch_closed(np.stack([uh + step, uh - step]))
    inner = np.einsum("ijk,i,j->k", bm, M2 @ v, v) + N.T @ r1
    gamma = 2.0 * (np.einsum("ijk,i,k->j", bm, M1v, g @ v) + (Gp - Gm) @ v * (an / (2.0 * h))
                   + g @ inner + M2.T @ r1)
    gamma -= (gamma @ uh) * uh
    return (gamma - y[-1] * v) / unorm - np.einsum("ije,j,e->i", bg, v, y[:-1])


def _descend_pole(X, F, u, score, v, parts):
    """Projected-gradient refinement of the F-unit pole u from its score, v
    and parts (_flatness_score).  The exact gradient (_score_gradient) is
    formed at u and at each accepted step, never at a rejected candidate.
    Where it is None (a degenerate minimum or a kernel dimension about to
    change, as at the axis poles) the descent stops and returns u, v and
    score as they are.  Each of up to DESCENT_STEPS steps takes the first
    of up to 25 halved steps that improves the score."""
    grad = _score_gradient(X, F, u, v, parts)
    for _ in range(DESCENT_STEPS):
        if grad is None:
            break
        gn = np.linalg.norm(grad)
        if gn < 1e-14 or score < 1e-18:
            break
        eta = 0.1 / max(gn, 1.0)
        for _ in range(25):
            cand = u - eta * grad
            cand = cand / F.value(cand)
            s_new, v_new, p_new = _flatness_score(X, F, cand)
            if s_new < score - 1e-20:
                u, score, v = cand, s_new, v_new
                grad = _score_gradient(X, F, u, v, p_new)
                break
            eta *= 0.5
        else:
            break
    return u, v, score
