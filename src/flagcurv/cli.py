"""File-driven command line interface.

Commands (all consume a JSON space-spec file and print a JSON report on
stdout, diagnostics on stderr):

    flagcurv check-space <file>
    flagcurv curvature <file>
    flagcurv find-flat <file> [--budget N] [--seed S]
    flagcurv verify-example <file> --id K
    flagcurv speeds <file>

Exit codes: 0 success, 1 a verify-example assertion failed, 2 input error or out of memory.
Reports are byte-stable for a fixed input and seed: keys are sorted and
floats are printed with 17 significant digits, and every report embeds the
effective configuration it ran with.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

import numpy as np

from .curvature import flag_curvature
from .flatfinder import construct_example_flat, generic_flat_search, verify_closure_claims
from .homspace import (
    ad_rotation_speeds,
    build_space,
    diag_element,
    fixed_point_space,
    is_regular_subalgebra,
)
from .liealg import build_lie_algebra
from .minkowski import NormValidationError, check_norm_properties, make_norm

TASKS = ("check-space", "curvature", "find-flat", "verify-example", "speeds")

# the /task keys each task reads besides its name
_TASK_KEYS = {
    "check-space": ("samples", "involution"),
    "curvature": ("u", "v", "tolerances"),
    "find-flat": ("budget", "seed", "tolerances"),
    "verify-example": ("example_id", "params", "epsilons", "seed", "u_angle", "v_angle", "tolerances"),
    "speeds": ("weights",),
}

# the /metric keys make_norm reads for each norm kind besides kind and seed
_METRIC_KEYS = {
    "riemannian": ("block_scales", "q"),
    "alpha_beta": ("block_scales", "q", "phi", "v0", "v0_scale"),
    "quartic_perturbed": ("block_scales", "q", "weights", "epsilon"),
}


class SpecError(ValueError):
    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__("%s: %s" % (pointer or "/", message))


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return None
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": _sanitize(obj.real), "im": _sanitize(obj.imag)}
    return obj


def _render(obj):
    if obj is None or isinstance(obj, (bool, str, int)):
        return json.dumps(obj)
    if isinstance(obj, float):
        if obj == int(obj) and abs(obj) < 1e15:
            return "%.1f" % obj
        return "%.17g" % obj
    if isinstance(obj, list):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(json.dumps(k) + ":" + _render(v) for k, v in items) + "}"
    raise TypeError("cannot render %r" % type(obj))


def canonical_json(obj):
    return _render(_sanitize(obj)) + "\n"


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


def _require_keys(obj, pointer, required, optional):
    if not isinstance(obj, dict):
        raise SpecError(pointer, "expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise SpecError("%s/%s" % (pointer, key), "unknown key")
    for key in required:
        if key not in obj:
            raise SpecError(pointer, "missing required key %r" % key)


def _check_int(val, pointer, lo=None, hi=None):
    if isinstance(val, bool) or not isinstance(val, int):
        raise SpecError(pointer, "expected an integer")
    if lo is not None and val < lo:
        raise SpecError(pointer, "value %d below minimum %d" % (val, lo))
    if hi is not None and val > hi:
        raise SpecError(pointer, "value %d above maximum %d" % (val, hi))
    return val


def _check_num(val, pointer, positive=False):
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        raise SpecError(pointer, "expected a finite number")
    if positive and val <= 0:
        raise SpecError(pointer, "expected a positive number")
    return float(val)


def _check_num_list(val, pointer, length=None):
    if not isinstance(val, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x) for x in val
    ):
        raise SpecError(pointer, "expected a list of finite numbers")
    if length is not None and len(val) != length:
        raise SpecError(pointer, "expected %d entries" % length)
    return [float(x) for x in val]


def _check_int_list(val, pointer):
    if not isinstance(val, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in val
    ):
        raise SpecError(pointer, "expected a list of integers")
    return list(val)


_VEC_KEYS = {"root", "xy", "vector"}


def _validate_vector(val, pointer):
    _require_keys(val, pointer, (), _VEC_KEYS)
    if "vector" in val:
        if "root" in val or "xy" in val:
            raise SpecError(pointer, "give either a raw vector or root-plane data, not both")
        return {"vector": _check_num_list(val["vector"], pointer + "/vector")}
    if "root" not in val:
        raise SpecError(pointer, "expected root-plane data or a raw vector")
    out = {"root": _check_int_list(val["root"], pointer + "/root")}
    out["xy"] = _check_num_list(val.get("xy", [1.0, 0.0]), pointer + "/xy", length=2)
    return out


def validate_spec(doc):
    """Validate a raw space-spec document and fill defaults."""
    _require_keys(doc, "", ("task",), ("group", "isotropy", "metric"))
    task = doc["task"]
    if not isinstance(task, dict):
        raise SpecError("/task", "expected an object")
    name = task.get("name")
    if "name" in task and name not in TASKS:
        raise SpecError("/task/name", "unknown task %r" % name)
    _require_keys(task, "/task", ("name",), _TASK_KEYS.get(name, ()))

    out = {"task": {"name": name}}

    if "group" in doc:
        grp = doc["group"]
        _require_keys(grp, "/group", ("family",), ("n",))
        fam = grp["family"]
        if fam not in ("su", "sp", "so", "g2"):
            raise SpecError("/group/family", "unknown family %r" % fam)
        n = _check_int(grp.get("n", 0), "/group/n", lo=0, hi=12)
        if fam == "su" and n < 1:
            raise SpecError("/group/n", "su requires n >= 1")
        if fam == "sp" and n < 1:
            raise SpecError("/group/n", "sp requires n >= 1")
        if fam == "so" and n < 3:
            raise SpecError("/group/n", "so requires n >= 3")
        out["group"] = {"family": fam, "n": n}
    elif name != "verify-example":
        raise SpecError("", "missing required key 'group'")

    isotropy = doc.get("isotropy", [])
    if not isinstance(isotropy, list):
        raise SpecError("/isotropy", "expected a list of isotropy pieces")
    pieces = []
    for i, piece in enumerate(isotropy):
        ptr = "/isotropy/%d" % i
        _require_keys(piece, ptr, ("type",), ("indices", "weights", "index", "matrices"))
        kind = piece["type"]
        if kind == "block":
            idx = _check_int_list(piece.get("indices"), ptr + "/indices")
            if len(idx) < 2:
                raise SpecError(ptr + "/indices", "a block needs at least 2 indices")
            pieces.append({"type": "block", "indices": idx})
        elif kind == "circle":
            weights = _check_int_list(piece.get("weights"), ptr + "/weights")
            if "group" in out:
                fam, n = out["group"]["family"], out["group"]["n"]
                need = {"su": n, "sp": n, "so": n // 2}.get(fam)
                if need is not None and len(weights) != need:
                    raise SpecError(ptr + "/weights", "expected %d weights for %s(%d)" % (need, fam, n))
            pieces.append({"type": "circle", "weights": weights})
        elif kind == "sp1_block":
            pieces.append({"type": "sp1_block", "index": _check_int(piece.get("index"), ptr + "/index", lo=1)})
        elif kind == "explicit":
            mats = piece.get("matrices")
            if not isinstance(mats, list) or not mats:
                raise SpecError(ptr + "/matrices", "expected a nonempty list of matrices")
            pieces.append({"type": "explicit", "matrices": mats})
        else:
            raise SpecError(ptr + "/type", "unknown piece type %r" % kind)
    out["isotropy"] = pieces

    met = doc.get("metric", {})
    if not isinstance(met, dict):
        raise SpecError("/metric", "expected an object")
    kind = met.get("kind", "quartic_perturbed")
    if kind not in ("riemannian", "alpha_beta", "quartic_perturbed"):
        raise SpecError("/metric/kind", "unknown metric kind %r" % kind)
    _require_keys(met, "/metric", (), ("kind", "seed") + _METRIC_KEYS[kind])
    for key, shadow in (("block_scales", "q"), ("v0_scale", "v0")):
        if key in met and shadow in met:
            raise SpecError("/metric/" + key, "not read when %r is given" % shadow)
    metric = {"kind": kind, "seed": _check_int(met.get("seed", 0), "/metric/seed", lo=0)}
    if "epsilon" in met:
        metric["epsilon"] = _check_num(met["epsilon"], "/metric/epsilon", positive=True)
    for key in ("block_scales", "weights", "phi", "v0"):
        if key in met:
            metric[key] = _check_num_list(met[key], "/metric/%s" % key)
    if "v0_scale" in met:
        metric["v0_scale"] = _check_num(met["v0_scale"], "/metric/v0_scale", positive=True)
    if "q" in met:
        if not isinstance(met["q"], list):
            raise SpecError("/metric/q", "expected a matrix")
        metric["q"] = [_check_num_list(row, "/metric/q/%d" % r) for r, row in enumerate(met["q"])]
    out["metric"] = metric

    t = out["task"]
    if name == "speeds":
        t["weights"] = _check_int_list(task.get("weights"), "/task/weights")
    if name == "curvature":
        for key in ("u", "v"):
            if key not in task:
                raise SpecError("/task", "curvature task requires %r" % key)
            t[key] = _validate_vector(task[key], "/task/%s" % key)
    if name == "find-flat":
        t["budget"] = _check_int(task.get("budget", 100), "/task/budget", lo=1, hi=100000)
        t["seed"] = _check_int(task.get("seed", 0), "/task/seed", lo=0)
    if name == "verify-example":
        if "example_id" in task:
            t["example_id"] = _check_int(task["example_id"], "/task/example_id", lo=1, hi=5)
        params = task.get("params", {})
        _require_keys(params, "/task/params", (), ("p", "q"))
        t["params"] = {k: _check_int(v, "/task/params/%s" % k) for k, v in params.items()}
        epsilons = task.get("epsilons", [0.05, 0.1, 0.2])
        if not isinstance(epsilons, list) or not epsilons:
            raise SpecError("/task/epsilons", "expected a non-empty list of numbers")
        t["epsilons"] = [_check_num(e, "/task/epsilons/%d" % k) for k, e in enumerate(epsilons)]
        t["seed"] = _check_int(task.get("seed", 0), "/task/seed", lo=0)
        t["u_angle"] = _check_num(task.get("u_angle", 0.35), "/task/u_angle")
        t["v_angle"] = _check_num(task.get("v_angle", -0.6), "/task/v_angle")
    if name == "check-space":
        t["samples"] = _check_int(task.get("samples", 200), "/task/samples", lo=1, hi=100000)
        if "involution" in task:
            inv = task["involution"]
            _require_keys(inv, "/task/involution", ("diag",), ())
            entries = inv["diag"]
            if not isinstance(entries, list) or not entries:
                raise SpecError("/task/involution/diag", "expected a list of unit entries")
            parsed = []
            for i, e in enumerate(entries):
                ptr = "/task/involution/diag/%d" % i
                if isinstance(e, (int, float)) and not isinstance(e, bool):
                    parsed.append(complex(e))
                elif isinstance(e, list) and len(e) == 2:
                    parsed.append(complex(_check_num(e[0], ptr), _check_num(e[1], ptr)))
                else:
                    raise SpecError(ptr, "expected a number or a [re, im] pair")
            t["involution"] = parsed
    if "tolerances" in task:
        _require_keys(
            task["tolerances"],
            "/task/tolerances",
            (),
            ("precondition", "zero_residual", "zero_curvature"),
        )
        t["tolerances"] = {
            k: _check_num(v, "/task/tolerances/%s" % k, positive=True)
            for k, v in task["tolerances"].items()
        }
    if name == "verify-example":
        for key in ("group", "isotropy", "metric"):
            if key in doc:
                raise SpecError("/" + key, "verify-example builds its own space and norms; remove this key")
    return out


def parse_space_spec(path):
    """Load and validate a spec file; defaults are filled in the result."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError("", "cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise SpecError("", "invalid JSON: %s" % exc)
    return validate_spec(doc)


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------


# isotropy piece type -> the spec key of its data
_PIECE_KEYS = {"block": "indices", "circle": "weights", "sp1_block": "index", "explicit": "matrices"}


def _build_from_spec(spec):
    """g and G/H; a piece that fails to build is reported at its data, and
    an isotropy that fails as a whole at /isotropy."""
    grp = spec["group"]
    g = build_lie_algebra(grp["family"], grp["n"])
    pieces = [(p["type"], p[_PIECE_KEYS[p["type"]]]) for p in spec["isotropy"]]
    try:
        return g, build_space(g, pieces)
    except ValueError as exc:
        if not hasattr(exc, "piece_index"):
            raise SpecError("/isotropy", str(exc))
        kind = pieces[exc.piece_index][0]
        raise SpecError("/isotropy/%d/%s" % (exc.piece_index, _PIECE_KEYS[kind]), str(exc))

def _metric_params(metric):
    return {k: v for k, v in metric.items() if k not in ("kind", "seed")}


def _space_summary(X):
    regular, reg_report = is_regular_subalgebra(X)
    return {
        "family": X.g.family,
        "n": X.g.n,
        "dim_g": X.g.dim,
        "dim_h": X.dim_h,
        "dim_m": X.dim_m,
        "rank_g": X.rank_g,
        "rank_h": X.rank_h,
        "regular": bool(regular),
        "regularity_vacuous": bool(reg_report.get("vacuous", False)),
        "basis_adapted_to_root_planes": bool(X.adapted),
        "notes": X.notes,
    }


def _vector_from_spec(X, vec, pointer):
    try:
        return X.m_vector(**vec)
    except (KeyError, ValueError) as exc:
        raise SpecError("%s/%s" % (pointer, "vector" if "vector" in vec else "root"), exc.args[0])


def run(spec):
    """Execute a validated spec; returns (exit_code, report dict)."""
    task = spec["task"]
    name = task["name"]
    report = {"task": name, "config": {"task": task, "metric": spec.get("metric")}}

    if name == "verify-example":
        return _run_verify_example(spec, report)

    g, X = _build_from_spec(spec)
    report["space"] = _space_summary(X)

    metric = spec["metric"]
    q = metric.get("q")
    if q is not None and {len(q)} | {len(row) for row in q} != {X.dim_m}:
        raise SpecError("/metric/q", "expected a %d x %d matrix" % (X.dim_m, X.dim_m))
    try:
        F = make_norm(metric["kind"], _metric_params(metric), X, seed=metric["seed"])
    except NormValidationError as exc:
        if not hasattr(exc, "parameter"):
            raise
        raise SpecError("/metric/%s" % exc.parameter, str(exc))
    report["config"]["metric_effective"] = {
        "kind": F.kind,
        "seed": metric["seed"],
        "epsilon": F.epsilon,
        "meta": F.meta,
    }
    report["metric_check"] = check_norm_properties(
        F, X, samples=task.get("samples", 128), seed=metric["seed"]
    )

    if name == "check-space":
        payload = {"status": "ok"}
        if "involution" in task:
            try:
                iota = diag_element(g, task["involution"])
            except ValueError as exc:
                raise SpecError("/task/involution/diag", str(exc))
            try:
                fps = fixed_point_space(X, iota)
            except ValueError as exc:
                raise SpecError("/task/involution", str(exc))
            payload["fixed_point_space"] = {
                "total_dim": fps.g.dim,
                "isotropy_dim": fps.dim_h,
                "quotient_dim": fps.dim_m,
                "notes": fps.notes,
            }
        report["payload"] = payload
        return 0, report

    if name == "speeds":
        try:
            triples = ad_rotation_speeds(X, task["weights"])
        except ValueError as exc:
            raise SpecError("/task/weights", str(exc))
        report["payload"] = {
            "weights": task["weights"],
            "speeds": [{"root": list(r), "label": lab, "speed": s} for (r, lab, s) in triples],
        }
        return 0, report

    if name == "curvature":
        u = _vector_from_spec(X, task["u"], "/task/u")
        v = _vector_from_spec(X, task["v"], "/task/v")
        cert = flag_curvature(X, F, u, v, tolerances=task.get("tolerances"))
        report["payload"] = {"certificate": cert.to_dict()}
        return 0, report

    if name == "find-flat":
        certs = generic_flat_search(
            X, F, budget=task["budget"], seed=task["seed"], tolerances=task.get("tolerances")
        )
        flats = [c for c in certs if c.verdict == "zero_flag"]
        report["payload"] = {
            "budget": task["budget"],
            "seed": task["seed"],
            "certified_count": len(flats),
            "certificates": [c.to_dict() for c in certs],
        }
        return 0, report

    raise SpecError("/task/name", "unhandled task %r" % name)


def _run_verify_example(spec, report):
    task = spec["task"]
    if "example_id" not in task:
        raise SpecError("/task/example_id", "verify-example requires an id")
    example_id = task["example_id"]
    try:
        construction = construct_example_flat(
            example_id,
            params=task.get("params"),
            epsilons=tuple(task["epsilons"]),
            seed=task["seed"],
            u_angle=task["u_angle"],
            v_angle=task["v_angle"],
        )
    except NormValidationError as exc:
        if not hasattr(exc, "epsilon_index"):
            raise
        raise SpecError("/task/epsilons/%d" % exc.epsilon_index, str(exc))
    X = construction.space
    report["space"] = _space_summary(X)
    report["config"]["example"] = {
        "id": example_id,
        "params": construction.params,
        "epsilons": task["epsilons"],
        "seed": task["seed"],
    }

    flags_payload = []
    all_pass = True
    for idx, flag in enumerate(construction.flags):
        cert = flag_curvature(X, flag.norm, flag.u, flag.v, tolerances=task.get("tolerances"))
        entry = {
            "epsilon": flag.norm.epsilon,
            "certificate": cert.to_dict(),
            "aux": flag.aux,
            "metric_check": check_norm_properties(flag.norm, X, samples=128, seed=task["seed"]),
        }
        if flag.claims:
            claims = verify_closure_claims(construction, flag_index=idx)
            entry["closure_claims"] = claims
            if not all(c["passes"] for c in claims):
                all_pass = False
        if cert.verdict != "zero_flag":
            all_pass = False
        flags_payload.append(entry)

    report["payload"] = {
        "example_id": example_id,
        "notes": construction.notes,
        "flags": flags_payload,
        "passed": bool(all_pass),
    }
    return (0 if all_pass else 1), report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _make_parser():
    """The argument parser, built once per process: parse_args leaves it
    as it was, so every main call starts from the same defaults."""
    parser = argparse.ArgumentParser(
        prog="flagcurv",
        description="flag-curvature certificates for invariant metrics on homogeneous spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in TASKS:
        p = sub.add_parser(cmd)
        p.add_argument("file", help="JSON space-spec file")
        if cmd == "find-flat":
            p.add_argument("--budget", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
        if cmd == "verify-example":
            p.add_argument("--id", type=int, default=None, dest="example_id")
    return parser


def main(argv=None):
    args = _make_parser().parse_args(argv)
    try:
        spec = parse_space_spec(args.file)
        if spec["task"]["name"] != args.command:
            raise SpecError("/task/name", "file task %r does not match command %r" % (spec["task"]["name"], args.command))
        if args.command == "find-flat":
            if args.budget is not None:
                spec["task"]["budget"] = _check_int(args.budget, "/task/budget", lo=1, hi=100000)
            if args.seed is not None:
                spec["task"]["seed"] = _check_int(args.seed, "/task/seed", lo=0)
        if args.command == "verify-example" and args.example_id is not None:
            if not 1 <= args.example_id <= 5:
                raise SpecError("/task/example_id", "id must be between 1 and 5")
            spec["task"]["example_id"] = args.example_id
        code, report = run(spec)
    except SpecError as exc:
        print("input error at %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(canonical_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
