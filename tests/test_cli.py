import json
import subprocess
import sys

import numpy as np
import pytest

from flagcurv.cli import SpecError, canonical_json, main, parse_space_spec, run, validate_spec
from flagcurv.flatfinder import construct_example_flat
from flagcurv.minkowski import check_norm_properties


def _write(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SPEEDS_DOC = {
    "group": {"family": "sp", "n": 3},
    "isotropy": [
        {"type": "sp1_block", "index": 3},
        {"type": "circle", "weights": [1, 3, 0]},
    ],
    "metric": {"kind": "quartic_perturbed", "epsilon": 0.1, "seed": 1},
    "task": {"name": "speeds", "weights": [1, 3, 4]},
}


def test_parse_fills_defaults(tmp_path):
    doc = {
        "group": {"family": "sp", "n": 2},
        "isotropy": [{"type": "circle", "weights": [2, 1]}],
        "task": {"name": "check-space"},
    }
    spec = parse_space_spec(_write(tmp_path, doc))
    assert spec["metric"]["kind"] == "quartic_perturbed"
    assert spec["metric"]["seed"] == 0
    assert spec["task"]["samples"] == 200


def test_unknown_key_pointer():
    with pytest.raises(SpecError) as err:
        validate_spec({"group": {"family": "su", "n": 3}, "task": {"name": "check-space"}, "bogus": 1})
    assert err.value.pointer == "/bogus"


def test_wrong_circle_length_is_schema_error():
    doc = {
        "group": {"family": "su", "n": 4},
        "isotropy": [{"type": "circle", "weights": [1, 1]}],
        "task": {"name": "check-space"},
    }
    with pytest.raises(SpecError) as err:
        validate_spec(doc)
    assert err.value.pointer == "/isotropy/0/weights"


def test_non_list_isotropy_is_rejected_with_a_pointer(tmp_path, capsys):
    doc = {"group": {"family": "su", "n": 3}, "isotropy": 5, "task": {"name": "check-space"}}
    with pytest.raises(SpecError) as err:
        validate_spec(doc)
    assert err.value.pointer == "/isotropy"
    assert main(["check-space", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error at /isotropy:") and "Traceback" not in err


def test_isotropy_that_is_all_of_g_is_rejected_with_a_pointer(tmp_path, capsys):
    doc = {
        "group": {"family": "su", "n": 3},
        "isotropy": [{"type": "block", "indices": [1, 2, 3]}],
        "task": {"name": "check-space"},
    }
    assert main(["check-space", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error at /isotropy: ") and "complement m is empty" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("samples", [0, 7])
@pytest.mark.parametrize(
    "task",
    [
        {"name": "curvature", "u": {"root": [2, 0]}, "v": {"root": [0, 2]}},
        {"name": "find-flat"},
        {"name": "speeds", "weights": [2, 1]},
        {"name": "verify-example"},
    ],
    ids=lambda t: t["name"],
)
def test_samples_outside_check_space_is_rejected_with_a_pointer(tmp_path, capsys, task, samples):
    # only check-space reads /task/samples; elsewhere it would be ignored
    doc = {"group": {"family": "sp", "n": 2}, "isotropy": [{"type": "circle", "weights": [2, 1]}],
           "task": dict(task, samples=samples)}
    with pytest.raises(SpecError) as err:
        validate_spec(doc)
    assert err.value.pointer == "/task/samples"
    assert main([task["name"], _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error at /task/samples:") and "Traceback" not in err


_TASKS_READ = {
    "check-space": {"samples": 7, "involution": {"diag": [-1, 1]}},
    "curvature": {"u": {"root": [2, 0]}, "v": {"root": [0, 2]}, "tolerances": {"zero_curvature": 1.0}},
    "find-flat": {"budget": 3, "seed": 1, "tolerances": {"zero_curvature": 1.0}},
    "verify-example": {"example_id": 3, "params": {"p": 2, "q": 1}, "epsilons": [0.1], "seed": 1,
                       "u_angle": 0.1, "v_angle": 0.2, "tolerances": {"zero_curvature": 1.0}},
    "speeds": {"weights": [2, 1]},
}


def test_task_keys_the_task_does_not_read_are_rejected_with_a_pointer(tmp_path, capsys):
    base = {"group": {"family": "sp", "n": 2}, "isotropy": [{"type": "circle", "weights": [2, 1]}]}
    foreign_values = {k: v for keys in _TASKS_READ.values() for k, v in keys.items()}
    for name, keys in _TASKS_READ.items():
        # verify-example builds its own space, so its spec carries none
        validate_spec(dict({} if name == "verify-example" else base, task=dict(keys, name=name)))
        for key, value in foreign_values.items():
            if key in keys:
                continue
            with pytest.raises(SpecError) as err:
                validate_spec(dict(base, task=dict(keys, name=name, **{key: value})))
            assert err.value.pointer == "/task/" + key, (name, key)
    # keys check-space never reads, each of a wrong type as well
    doc = dict(base, task={"name": "check-space", "budget": 0, "u": 5, "epsilons": "nonsense", "params": 3})
    assert main(["check-space", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error at /task/budget: unknown key")
    assert "Traceback" not in err


_METRICS_READ = {
    "riemannian": {"block_scales": [1.0, 1.0, 1.0, 1.0], "q": [[1.0]]},
    "alpha_beta": {"block_scales": [1.0, 1.0, 1.0, 1.0], "q": [[1.0]], "phi": [1.0, 0.0, 0.3],
                   "v0": [1.0], "v0_scale": 0.5},
    "quartic_perturbed": {"block_scales": [1.0, 1.0, 1.0, 1.0], "q": [[1.0]], "weights": [1.0],
                          "epsilon": 0.2},
}


def test_metric_keys_of_another_kind_are_rejected_with_a_pointer(tmp_path, capsys):
    base = {"group": {"family": "sp", "n": 2}, "isotropy": [{"type": "circle", "weights": [2, 1]}],
            "task": {"name": "check-space"}}
    foreign_values = {k: v for keys in _METRICS_READ.values() for k, v in keys.items()}
    for kind, keys in _METRICS_READ.items():
        # one at a time: q shadows block_scales, and v0 shadows v0_scale
        for key, value in keys.items():
            validate_spec(dict(base, metric={"kind": kind, "seed": 1, key: value}))
        for key, value in foreign_values.items():
            if key in keys:
                continue
            with pytest.raises(SpecError) as err:
                validate_spec(dict(base, metric=dict(kind=kind, **{key: value})))
            assert err.value.pointer == "/metric/" + key, (kind, key)
    # the report would echo an epsilon that the riemannian norm never read
    doc = dict(base, metric={"kind": "riemannian", "epsilon": 0.3, "phi": [1, 0, 5], "weights": [1]})
    assert main(["check-space", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error at /metric/epsilon: unknown key")
    assert "Traceback" not in err


def test_metric_keys_shadowed_by_another_key_are_rejected_with_a_pointer(tmp_path, capsys):
    # sp(2)/S1(2,1) has dim m 9 and five invariant blocks
    base = {"group": {"family": "sp", "n": 2}, "isotropy": [{"type": "circle", "weights": [2, 1]}],
            "task": {"name": "check-space"}}
    cases = (
        ({"kind": "riemannian", "q": np.eye(9).tolist(), "block_scales": [1.0] * 6}, "/metric/block_scales"),
        ({"kind": "alpha_beta", "v0": [0.5] + [0.0] * 8, "v0_scale": 0.3}, "/metric/v0_scale"),
    )
    for metric, pointer in cases:
        doc = dict(base, metric=metric)
        with pytest.raises(SpecError) as err:
            validate_spec(doc)
        assert err.value.pointer == pointer
        assert main(["check-space", _write(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error at %s: not read when" % pointer) and "Traceback" not in err


def test_verify_example_rejects_group_isotropy_and_metric_with_a_pointer(tmp_path, capsys):
    # the construction brings its own space and norms, so these keys would be ignored and echoed
    extra = {
        "group": {"family": "so", "n": 6},
        "isotropy": [{"type": "circle", "weights": [1, 2, 0]}],
        "metric": {"kind": "riemannian", "seed": 4},
    }
    for key, value in extra.items():
        doc = {key: value, "task": {"name": "verify-example"}}
        assert main(["verify-example", _write(tmp_path, doc), "--id", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error at /%s: verify-example builds its own" % key)
        assert "Traceback" not in err
    doc = {"group": extra["group"], "metric": extra["metric"], "task": {"name": "verify-example"}}
    assert main(["verify-example", _write(tmp_path, doc), "--id", "3"]) == 2
    assert capsys.readouterr().err.startswith("input error at /group:")


def test_consecutive_main_calls_share_one_parser_but_no_options(tmp_path, capsys):
    from flagcurv.cli import _make_parser

    assert _make_parser() is _make_parser()
    doc = {
        "group": {"family": "su", "n": 2},
        "isotropy": [],
        "metric": {"kind": "riemannian", "seed": 0},
        "task": {"name": "find-flat", "budget": 2, "seed": 1},
    }
    path = _write(tmp_path, doc)
    assert main(["find-flat", path, "--budget", "3", "--seed", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert (payload["budget"], payload["seed"]) == (3, 4)
    assert main(["find-flat", path]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert (payload["budget"], payload["seed"]) == (2, 1)


def test_verify_example_reports_do_not_depend_on_the_process_caches(tmp_path, capsys):
    from flagcurv import flatfinder

    def report(example_id, seed, params):
        path = _write(tmp_path, {"task": {"name": "verify-example", "seed": seed, "params": params}})
        code = main(["verify-example", path, "--id", str(example_id)])
        return code, capsys.readouterr().out

    # ids 1 and 3 also at a second (p, q), which names another space
    runs = [(k, seed, {}) for seed in range(4) for k in range(1, 6)]
    runs += [(1, 0, {"p": 3, "q": 2}), (3, 0, {"p": 4, "q": 1})]
    fresh = []
    for run in runs:
        flatfinder._catalog_space.cache_clear()
        fresh.append(report(*run))
    assert all(code == 0 for code, _ in fresh)
    names = [json.loads(out)["space"]["notes"]["name"] for _, out in fresh[-2:]]
    assert names == ["su(4)/su(2)xS1(5,5,-6,-4)", "sp(2)/S1(4,1)"]
    for _ in range(2):
        assert [report(*run) for run in runs] == fresh


def test_empty_isotropy_parses():
    doc = {"group": {"family": "su", "n": 2}, "isotropy": [], "task": {"name": "check-space"}}
    spec = validate_spec(doc)
    code, report = run(spec)
    assert code == 0
    assert report["space"]["dim_m"] == report["space"]["dim_g"]


def test_missing_file_exit_code(capsys):
    assert main(["check-space", "/nonexistent/path.json"]) == 2
    assert "input error" in capsys.readouterr().err


def test_invalid_json_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check-space", str(path)]) == 2


def test_task_command_mismatch(tmp_path, capsys):
    path = _write(tmp_path, SPEEDS_DOC)
    assert main(["check-space", path]) == 2
    assert "does not match" in capsys.readouterr().err


def test_speeds_payload(tmp_path, capsys):
    path = _write(tmp_path, SPEEDS_DOC)
    assert main(["speeds", path]) == 0
    report = json.loads(capsys.readouterr().out)
    speeds = {tuple(e["root"]): e["speed"] for e in report["payload"]["speeds"]}
    order = [(2, 0, 0), (0, 2, 0), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)]
    assert [speeds[o] for o in order] == [2, 6, 4, 2, 5, 3, 7, 1]
    assert report["space"]["regular"] is True


def test_curvature_task_with_root_plane_vectors(tmp_path, capsys):
    doc = {
        "group": {"family": "sp", "n": 2},
        "isotropy": [{"type": "circle", "weights": [2, 1]}],
        "metric": {"kind": "quartic_perturbed", "epsilon": 0.1, "seed": 3},
        "task": {
            "name": "curvature",
            "u": {"root": [2, 0], "xy": [1.0, 0.25]},
            "v": {"root": [0, 2], "xy": [0.5, -1.0]},
        },
    }
    assert main(["curvature", _write(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    cert = report["payload"]["certificate"]
    assert cert["verdict"] == "zero_flag"
    assert abs(cert["curvature"]) < 1e-7


def test_verify_example_3(tmp_path, capsys):
    doc = {"task": {"name": "verify-example", "example_id": 3, "params": {"p": 2, "q": 1}}}
    assert main(["verify-example", _write(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["passed"] is True
    assert all(f["certificate"]["verdict"] == "zero_flag" for f in report["payload"]["flags"])


def test_verify_example_checks_the_norm_of_every_flag(tmp_path, capsys):
    # construction 2 certifies each flag on its own pulled-back norm; each
    # flags[k] entry carries that norm's metric_check, and the report no
    # longer carries one for flags[0] alone at the top
    doc = {"task": {"name": "verify-example", "example_id": 2, "seed": 1}}
    assert main(["verify-example", _write(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "metric_check" not in report
    construction = construct_example_flat(2, seed=1)
    entries = report["payload"]["flags"]
    assert len(entries) == len(construction.flags) == 3
    for entry, flag in zip(entries, construction.flags):
        expected = check_norm_properties(flag.norm, construction.space, samples=128, seed=1)
        assert entry["metric_check"].keys() == expected.keys()
        for key, value in expected.items():
            assert entry["metric_check"][key] == pytest.approx(value, rel=1e-12, abs=1e-15)
        assert entry["metric_check"]["convexity_lower_bound"] > 0
        assert entry["metric_check"]["invariance_residual"] < 1e-10
    assert len({e["metric_check"]["convexity_lower_bound"] for e in entries}) == 3


def test_verify_example_id_flag_overrides(tmp_path, capsys):
    doc = {"task": {"name": "verify-example", "params": {"p": 2, "q": 1}}}
    assert main(["verify-example", _write(tmp_path, doc), "--id", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["example_id"] == 3


def test_verify_example_5_block_report(tmp_path, capsys):
    doc = {"task": {"name": "verify-example", "example_id": 5, "epsilons": [0.1]}}
    assert main(["verify-example", _write(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    flag = report["payload"]["flags"][0]
    eigs = flag["aux"]["block_rotation_eigenvalues"]
    assert all(z.keys() == {"re", "im"} for block in eigs.values() for z in block)
    m1 = [complex(z["re"], z["im"]) for z in eigs["m1"]]
    assert all(abs(z + 1.0) < 1e-9 for z in m1)
    assert report["payload"]["notes"]["decomposition_dims"] == [3, 4, 4]


def test_verify_example_failure_exit_code(tmp_path, capsys):
    # unreachable tolerances force the assertion to fail honestly
    doc = {
        "task": {
            "name": "verify-example",
            "example_id": 3,
            "params": {"p": 2, "q": 1},
            "epsilons": [0.1],
            "tolerances": {"zero_residual": 1e-30, "zero_curvature": 1e-30},
        }
    }
    assert main(["verify-example", _write(tmp_path, doc)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["passed"] is False


def test_find_flat_empty_on_su2(tmp_path, capsys):
    doc = {
        "group": {"family": "su", "n": 2},
        "isotropy": [],
        "metric": {"kind": "riemannian", "seed": 0},
        "task": {"name": "find-flat", "budget": 10, "seed": 1},
    }
    assert main(["find-flat", _write(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["certified_count"] == 0


def test_find_flat_cli_overrides(tmp_path, capsys):
    doc = {
        "group": {"family": "sp", "n": 2},
        "isotropy": [{"type": "circle", "weights": [2, 1]}],
        "metric": {"kind": "quartic_perturbed", "epsilon": 0.1, "seed": 3},
        "task": {"name": "find-flat", "budget": 5, "seed": 0},
    }
    assert main(["find-flat", _write(tmp_path, doc), "--budget", "12", "--seed", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["budget"] == 12
    assert report["payload"]["seed"] == 4
    assert report["payload"]["certified_count"] >= 1
    # the override is held to the same bounds as the spec's budget
    for budget in ("0", "100001"):
        assert main(["find-flat", _write(tmp_path, doc), "--budget", budget]) == 2


def test_negative_seeds_are_rejected_with_a_pointer(tmp_path, capsys):
    doc = {
        "group": {"family": "sp", "n": 2},
        "isotropy": [{"type": "circle", "weights": [2, 1]}],
        "metric": {"kind": "quartic_perturbed", "epsilon": 0.1, "seed": -1},
        "task": {"name": "find-flat", "budget": 5, "seed": 0},
    }
    assert main(["find-flat", _write(tmp_path, doc)]) == 2
    assert "input error at /metric/seed" in capsys.readouterr().err
    doc["metric"]["seed"] = 0
    doc["task"]["seed"] = -1
    assert main(["find-flat", _write(tmp_path, doc)]) == 2
    assert "input error at /task/seed" in capsys.readouterr().err
    doc["task"]["seed"] = 0
    assert main(["find-flat", _write(tmp_path, doc), "--seed", "-1"]) == 2
    assert "input error at /task/seed" in capsys.readouterr().err
    speeds = json.loads(json.dumps(SPEEDS_DOC))
    speeds["task"] = {"name": "verify-example", "example_id": 3, "seed": -2}
    assert main(["verify-example", _write(tmp_path, speeds)]) == 2
    assert "input error at /task/seed" in capsys.readouterr().err


def test_verify_example_epsilons_are_checked_with_a_pointer(tmp_path, capsys):
    cases = (
        ([], "/task/epsilons:"),
        (0.1, "/task/epsilons:"),
        ([0.1, float("nan")], "/task/epsilons/1:"),
        ([float("inf")], "/task/epsilons/0:"),
        ([0.1, "a"], "/task/epsilons/1:"),
        ([0.05, -3.0], "/task/epsilons/1: quartic form not positive"),
    )
    for epsilons, message in cases:
        doc = {"task": {"name": "verify-example", "example_id": 3, "epsilons": epsilons}}
        assert main(["verify-example", _write(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error at " + message), err
        assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("example_id", [1, 2, 3, 4, 5])
def test_verify_example_passes_at_a_small_negative_epsilon(tmp_path, capsys, example_id):
    doc = {"task": {"name": "verify-example", "example_id": example_id, "epsilons": [-0.01]}}
    assert main(["verify-example", _write(tmp_path, doc)]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["passed"] is True


def test_reports_are_byte_stable(tmp_path):
    path = _write(tmp_path, SPEEDS_DOC)
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "flagcurv.cli", "speeds", path],
            capture_output=True,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["config"]["metric_effective"]["seed"] == 1


def test_canonical_json_float_format():
    text = canonical_json({"b": 0.1, "a": 2, "c": [1.5, float("nan")]})
    assert text == '{"a":2,"b":0.10000000000000001,"c":[1.5,null]}\n'


def test_curvature_task_with_raw_vectors(tmp_path, capsys):
    u = [0.0] * 9
    v = [0.0] * 9
    u[7] = 1.0  # the 2e1 plane occupies the last adapted slots
    v[1] = 1.0
    doc = {
        "group": {"family": "sp", "n": 2},
        "isotropy": [{"type": "circle", "weights": [2, 1]}],
        "metric": {"kind": "quartic_perturbed", "epsilon": 0.1, "seed": 3},
        "task": {"name": "curvature", "u": {"vector": u}, "v": {"vector": v}},
    }
    assert main(["curvature", _write(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["certificate"]["verdict"] == "zero_flag"


def test_vector_spec_rejects_mixed_forms():
    with pytest.raises(SpecError, match="not both"):
        validate_spec(
            {
                "group": {"family": "sp", "n": 2},
                "isotropy": [{"type": "circle", "weights": [2, 1]}],
                "task": {
                    "name": "curvature",
                    "u": {"vector": [1.0], "root": [2, 0]},
                    "v": {"root": [0, 2]},
                },
            }
        )


def test_check_space_with_involution(tmp_path, capsys):
    doc = {
        "group": {"family": "su", "n": 3},
        "isotropy": [{"type": "circle", "weights": [1, 0, -1]}],
        "metric": {"kind": "riemannian", "seed": 0},
        "task": {"name": "check-space", "involution": {"diag": [-1, 1, -1]}},
    }
    assert main(["check-space", _write(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    fps = report["payload"]["fixed_point_space"]
    assert fps["total_dim"] == 4
    assert fps["quotient_dim"] == 3
    assert fps["notes"]["codimension_even"] is True


E12_SU3 = np.zeros((6, 6))  # e_12 - e_21 of su(3) in its real picture
E12_SU3[0, 1] = E12_SU3[3, 4] = 1.0
E12_SU3[1, 0] = E12_SU3[4, 3] = -1.0


@pytest.mark.parametrize(
    "isotropy,diag,message",
    [
        # the centralizer of a generic torus element is the torus, all of h
        ([{"type": "circle", "weights": [1, -1, 0]}, {"type": "circle", "weights": [0, 1, -1]}],
         [[0.6, 0.8], [0, 1], 1], "the fixed algebra c(iota) (dimension 2) lies in the isotropy"),
        # Ad(diag(1, i, 1)) turns e_12 - e_21 into i(e_12 + e_21), outside h
        ([{"type": "explicit", "matrices": [E12_SU3.tolist()]}], [1, [0, 1], 1],
         "element does not normalize the isotropy, so its fixed algebra c(iota)"),
    ],
    ids=["fixed-algebra-in-h", "not-normalizing"],
)
def test_fixed_point_failures_are_rejected_at_the_involution(tmp_path, capsys, isotropy, diag, message):
    doc = {
        "group": {"family": "su", "n": 3},
        "isotropy": isotropy,
        "metric": {"kind": "riemannian"},
        "task": {"name": "check-space", "involution": {"diag": diag}},
    }
    assert main(["check-space", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error at /task/involution: " + message), captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_out_of_memory_exits_2_without_a_traceback(tmp_path, capsys, monkeypatch):
    from flagcurv import minkowski

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 22.1 GiB for an array with shape (33124, 299, 299)")

    monkeypatch.setattr(minkowski, "invariant_blocks", exhausted)
    doc = {"group": {"family": "su", "n": 3}, "isotropy": SU3_CIRCLE, "task": {"name": "check-space"}}
    assert main(["check-space", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory: Unable to allocate 22.1 GiB for an array with shape (33124, 299, 299)\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "group,isotropy,u,v,message",
    [
        # the (1,-1,0,0) plane lies in the su(2) of h
        (
            {"family": "su", "n": 4},
            [{"type": "block", "indices": [1, 2]}, {"type": "circle", "weights": [1, 1, -1, -1]}],
            {"root": [1, -1, 0, 0]},
            {"root": [0, 1, 0, -1]},
            "/task/u/root: root plane (1, -1, 0, 0) is not contained in m",
        ),
        # (1,1,1) is not a root of su(3)
        ({"family": "su", "n": 3}, [], {"root": [1, -1, 0]}, {"root": [1, 1, 1]},
         "/task/v/root: root plane (1, 1, 1) is not contained in m"),
        ({"family": "su", "n": 3}, [], {"vector": [1.0, 0.0]}, {"root": [1, 0, -1]},
         "/task/u/vector: raw vector must have length 8"),
    ],
    ids=["plane-in-h", "not-a-root", "raw-vector-length"],
)
def test_curvature_vectors_outside_m_are_rejected_with_a_pointer(tmp_path, capsys, group, isotropy, u, v, message):
    doc = {
        "group": group,
        "isotropy": isotropy,
        "metric": {"kind": "riemannian", "seed": 0},
        "task": {"name": "curvature", "u": u, "v": v},
    }
    assert main(["curvature", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error at " + message), captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# su(3)/S1(1,0,-1): dim m 7 in 4 invariant blocks
SU3_CIRCLE = [{"type": "circle", "weights": [1, 0, -1]}]


@pytest.mark.parametrize(
    "command,group,isotropy,metric,task,message",
    [
        ("speeds", {"family": "sp", "n": 3}, [{"type": "circle", "weights": [1, 3, 0]}], {},
         {"name": "speeds", "weights": [1, 3]}, "/task/weights: expected 3 weights"),
        ("check-space", {"family": "su", "n": 3}, [{"type": "block", "indices": [1, 4]}], {},
         {"name": "check-space"}, "/isotropy/0/indices: block indices out of range"),
        ("check-space", {"family": "sp", "n": 2}, [{"type": "sp1_block", "index": 3}], {},
         {"name": "check-space"}, "/isotropy/0/index: sp1_block index out of range"),
        ("check-space", {"family": "su", "n": 3}, [{"type": "circle", "weights": [1, 0, -1]}],
         {"kind": "riemannian"}, {"name": "check-space", "involution": {"diag": [-1, 1]}},
         "/task/involution/diag: expected 3 diagonal entries"),
        ("check-space", {"family": "su", "n": 3}, [], {"kind": "riemannian", "q": [[1, 0], [0, 1]]},
         {"name": "check-space"}, "/metric/q: expected a 8 x 8 matrix"),
        ("check-space", {"family": "su", "n": 3}, [{"type": "explicit", "matrices": [[1]]}], {},
         {"name": "check-space"}, "/isotropy/0/matrices: explicit matrices must be 6 x 6"),
        ("check-space", {"family": "su", "n": 3}, [{"type": "explicit", "matrices": [[[0, 1], [-1, 0]]]}], {},
         {"name": "check-space"}, "/isotropy/0/matrices: explicit matrices must be 6 x 6"),
        ("check-space", {"family": "su", "n": 3}, SU3_CIRCLE, {"block_scales": [1.0]},
         {"name": "check-space"}, "/metric/block_scales: expected 4 block scales, got 1"),
        ("check-space", {"family": "su", "n": 3}, SU3_CIRCLE, {"block_scales": [1.0, -1.0, 1.0, 1.0]},
         {"name": "check-space"}, "/metric/block_scales: block scales must be positive"),
        ("check-space", {"family": "su", "n": 3}, SU3_CIRCLE, {"weights": [1.0, 2.0]},
         {"name": "check-space"}, "/metric/weights: expected 4 quartic weights, got 2"),
        ("check-space", {"family": "su", "n": 3}, SU3_CIRCLE, {"kind": "alpha_beta", "v0": [1.0, 0.0]},
         {"name": "check-space"}, "/metric/v0: v0 must be an m-coordinate vector of length 7"),
        ("check-space", {"family": "su", "n": 3}, SU3_CIRCLE,
         {"kind": "riemannian", "q": np.diag([-1.0, 1, 1, 1, 1, 1, 1]).tolist()},
         {"name": "check-space"}, "/metric/q: quadratic part is not positive definite"),
    ],
    ids=["speeds-weights", "block-indices", "sp1-index", "involution-length", "q-size", "explicit-1x1",
         "explicit-2x2", "block-scales-length", "block-scales-sign", "weights-length", "v0-length",
         "q-not-positive-definite"],
)
def test_specs_that_fail_after_validation_are_reported_with_a_pointer(
        tmp_path, capsys, command, group, isotropy, metric, task, message):
    doc = {"group": group, "isotropy": isotropy, "metric": metric, "task": task}
    validate_spec(doc)  # the schema accepts the spec; building from it fails
    assert main([command, _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error at " + message), captured.err
    assert "Traceback" not in captured.err and captured.out == ""
