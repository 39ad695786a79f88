import json
import subprocess
import sys

import pytest

from flagcurv.cli import SpecError, canonical_json, main, parse_space_spec, run, validate_spec


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
    doc = {
        "metric": {"kind": "quartic_perturbed", "seed": 0},
        "task": {"name": "verify-example", "example_id": 3, "params": {"p": 2, "q": 1}},
    }
    assert main(["verify-example", _write(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["passed"] is True
    assert all(f["certificate"]["verdict"] == "zero_flag" for f in report["payload"]["flags"])


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
