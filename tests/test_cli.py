import json
import os
import pathlib
import subprocess
import sys

import pytest

import lieforge
from lieforge.cli import RunConfig, main, tolerance_from_env

COMMANDS = ["verify", "transfer", "invariants", "sun", "exercises"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_exit_zero(capsys, command):
    code, out = run_cli(capsys, command, "--trials", "25")
    assert code == 0
    assert "0 failed" in out


def test_all_runs_every_suite(capsys):
    code, out = run_cli(capsys, "all", "--trials", "25")
    assert code == 0
    for header in (
        "fundamental relations",
        "generator transfer",
        "spacetime invariants",
        "group comparison",
        "worked problems",
    ):
        assert header in out


def test_json_output_parses_and_reports_pass(capsys):
    code, out = run_cli(capsys, "verify", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    objs = [json.loads(line) for line in lines]
    assert objs[0]["type"] == "config"
    reports = [o for o in objs if "identity" in o]
    assert len(reports) >= 17
    assert all(o["passed"] for o in reports)


def test_json_output_is_byte_identical(capsys):
    _, first = run_cli(capsys, "invariants", "--format", "json", "--trials", "50", "--seed", "7")
    _, second = run_cli(capsys, "invariants", "--format", "json", "--trials", "50", "--seed", "7")
    assert first == second


def test_json_seed_changes_output(capsys):
    _, first = run_cli(capsys, "invariants", "--format", "json", "--trials", "50", "--seed", "7")
    _, second = run_cli(capsys, "invariants", "--format", "json", "--trials", "50", "--seed", "8")
    assert first != second


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    code, out = run_cli(
        capsys, "sun", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    objs = [json.loads(line) for line in target.read_text().splitlines()]
    kinds = {o.get("type") for o in objs}
    assert "structure-tensors" in kinds
    assert "obstruction" in kinds


def test_alpha_variants_pass(capsys):
    assert run_cli(capsys, "verify", "--alpha", "-1")[0] == 0
    assert run_cli(capsys, "verify", "--alpha", "2")[0] == 0


def test_tol_env_override(monkeypatch, capsys):
    monkeypatch.setenv("LIEFORGE_TOL", "1e-8")
    code, out = run_cli(capsys, "verify")
    assert code == 0
    assert "abs_eps=1e-08" in out
    tol = tolerance_from_env()
    assert tol.abs_eps == 1e-8
    assert tol.exp_eps == 1e-8


def test_perturbation_hook_fails_the_suite(monkeypatch, capsys):
    monkeypatch.setenv("LIEFORGE_PERTURB", "1e-6")
    code, out = run_cli(capsys, "verify", "--format", "json")
    assert code == 1
    reports = [json.loads(line) for line in out.strip().splitlines()][1:]
    failed = [o for o in reports if "identity" in o and not o["passed"]]
    assert failed
    assert all(o["witness"] is not None for o in failed)


def test_transfer_json_includes_tensors(capsys):
    code, out = run_cli(capsys, "transfer", "--format", "json")
    assert code == 0
    objs = [json.loads(line) for line in out.strip().splitlines()]
    tensors = [o for o in objs if o.get("type") == "coeff-tensor"]
    assert len(tensors) == 3
    assert any(o.get("note") for o in tensors)
    matrices = [o for o in objs if o.get("type") == "matrix"]
    assert len(matrices) == 6


def test_single_transform_interface(capsys):
    code, out = run_cli(
        capsys,
        "invariants",
        "--trials",
        "10",
        "--phi",
        "2",
        "0",
        "0",
        "--x",
        "1",
        "0",
        "0",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    objs = [json.loads(line) for line in out.strip().splitlines()]
    transform = [o for o in objs if o.get("type") == "transform"][0]
    assert transform["interval_in"] == pytest.approx(-3.0)
    assert transform["interval_out"] == pytest.approx(-3.0, abs=1e-9)
    # the boost moves the components even though the interval is fixed
    assert abs(transform["x_out"][0] - 1.0) > 1.0
    assert abs(transform["x_out"][3] - 2.0) > 1.0


def test_single_transform_requires_vector(capsys):
    with pytest.raises(ValueError):
        main(["invariants", "--trials", "5", "--phi", "1", "0", "0"])


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="verify", trials=0)
    with pytest.raises(ValueError):
        RunConfig(command="verify", alpha=0.0)


def test_module_entry_point():
    # The child imports the same package as this test, installed or not.
    src = str(pathlib.Path(lieforge.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "lieforge", "verify", "--trials", "5"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "summary" in proc.stdout
