import collections
import json
import os
import pathlib
import subprocess
import sys

import pytest

import lieforge
import lieforge.cli as cli
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


def test_single_transform_requires_vector():
    with pytest.raises(ValueError):
        RunConfig(command="invariants", phi=(1, 0, 0))
    with pytest.raises(ValueError):
        RunConfig(command="invariants", theta=(1, 0, 0))


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="verify", trials=0)
    with pytest.raises(ValueError):
        RunConfig(command="verify", alpha=0.0)


@pytest.mark.parametrize(
    "env, argv",
    [
        ({}, ["invariants", "--trials", "0"]),
        ({}, ["invariants", "--alpha", "0"]),
        ({"LIEFORGE_TOL": "abc"}, ["verify"]),
        ({"LIEFORGE_TOL": "2"}, ["verify"]),
        ({"LIEFORGE_PERTURB": "abc"}, ["verify"]),
        ({}, ["verify", "--out", "{missing}/x"]),
        ({}, ["invariants", "--x", "nan", "0", "0", "1"]),
        ({}, ["invariants", "--phi", "1000", "0", "0", "--x", "1", "0", "0", "2"]),
        ({}, ["invariants", "--trials", "5", "--seed", "-1"]),
        ({}, ["invariants", "--trials", "5", "--phi", "1", "0", "0"]),
    ],
    ids=[
        "trials-0", "alpha-0", "tol-abc", "tol-2",
        "perturb-abc", "out-missing-dir", "x-nan", "phi-1000",
        "seed-negative", "phi-without-x",
    ],
)
def test_bad_input_exits_2_with_one_line(monkeypatch, capsys, tmp_path, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lieforge: error: ")


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


def _reports_and_extras(capsys, argv):
    """The bare report objects and the ``type``-tagged extras (config aside)
    of one JSON-mode run."""
    assert main(argv) in (0, 1)
    objs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    reports = [o for o in objs if "type" not in o]
    extras = [o for o in objs if o.get("type") not in (None, "config")]
    return reports, extras


@pytest.mark.parametrize(
    "env, args, transform",
    [
        ({}, [], []),
        ({"LIEFORGE_PERTURB": "1e-6"}, [], []),
        ({}, ["--alpha", "2"], []),
        ({}, ["--alpha", "-1"], []),
        ({}, [], ["--phi", "2", "0", "0", "--x", "1", "0", "0", "2"]),
    ],
    ids=["default", "perturb", "alpha-2", "alpha-minus-1", "transform"],
)
def test_all_equals_its_parts(monkeypatch, capsys, env, args, transform):
    # The sections of ``all`` share one computation per check, so a check
    # keyed on too few of its inputs would print another section's result.
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    common = ["--format", "json", *args]
    whole = _reports_and_extras(capsys, ["all", *common, *transform])
    parts = [
        _reports_and_extras(
            capsys, [command, *common, *(transform if command == "invariants" else [])]
        )
        for command in COMMANDS
    ]
    assert whole[0] == [r for reports, _ in parts for r in reports]
    assert whole[1] == [x for _, extras in parts for x in extras]
    if env:
        # verify checks the perturbed su(2) trio, the worked problems the plain one.
        jj = [r for r in whole[0] if (r["identity"], r["subject"]) == ("jj-commutation", "2-rep")]
        assert [r["passed"] for r in jj] == [False, True]


def test_each_check_is_computed_once_per_run(monkeypatch, capsys):
    calls = collections.Counter()

    def count(name, key):
        fn = getattr(cli, name)

        def counted(*args):
            calls[(name, key(*args))] += 1
            return fn(*args)

        monkeypatch.setattr(cli, name, counted)

    count("check_lorentz", lambda J, K, *rest: J.rep.tag)
    for name in (
        "rotation_invariance_check",
        "boost_invariance_check",
        "det_interval_check",
        "affine_composition_check",
        "translation_check",
    ):
        count(name, lambda trials, tol, seed: trials)
    count("intertwine_sweep", lambda J, K, V, *rest: V.rep.tag)
    count("extract_structure", lambda generators, tol: len(generators[0]))
    count("extract_coeffs", lambda V, A, tol: (V.kind.value, A.kind.value))
    once = {
        ("check_lorentz", "2"): 1,
        ("check_lorentz", "2+2"): 1,
        ("check_lorentz", "5-affine"): 1,
        ("rotation_invariance_check", 10): 1,
        ("boost_invariance_check", 10): 1,
        ("det_interval_check", 10): 1,
        ("affine_composition_check", 1): 1,
        ("translation_check", 1): 1,
        ("intertwine_sweep", "2+2"): 1,
        ("intertwine_sweep", "5-affine"): 1,
        ("extract_structure", 2): 1,
        ("extract_structure", 3): 1,
        ("extract_coeffs", ("vector", "angular-momentum")): 1,
        ("extract_coeffs", ("vector", "boost")): 1,
        ("extract_coeffs", ("momentum", "angular-momentum")): 1,
    }
    assert main(["all", "--trials", "10"]) == 0
    assert calls == once
    # Nothing is kept between runs: a second run computes everything again.
    assert main(["all", "--trials", "10"]) == 0
    assert calls == {key: 2 * n for key, n in once.items()}
    capsys.readouterr()
