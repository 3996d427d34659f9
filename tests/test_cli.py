import collections
import gc
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import lieforge
import lieforge.cli as cli
from lieforge.cli import RunConfig, main, tolerance_from_env
from lieforge.generators import j2
from lieforge.su_n import extract_structure
from lieforge.transfer import CoeffTensor, SourceKind

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


@pytest.mark.parametrize("alpha", ["1e300", "-1e300", "1e-300", "-1e-300"])
def test_alpha_range_ends_pass(alpha):
    # argparse reads "-1e-300" as a flag, so the value is attached with "=".
    assert main(["all", "--trials", "10", f"--alpha={alpha}"]) == 0


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


@pytest.mark.parametrize("value", ["1", "-1"])
def test_perturbation_at_the_edge_of_its_range_fails_without_warnings(monkeypatch, capsys, value):
    monkeypatch.setenv("LIEFORGE_PERTURB", value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify"]) == 1
    assert capsys.readouterr().err == ""


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
        ({}, ["verify", "--alpha", "1e-310"]),
        ({}, ["all", "--trials", "10", "--alpha", "1e308"]),
        ({"LIEFORGE_TOL": "abc"}, ["verify"]),
        ({"LIEFORGE_TOL": "2"}, ["verify"]),
        ({"LIEFORGE_TOL": "3e-16"}, ["transfer"]),
        ({"LIEFORGE_PERTURB": "abc"}, ["verify"]),
        ({"LIEFORGE_PERTURB": "nan"}, ["verify"]),
        ({"LIEFORGE_PERTURB": "inf"}, ["verify"]),
        ({"LIEFORGE_PERTURB": "1e160"}, ["verify"]),
        ({"LIEFORGE_PERTURB": "-1.5"}, ["verify"]),
        ({}, ["verify", "--out", "{missing}/x"]),
        ({}, ["invariants", "--x", "nan", "0", "0", "1"]),
        ({}, ["invariants", "--phi", "1000", "0", "0", "--x", "1", "0", "0", "2"]),
        ({}, ["invariants", "--phi", "400", "0", "0", "--x", "1", "0", "0", "2"]),
        ({}, ["invariants", "--x", "1e200", "0", "0", "2"]),
        ({}, ["invariants", "--trials", "5", "--seed", "-1"]),
        ({}, ["invariants", "--trials", "5", "--phi", "1", "0", "0"]),
    ],
    ids=[
        "trials-0", "alpha-0", "alpha-1e-310", "alpha-1e308", "tol-abc", "tol-2", "tol-3e-16",
        "perturb-abc", "perturb-nan", "perturb-inf", "perturb-1e160", "perturb-minus-1.5",
        "out-missing-dir", "x-nan", "phi-1000",
        "phi-400", "x-1e200",
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


@pytest.mark.parametrize(
    "args, norms",
    [
        (["--phi", "1000", "0", "0", "--x", "0", "1", "0", "2"], "|theta| = 0, |phi| = 1000"),
        (["--x", "1e200", "0", "0", "2"], "|theta| = 0, |phi| = 0, |x| = 1e+200"),
    ],
    ids=["phi-1000", "x-1e200"],
)
def test_overflow_error_names_both_norms(capsys, args, norms):
    # |x| is named only when its own square overflows: for the identity
    # transform of a huge x, neither angle is the cause.
    assert main(["invariants", "--trials", "10", *args]) == 2
    assert capsys.readouterr().err == (
        f"lieforge: error: the requested transform of x overflows ({norms})\n"
    )


@pytest.mark.parametrize("flag", ["--theta", "--phi", "--x", "--alpha"])
def test_a_negative_value_may_carry_an_exponent(capsys, flag):
    # argparse took -1e-3 for an option, so "--theta -1e-3 0 0" was refused
    # (exit 2, "expected 3 arguments") while "--theta -0.001 0 0" ran.
    def run(value):
        values = {"--theta": ["0", "0", "0"], "--phi": ["0", "0", "0"],
                  "--x": ["1", "0", "0", "2"], "--alpha": ["1"]}
        values[flag][0] = value
        options = [word for option, v in values.items() for word in (option, *v)]
        return run_cli(capsys, "invariants", "--trials", "10", "--format", "json", *options)

    assert run("-1e-3") == run("-0.001")
    assert run("-1e-3")[0] == 0


@pytest.mark.parametrize("theta", ["1e8", "1e20", "1e300"])
def test_a_large_angle_is_a_rotation(capsys, theta):
    # sin reduces any finite angle exactly, and the angle's norm is taken
    # without squaring it: the transform is a rotation, the check passes.
    argv = ["invariants", "--trials", "10", "--theta", theta, "0", "0", "--x", "0", "1", "0", "2"]
    assert main([*argv, "--format", "json"]) == 0
    records = map(json.loads, capsys.readouterr().out.splitlines())
    (transform,) = [r for r in records if r.get("type") == "transform"]
    assert transform["x_out"][0] == 0.0 and transform["x_out"][3] == 2.0
    assert math.hypot(*transform["x_out"][:3]) == pytest.approx(1.0, rel=1e-15, abs=0)


def test_the_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    runs = [["verify", "--trials", "5"], ["invariants", "--trials", "5", "--seed", "3"]]
    reused = [(main(argv), capsys.readouterr().out) for argv in runs + runs]
    cli.build_parser.cache_clear()
    fresh = []
    for argv in runs:
        fresh.append((main(argv), capsys.readouterr().out))
        cli.build_parser.cache_clear()
    assert reused == fresh + fresh


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

    def count(name, key, module=cli):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[(name, key(*args, **kwargs))] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count("check_lorentz", lambda J, K, *rest: J.rep.tag)
    for name in (
        "rotation_invariance_check",
        "boost_invariance_check",
        "det_interval_check",
        "affine_composition_check",
    ):
        count(name, lambda trials, tol, seed: trials)
    count("translation_check", lambda p5, trials, tol, seed: trials)
    count(
        "intertwine_sweep", lambda families, *rest: tuple(V.rep.tag for _, _, V in families)
    )
    count("extract_structure", lambda generators: len(generators[0]))
    count("extract_coeffs", lambda V, A, tol: (V.kind.value, A.kind.value))
    # Every binding of the bracket-table kernel, the closure precheck of the
    # intertwining sweep included.
    for module in (lieforge.checks, lieforge.transfer):
        count("bracket_table", lambda *args, **kwargs: "any", module)
    once = {
        ("check_lorentz", "2"): 1,
        ("check_lorentz", "2+2"): 1,
        ("check_lorentz", "5-affine"): 1,
        ("rotation_invariance_check", 10): 1,
        ("boost_invariance_check", 10): 1,
        ("det_interval_check", 10): 1,
        ("affine_composition_check", 1): 1,
        ("translation_check", 1): 1,
        # Both invariants and exercises print it; one draw serves both reps.
        ("intertwine_sweep", ("2+2", "5-affine")): 1,
        ("extract_structure", 2): 1,
        ("extract_structure", 3): 1,
        ("extract_coeffs", ("vector", "angular-momentum")): 1,
        ("extract_coeffs", ("vector", "boost")): 1,
        ("extract_coeffs", ("momentum", "angular-momentum")): 1,
        ("bracket_table", "any"): 15,
    }
    assert main(["all", "--trials", "10"]) == 0
    assert calls == once
    # Nothing is kept between runs: a second run computes everything again.
    assert main(["all", "--trials", "10"]) == 0
    assert calls == {key: 2 * n for key, n in once.items()}
    capsys.readouterr()


# Every factory of a generator set, and the check that still builds its own
# sets by name: transfer_reports its closed forms.
FACTORIES = ("j2", "k2", "v2", "rep22_jk", "rep22_v", "momentum", "gamma",
             "affine_generators", "build_j4", "build_k4")
OWN_SETS = {"transfer_reports": {"build_j4", "build_k4"}}


@pytest.mark.parametrize(
    "env, args",
    [({}, []), ({"LIEFORGE_PERTURB": "1e-6"}, []), ({}, ["--alpha", "2"])],
    ids=["default", "perturb", "alpha-2"],
)
@pytest.mark.parametrize("command", [*COMMANDS, "all"])
def test_each_generator_set_is_built_once_per_run(monkeypatch, capsys, env, args, command):
    # A check reads the sets it is passed, so the run table is the only place
    # that builds them: each factory runs at most once per distinct arguments,
    # whichever module calls it, apart from the sets OWN_SETS names.
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    calls = collections.Counter()
    inside = []

    def wrap(module, name):
        fn = getattr(module, name)

        def counted(*args):
            if not any(name in OWN_SETS[owner] for owner in inside):
                calls[(name, args)] += 1
            return fn(*args)

        def owner(*args):
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(module, name, owner if name in OWN_SETS else counted)

    modules = (lieforge.checks, lieforge.cli, lieforge.generators, lieforge.spacetime,
               lieforge.su_n, lieforge.transfer)
    for module in modules:
        for name in (*FACTORIES, *OWN_SETS):
            if hasattr(module, name):
                wrap(module, name)
    code, _ = run_cli(capsys, command, "--trials", "10", *args)
    assert code == (1 if env and command in ("verify", "all") else 0)
    assert calls
    assert {key: n for key, n in calls.items() if n > 1} == {}
    if command == "all":
        assert {name for name, _ in calls} == set(FACTORIES)


@pytest.mark.parametrize(
    "make",
    [
        j2,
        lambda: extract_structure(j2().members),
        lambda: CoeffTensor(np.zeros((4, 3, 4)), SourceKind.FROM_J),
    ],
    ids=["GeneratorSet", "StructureTensors", "CoeffTensor"],
)
def test_array_records_compare_and_hash_by_identity(make):
    # The run table keys on its arguments as they are, so a record holding
    # arrays must compare and hash without touching them: by value, == on
    # the arrays raised and hash failed.
    a, b = make(), make()
    assert (a == b) is False and a != b and a == a
    assert hash(a) == hash(a)
    table = {a: 1, b: 2}
    assert (table[a], table[b]) == (1, 2)


_REPORT_LINE = re.compile(r"^  (\S+) +(\S*) +residual ")


@pytest.mark.parametrize(
    "env, args",
    [({}, []), ({"LIEFORGE_PERTURB": "1e-6"}, []), ({}, ["--alpha", "2"])],
    ids=["default", "perturb", "alpha-2"],
)
@pytest.mark.parametrize("command", [*COMMANDS, "all"])
def test_no_section_lists_a_check_twice(monkeypatch, capsys, env, args, command):
    # A section prints each (identity, subject) pair once: the Lorentz table
    # that several vector families share is listed before all of them.
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out = run_cli(capsys, command, "--trials", "10", *args)
    assert code in (0, 1)
    sections = []
    for line in out.splitlines():
        if line.startswith("== "):
            sections.append([])
        elif match := _REPORT_LINE.match(line):
            sections[-1].append(match.groups())
    assert sum(map(len, sections)) > 0
    repeats = [pair for pairs in sections for pair in pairs if pairs.count(pair) > 1]
    assert repeats == []


def test_a_run_is_freed_when_main_returns(capsys):
    # A run whose table held the run itself stayed alive, with every entry,
    # until the next garbage collection: in a loop of runs the peak memory grew.
    gc.collect()
    gc.disable()
    try:
        assert main(["all", "--trials", "10"]) == 0
        assert not [o for o in gc.get_objects() if isinstance(o, cli._Run)]
    finally:
        gc.enable()
    capsys.readouterr()


def test_invariants_exponentiates_no_zero_matrix(monkeypatch, capsys):
    # Every exponential is summed in closed form: Lambda, the rep-side D and
    # D^-1 of the two intertwining sweeps and the translations.  No matrix,
    # zero or not, goes through the series.
    seen = []
    mat_exp = lieforge.linalg.mat_exp

    def counted(a):
        seen.append(np.asarray(a).shape)
        return mat_exp(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("lieforge") and hasattr(module, "mat_exp"):
            monkeypatch.setattr(module, "mat_exp", counted)
    assert main(["invariants", "--trials", "1000"]) == 0
    assert seen == []
    capsys.readouterr()


def test_every_bracket_table_of_a_run_fits_64_kb(monkeypatch, capsys):
    # bracket_table forms each table whole, two (m, p, n, n) arrays at once;
    # that is the right design while no run forms a table above 64 KB.
    sizes = []

    def wrap(module):
        bracket_table = module.bracket_table

        def sized(A, B, coeffs, T, anti=False):
            dtype = np.result_type(A, B, T, coeffs)
            sizes.append(len(A) * np.asarray(B).size * dtype.itemsize)
            return bracket_table(A, B, coeffs, T, anti)

        monkeypatch.setattr(module, "bracket_table", sized)

    for module in (lieforge.checks, lieforge.transfer):
        wrap(module)
    assert main(["all", "--trials", "10"]) == 0
    assert main(["invariants", "--trials", "1000"]) == 0
    capsys.readouterr()
    assert sizes and max(sizes) <= 64 * 1024
