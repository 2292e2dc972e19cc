import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import junction_hjb as jh
from junction_hjb.cli import main
from junction_hjb.presets import builtin_spec

GOLDEN_ENTRY_BASIC = """\
lambda = 1.0
regime = entry            # or: exit
costs = 10.0, 0.5         # N entries, order = edge order
[edge]
controls = -1, 0, 1
f = a
ell = 1
[edge]
controls = -1, 0, 1
f = a
ell = 1 - a
"""


def _write_spec(tmp_path, name="entry-basic"):
    path = tmp_path / "problem.spec"
    path.write_text(builtin_spec(name), encoding="utf-8")
    return str(path)


def test_example_golden_file(tmp_path, capsys):
    out = tmp_path / "ex.spec"
    assert main(["example", "entry-basic", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == GOLDEN_ENTRY_BASIC


def test_example_to_stdout(capsys):
    assert main(["example", "entry-basic"]) == 0
    assert capsys.readouterr().out == GOLDEN_ENTRY_BASIC


def test_module_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-m", "junction_hjb.cli", "example", "entry-basic"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == GOLDEN_ENTRY_BASIC


@pytest.mark.parametrize(
    "command",
    [
        ["validate"],
        ["solve"],
        ["oracle"],
        ["simulate", "--field", "field.csv", "--x0", "1,1.0"],
        ["residual", "--field", "field.csv"],
    ],
    ids=lambda command: command[0],
)
def test_formula_nested_too_deeply_exit_1(tmp_path, capsys, command):
    # Parsing recurses once per nesting level: a formula deeper than the
    # interpreter's stack is a syntax error, not a traceback.
    deep = "(" * 300 + "a" + ")" * 300
    path = tmp_path / "deep.spec"
    path.write_text(builtin_spec("entry-basic").replace("f = a", f"f = {deep}", 1), encoding="utf-8")
    assert main([command[0], str(path), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "formula nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("formula", ["1and a", "0x1for a"])
def test_python_syntax_warnings_never_reach_stderr(tmp_path, formula):
    # Python's parser warns "invalid decimal literal" on these before it
    # reads them as `1 and a` and `0x1f or a`; the CLI prints only its error.
    path = tmp_path / "warn.spec"
    path.write_text(builtin_spec("entry-basic").replace("f = a", f"f = {formula}", 1), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-m", "junction_hjb.cli", "validate", str(path)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1


def test_validate_ok(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    assert main(["validate", spec]) == 0
    out = capsys.readouterr().out
    assert "delta = 1" in out
    assert "no violations" in out


def test_validate_violations_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text(
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = 1\nf = a\nell = 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n",
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == 2
    assert "[H4]" in capsys.readouterr().out


def test_validate_missing_file_exit_1(capsys):
    assert main(["validate", "/nonexistent/x.spec"]) == 1


def test_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.spec"
    path.write_text("lambda = banana\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_prints_vertex_values(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    out = tmp_path / "field.csv"
    assert main(["solve", spec, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    u1 = float(next(l for l in text.splitlines() if l.startswith("u_1(O)")).split("=")[1])
    v0 = float(next(l for l in text.splitlines() if l.startswith("v(O)")).split("=")[1])
    assert abs(u1 - 0.5) <= 0.02
    assert abs(v0 - 0.5) <= 0.02
    assert out.exists()


def test_solve_expensive_variant(tmp_path, capsys):
    spec = _write_spec(tmp_path, "entry-expensive")
    assert main(["solve", spec]) == 0
    text = capsys.readouterr().out
    v0 = float(next(l for l in text.splitlines() if l.startswith("v(O)")).split("=")[1])
    assert abs(v0 - 1.0) <= 0.02


def test_solve_all_zero_costs_equal_vertex_values(tmp_path, capsys):
    spec = _write_spec(tmp_path, "entry-free")
    assert main(["solve", spec]) == 0
    lines = capsys.readouterr().out.splitlines()
    u1 = float(next(l for l in lines if l.startswith("u_1(O)")).split("=")[1])
    u2 = float(next(l for l in lines if l.startswith("u_2(O)")).split("=")[1])
    assert abs(u1 - u2) <= 2e-9


def test_solve_nonconvergence_exit_3(tmp_path, capsys):
    # A tol below float resolution: the policy stops changing first.
    spec = _write_spec(tmp_path)
    assert main(["solve", spec, "--tol", "1e-15"]) == 3
    assert "converged = false" in capsys.readouterr().out.splitlines()


def test_compare_field_with_itself(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    out = tmp_path / "field.csv"
    assert main(["solve", spec, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["compare", str(out), str(out), "--bound", "0"]) == 0
    assert "sup_diff = 0" in capsys.readouterr().out


def test_compare_solver_against_oracle(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    f_csv = tmp_path / "field.csv"
    o_csv = tmp_path / "oracle.csv"
    assert main(["solve", spec, "--out", str(f_csv)]) == 0
    assert main(["oracle", spec, "--out", str(o_csv)]) == 0
    capsys.readouterr()
    assert main(["compare", str(f_csv), str(o_csv), "--bound", "0.1"]) == 0


def test_compare_exceeding_bound(tmp_path, capsys):
    spec_a = _write_spec(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["solve", spec_a, "--out", str(a)]) == 0
    spec_b = tmp_path / "expensive.spec"
    spec_b.write_text(builtin_spec("entry-expensive"), encoding="utf-8")
    assert main(["solve", str(spec_b), "--out", str(b)]) == 0
    capsys.readouterr()
    assert main(["compare", str(a), str(b), "--bound", "1e-6"]) == 2


@pytest.mark.parametrize("bound", ["nan", "-1", "-0.5", "-1e-9", "-1E-3", "-.5"])
def test_compare_bound_that_is_nan_or_negative_exit_1(tmp_path, capsys, bound):
    # sup_diff > nan is never true, so a NaN bound would pass any pair.
    spec_a = _write_spec(tmp_path)
    spec_b = tmp_path / "expensive.spec"
    spec_b.write_text(builtin_spec("entry-expensive"), encoding="utf-8")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for spec, out in ((spec_a, a), (str(spec_b), b)):
        assert main(["solve", spec, "--h", "0.05", "--lmax", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["compare", str(a), str(b), "--bound", bound]) == 1
    assert "error: --bound must be a non-negative number" in capsys.readouterr().err


def test_compare_shape_mismatch_exit_1(tmp_path, capsys):
    # Two valid files whose nodes never coincide: NaN vertex limits and no
    # v(O) row leave s = 0 out, and 0.11 k = 0.1 j has no solution with
    # 0 < j, k <= 10.
    paths = []
    for h, l_max in ((0.1, 1.0), (0.11, 1.1)):
        grid = jh.GridParams(h=h, l_max=l_max, dt=h)
        values = np.ones((2, grid.n_intervals + 1))
        values[:, 0] = np.nan
        path = tmp_path / f"h{h}.csv"
        path.write_text(jh.field_to_csv(jh.ValueField(values, grid)), encoding="utf-8")
        paths.append(str(path))
    capsys.readouterr()
    assert main(["compare", *paths]) == 1
    assert "error: the fields share no nodes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [("problem=", "problm=", "unknown key 'problm'"), (" dt=", " h=0.05 dt=", "repeated key 'h'")],
    ids=["problm", "repeated-h"],
)
def test_csv_first_line_with_an_unknown_or_repeated_key_exit_1(tmp_path, capsys, old, new, message):
    # A misspelt problem= would read as a file that names no problem, which
    # every problem accepts: here the field of entry-basic for entry-expensive.
    spec = _write_spec(tmp_path)
    field = tmp_path / "field.csv"
    assert main(["solve", spec, "--h", "0.05", "--lmax", "2", "--out", str(field)]) == 0
    first, rows = field.read_text(encoding="utf-8").split("\n", 1)
    assert old in first
    field.write_text(first.replace(old, new) + "\n" + rows, encoding="utf-8")
    other = tmp_path / "expensive.spec"
    other.write_text(builtin_spec("entry-expensive"), encoding="utf-8")
    capsys.readouterr()
    assert main(["residual", str(other), "--field", str(field)]) == 1
    assert f"error: bad first line '{first.replace(old, new)}': {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "residual", "compare"])
def test_csv_without_its_first_line_exit_1(tmp_path, capsys, command):
    spec = _write_spec(tmp_path)
    field = tmp_path / "field.csv"
    assert main(["solve", spec, "--h", "0.05", "--lmax", "2", "--out", str(field)]) == 0
    bare = tmp_path / "bare.csv"
    rows = field.read_text(encoding="utf-8").split("\n", 1)[1]
    bare.write_text("edge,s,value\n" + rows, encoding="utf-8")
    args = {
        "simulate": ["simulate", spec, "--field", str(bare), "--x0", "1,1.0"],
        "residual": ["residual", spec, "--field", str(bare)],
        "compare": ["compare", str(field), str(bare)],
    }[command]
    capsys.readouterr()
    assert main(args) == 1
    assert "error: expected a first line '# edge,s,value" in capsys.readouterr().err


def test_simulate_command(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    field = tmp_path / "field.csv"
    assert main(["solve", spec, "--out", str(field)]) == 0
    traj = tmp_path / "traj.csv"
    assert (
        main(
            [
                "simulate", spec,
                "--field", str(field),
                "--x0", "1,1.0",
                "--out", str(traj),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    cost = float(next(l for l in out.splitlines() if l.startswith("realized_cost")).split("=")[1])
    assert abs(cost - (1 - 0.5 * 2.718281828 ** -1)) <= 0.05
    assert traj.exists()
    assert (tmp_path / "traj.csv.switches.csv").exists()


def test_simulate_prints_left_domain(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    field = tmp_path / "field.csv"
    assert main(["solve", spec, "--out", str(field)]) == 0
    capsys.readouterr()
    # entry-basic from (1, 1.0) reaches s = 19 on edge 2 by t = 20, past l_max = 4.
    assert main(["simulate", spec, "--field", str(field), "--x0", "1,1.0"]) == 0
    assert "left_domain = true" in capsys.readouterr().out.splitlines()
    args = ["simulate", spec, "--field", str(field), "--x0", "1,1.0", "--horizon", "2"]
    assert main(args) == 0
    assert "left_domain = false" in capsys.readouterr().out.splitlines()


def test_simulate_prints_value_gap(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    field = tmp_path / "field.csv"
    assert main(["solve", spec, "--out", str(field)]) == 0
    for x0 in ("1,1.0", "1,0"):
        capsys.readouterr()
        assert main(["simulate", spec, "--field", str(field), "--x0", x0]) == 0
        out = capsys.readouterr().out
        gap = float(next(l for l in out.splitlines() if l.startswith("value_gap")).split("=")[1])
        assert abs(gap) <= 0.01  # h


def test_simulate_steps_with_the_field_dt(tmp_path, capsys):
    # By default a rollout steps with the time step the field was solved
    # with, here dt = 4h, and realizes the field's value to within h.
    spec = _write_spec(tmp_path)
    field = tmp_path / "field.csv"
    assert main(["solve", spec, "--h", "0.01", "--dt", "0.04", "--out", str(field)]) == 0
    capsys.readouterr()
    assert main(["simulate", spec, "--field", str(field), "--x0", "1,1.0"]) == 0
    out = capsys.readouterr().out
    gap = float(next(l for l in out.splitlines() if l.startswith("value_gap")).split("=")[1])
    assert abs(gap) <= 0.01  # h


@pytest.mark.parametrize(
    "flags",
    [
        ["--horizon", "-1"],
        ["--x0", "5,0.003"],
        ["--x0", "0,0.5"],
        ["--x0", "1,100"],
        ["--x0", "1,nan"],
        ["--x0", "1,inf"],
        ["--x0", "1,-0.5"],
    ],
)
def test_simulate_rejects_inputs_that_do_not_fit_exit_1(tmp_path, capsys, flags):
    spec = _write_spec(tmp_path)
    field = tmp_path / "field.csv"
    assert main(["solve", spec, "--out", str(field)]) == 0
    capsys.readouterr()
    args = ["simulate", spec, "--field", str(field), "--x0", "1,1.0", *flags]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "realized_cost" not in captured.out


@pytest.mark.parametrize("x0", ["1", "a,1", "1,2,3", ",1"])
def test_simulate_x0_that_is_not_edge_comma_s_exit_4(tmp_path, capsys, x0):
    # A malformed argument is a usage error, refused before any file is read;
    # an --x0 that parses but lies off the field's domain exits 1 (above).
    with pytest.raises(SystemExit) as exc:
        main(["simulate", _write_spec(tmp_path), "--field", "field.csv", "--x0", x0])
    assert exc.value.code == 4
    assert f"argument --x0: expected edge,s such as 1,0.5, got '{x0}'" in capsys.readouterr().err


def test_simulate_mismatched_field_exit_1(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    field = tmp_path / "field.csv"
    assert main(["solve", spec, "--out", str(field)]) == 0
    three = tmp_path / "three.spec"
    three.write_text(
        "lambda = 1\nregime = entry\ncosts = 1, 1, 1\n"
        + "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n" * 3,
        encoding="utf-8",
    )
    capsys.readouterr()
    assert main(["simulate", str(three), "--field", str(field), "--x0", "3,0.5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_invalid_problem_exit_2(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    field = tmp_path / "field.csv"
    assert main(["solve", spec, "--out", str(field)]) == 0
    bad = tmp_path / "bad.spec"
    bad.write_text(
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = 1\nf = a\nell = 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    assert main(["simulate", str(bad), "--field", str(field), "--x0", "1,0.5"]) == 2
    assert "violation:" in capsys.readouterr().err


def test_grid_commands_validate_the_domain_they_run_on(tmp_path, capsys):
    # ell = 1 / (x - 5) is finite on validate's default [0, 4] but not at
    # x = 5, which a grid with l_max = 5 samples: the grid commands report
    # that as an [H2] violation instead of failing inside the scheme.
    bad = tmp_path / "bad.spec"
    bad.write_text(builtin_spec("entry-basic").replace("ell = 1 - a", "ell = 1 / (x - 5)"))
    assert main(["validate", str(bad)]) == 0
    for command in ("solve", "oracle"):
        capsys.readouterr()
        assert main([command, str(bad), "--lmax", "5"]) == 2
        assert "violation: [H2]: non-finite running cost ell on edge 2" in capsys.readouterr().err
    # simulate and residual validate over the field's grid.
    spec = _write_spec(tmp_path)
    for lmax, code in (("5", 2), ("4", 1)):
        field = tmp_path / f"field{lmax}.csv"
        assert main(["solve", spec, "--lmax", lmax, "--out", str(field)]) == 0
        for extra in (["simulate", "--x0", "1,0.5"], ["residual"]):
            capsys.readouterr()
            argv = [extra[0], str(bad), "--field", str(field)] + extra[1:]
            assert main(argv) == code
            assert ("[H2]" in capsys.readouterr().err) == (code == 2)


def test_solve_reports_level_iterations(tmp_path, capsys):
    import json

    spec = _write_spec(tmp_path)
    out = tmp_path / "field.json"
    assert main(["solve", spec, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    levels = [int(n) for n in next(l for l in lines if l.startswith("levels = "))[9:].split(",")]
    iterations = int(next(l for l in lines if l.startswith("iterations = ")).split("=")[1])
    assert len(levels) > 1 and sum(levels) == iterations
    report = json.loads(out.read_text(encoding="utf-8"))["report"]
    assert report["level_iterations"] == levels
    assert report["iterations"] == iterations


def test_residual_command(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    field = tmp_path / "field.csv"
    assert main(["solve", spec, "--out", str(field)]) == 0
    capsys.readouterr()
    assert main(["residual", spec, "--field", str(field)]) == 0
    res = float(capsys.readouterr().out.split("=")[1])
    assert res <= 1e-8


def test_residual_refuses_a_dt_flag(tmp_path, capsys):
    # A field file carries its own dt; reading a converged field at another
    # dt is not its residual.
    spec = _write_spec(tmp_path)
    field = tmp_path / "field.csv"
    assert main(["solve", spec, "--dt", "0.04", "--out", str(field)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["residual", spec, "--field", str(field), "--dt", "0.01"])
    assert exc.value.code == 4
    assert "unrecognized arguments: --dt" in capsys.readouterr().err
    assert main(["residual", spec, "--field", str(field)]) == 0
    assert float(capsys.readouterr().out.split("=")[1]) <= 1e-8


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tol_that_is_not_positive_and_finite_exit_1(tmp_path, capsys, command, tol):
    spec = _write_spec(tmp_path)
    assert main([command, spec, "--h", "0.05", "--lmax", "2", "--tol", tol]) == 1
    assert "error: tol must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["nosuch"], "invalid choice: 'nosuch'"),
        (["solve"], "the following arguments are required: spec"),
        (["solve", "p.spec", "--h", "abc"], "argument --h: invalid float value: 'abc'"),
        (["example", "nosuch"], "argument name: invalid choice: 'nosuch'"),
    ],
)
def test_usage_errors_exit_4(capsys, args, message):
    # A usage error has its own exit code: 2 means validation violations or
    # an exceeded --bound.
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 4
    err = capsys.readouterr().err
    assert err.startswith("usage: junction-hjb") and message in err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("solve", ["--max-iters", "3"]),
        ("oracle", ["--max-iters", "3"]),
        ("simulate", ["--dt", "0.01"]),
        ("validate", ["--samples", "11"]),
        ("solve", ["--format", "json"]),
        ("oracle", ["--format", "json"]),
    ],
)
def test_options_the_inputs_fix_are_refused_exit_4(tmp_path, capsys, command, flag):
    # The iteration caps are fixed safety bounds, a rollout steps with its
    # field's dt, validate samples 101 points, and the --out name picks the
    # field syntax: none is an option.
    spec = _write_spec(tmp_path)
    args = [command, spec, *flag]
    if command == "simulate":
        args += ["--field", "field.csv", "--x0", "1,1.0"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 4
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        "[1, 2]",
        "null",
        '"field"',
        '{"grid": 1, "edges": []}',
        '{"grid": {"h": 0.01}, "edges": []}',
        '{"grid": {"h": 0.01, "l_max": 4, "dt": "x"}, "edges": []}',
        '{"grid": {"h": 0.01, "l_max": 4, "dt": 0.01}}',
        '{"grid": {"h": 0.01, "l_max": 4, "dt": 0.01}, "edges": [1]}',
        '{"grid": {"h": 0.01, "l_max": 4, "dt": 0.01}, "edges": [{"edge": 1}]}',
        '{"grid": {"h": 0.01, "l_max": 4, "dt": 0.01}, "edges": [{"edge": [1], "s": [], "values": []}]}',
        '{"grid": {"h": 0.01, "l_max": Infinity, "dt": 0.01}, "edges": []}',
    ],
)
def test_malformed_json_field_exit_1(tmp_path, capsys, text):
    spec = _write_spec(tmp_path)
    field = tmp_path / "field.json"
    field.write_text(text, encoding="utf-8")
    for args in (["residual", spec, "--field", str(field)], ["compare", str(field), str(field)]):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "Traceback" not in captured.err


def test_out_name_picks_the_field_syntax(tmp_path, capsys):
    # A .json name gets JSON and any other name CSV, the rule the readers
    # of residual, simulate and compare apply.
    spec = _write_spec(tmp_path)
    f_json, f_csv = tmp_path / "f.json", tmp_path / "f.csv"
    assert main(["solve", spec, "--out", str(f_json)]) == 0
    assert main(["solve", spec, "--out", str(f_csv)]) == 0
    assert main(["residual", spec, "--field", str(f_json)]) == 0
    assert main(["compare", str(f_json), str(f_csv), "--bound", "0"]) == 0
    assert f_json.read_text(encoding="utf-8").startswith("{")
    assert f_csv.read_text(encoding="utf-8").startswith("# edge,s,value h=")


def test_solver_outputs_are_deterministic(tmp_path):
    spec = _write_spec(tmp_path)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["solve", spec, "--out", str(a)]) == 0
    assert main(["solve", spec, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_field_loads_back(tmp_path):
    spec = _write_spec(tmp_path)
    out = tmp_path / "field.json"
    assert main(["solve", spec, "--out", str(out)]) == 0
    field = jh.field_from_json(out.read_text(encoding="utf-8"))
    assert field.vertex_reconstruction is not None


def test_validate_json_format(tmp_path, capsys):
    import json

    spec = _write_spec(tmp_path)
    assert main(["validate", spec, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["delta"] == 1.0
    assert obj["violations"] == []


def test_compare_json_fields_including_oracle(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    f_json = tmp_path / "field.json"
    o_json = tmp_path / "oracle.json"
    assert main(["solve", spec, "--out", str(f_json)]) == 0
    assert main(["oracle", spec, "--out", str(o_json)]) == 0
    capsys.readouterr()
    assert main(["compare", str(f_json), str(o_json), "--bound", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "sup_diff" in out


def test_oracle_reports_like_solve(tmp_path, capsys):
    import json
    import re

    spec = _write_spec(tmp_path)
    out = tmp_path / "oracle.json"
    assert main(["oracle", spec, "--dt", "0.03", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"v\(O\) = \S+", lines[0])
    assert lines[1] == "method = policy iteration (iterations count policy evaluations)"
    assert re.fullmatch(r"iterations = \d+", lines[2])
    assert re.fullmatch(r"final_change = \S+", lines[3])
    assert lines[4] == "converged = true"
    report = json.loads(out.read_text(encoding="utf-8"))["report"]
    assert report["iterations"] == int(lines[2].split("=")[1])
    final_change = float(lines[3].split("=")[1])
    assert abs(final_change - report["final_change"]) <= 1e-8 * report["final_change"]
    assert final_change <= 1e-9
    assert abs(float(lines[0].split("=")[1]) - 0.5) <= 0.05


def test_oracle_nonconvergence_exit_3(tmp_path, capsys):
    # A tol below float resolution: the policy stops changing first.
    spec = _write_spec(tmp_path)
    assert main(["oracle", spec, "--dt", "0.03", "--tol", "1e-18"]) == 3
    assert "converged = false" in capsys.readouterr().out.splitlines()


def test_compare_csv_and_json_of_one_field(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    a_csv = tmp_path / "a.csv"
    a_json = tmp_path / "a.json"
    assert main(["solve", spec, "--out", str(a_csv)]) == 0
    assert main(["solve", spec, "--out", str(a_json)]) == 0
    capsys.readouterr()
    assert main(["compare", str(a_csv), str(a_json), "--bound", "0"]) == 0
    assert "sup_diff = 0" in capsys.readouterr().out.splitlines()


def test_oracle_csv_reads_back_on_its_grid(tmp_path):
    spec = _write_spec(tmp_path)
    out = tmp_path / "oracle.csv"
    assert main(["oracle", spec, "--out", str(out)]) == 0
    field = jh.field_from_csv(out.read_text(encoding="utf-8"))
    assert field.grid.n_intervals + 1 == 401
    for u in field.values:
        assert u.shape == (401,)
        assert np.isnan(u[0]) and not np.isnan(u[1:]).any()
    assert field.vertex_reconstruction is not None


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["residual", "simulate"])
def test_field_of_another_problem_exit_1(tmp_path, capsys, fmt, command):
    spec = _write_spec(tmp_path)
    field = tmp_path / f"field.{fmt}"
    assert main(["solve", spec, "--out", str(field)]) == 0
    other = tmp_path / "expensive.spec"
    other.write_text(builtin_spec("entry-expensive"), encoding="utf-8")
    args = [command, str(other), "--field", str(field)]
    if command == "simulate":
        args += ["--x0", "1,1.0", "--horizon", "1"]
    capsys.readouterr()
    assert main(args) == 1
    assert "another problem" in capsys.readouterr().err
    # A file that names no problem is still read.
    text = field.read_text(encoding="utf-8")
    digest = jh.problem_digest(jh.builtin_problem("entry-basic"))
    if fmt == "csv":
        text = text.replace(f" problem={digest}", "")
    else:
        text = text.replace(f'"problem": "{digest}"', '"problem": null')
    assert digest not in text
    field.write_text(text, encoding="utf-8")
    assert main(args) == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["residual", "simulate"])
def test_oracle_field_has_no_vertex_limits_exit_1(tmp_path, capsys, fmt, command):
    # An oracle file reads back with NaN at each edge's s = 0, which a
    # rollout or a residual must not consume.
    spec = _write_spec(tmp_path)
    field = tmp_path / f"oracle.{fmt}"
    assert main(["oracle", spec, "--out", str(field)]) == 0
    args = [command, spec, "--field", str(field)]
    if command == "simulate":
        args += ["--x0", "1,1.0", "--horizon", "1"]
    capsys.readouterr()
    assert main(args) == 1
    assert "NaN nodes" in capsys.readouterr().err
