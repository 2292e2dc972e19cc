"""perfbench/run.py depends on the package in ways the package's own tests
would not notice: --trace 1 wraps its public functions and reads attributes
of their arguments and results (run.py's install_tracer), and the CLI probe
reads the CSV files of `cli solve` and `cli oracle` (Cli._read_outputs).
These tests run that code on small inputs, so a refactor that breaks it
fails here instead of only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import junction_hjb as jh
from junction_hjb import solver
from junction_hjb.cli import main

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture
def run(monkeypatch):
    """perfbench/run.py as a module.  It puts its own directory on sys.path
    and imports its siblings spans and problems by bare name; both are
    undone afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    siblings = [name for name in ("spans", "problems") if name not in sys.modules]
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in siblings:
        sys.modules.pop(name, None)


def test_benchmark_tracer_runs_on_solve_and_residual(run):
    problem = jh.builtin_problem("entry-basic")
    grid = solver.GridParams(h=0.1, l_max=4.0, dt=0.1)
    tracer = run.Tracer()
    run.install_tracer(tracer)
    try:
        field, _ = solver.solve(problem, grid)
        solver.residual(field, solver.build_system(problem, grid))
    finally:
        tracer.uninstall()
    assert solver.solve is jh.solve
    assert tracer.calls("solver.solve") == 1
    assert tracer.total("solver.sweep", "bytes") > 0


def test_benchmark_cli_probe_reads_the_solve_and_oracle_csv(run, tmp_path, monkeypatch):
    # The probe's own commands write solver.csv and oracle.csv; it reads
    # oracle.csv by hand, skipping only the first line.
    bench = run.Bench(seed=0, tracer=None)
    cli = run.Cli(bench)
    cli.work = tmp_path
    cli.setup()
    monkeypatch.chdir(tmp_path)
    for label in ("example", "solve", "oracle"):
        assert main(cli.commands[label]) == 0
    cli.verify()
    assert bench.failures == []
    assert bench.attempted == 2
