"""perfbench/run.py --trace 1 wraps the package's public functions and reads
attributes of their arguments and results (run.py's install_tracer).  This
runs that tracer on a small solve, so a refactor that drops something it
reads fails here instead of only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import junction_hjb as jh
from junction_hjb import solver

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_benchmark_tracer_runs_on_solve_and_residual(monkeypatch):
    # run.py puts its own directory on sys.path and imports its siblings
    # spans and problems by bare name; both are undone afterwards.
    monkeypatch.setattr(sys, "path", list(sys.path))
    siblings = [name for name in ("spans", "problems") if name not in sys.modules]
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)

    problem = jh.builtin_problem("entry-basic")
    grid = solver.GridParams(h=0.1, l_max=4.0, dt=0.1)
    tracer = run.Tracer()
    run.install_tracer(tracer)
    try:
        field, _ = solver.solve(problem, grid)
        solver.residual(field, solver.build_system(problem, grid))
    finally:
        tracer.uninstall()
        for name in siblings:
            sys.modules.pop(name, None)
    assert solver.solve is jh.solve
    assert tracer.calls("solver.solve") == 1
    assert tracer.total("solver.sweep", "bytes") > 0
