#!/usr/bin/env python3
"""Benchmark of junction_hjb: seeded workloads, end-to-end metrics, traced run.

Run from the repository root:

    python3 perfbench/run.py --workload fine_solve --seed 20260810 --seconds 55 --trace 0

Workloads (perfbench/README.md says why each was chosen):

  fine_solve  solver.solve at h = dt = 0.0025 on the two baseline problems
  crosscheck  validate, solve, oracle_solve, residual and field round-trips
              on entry-basic and the acceptance suite's random problems

Every workload reports every end-to-end metric.  Its main activity takes
about half of the run; two probe activities produce the remaining metrics
in fixed shares: rollout (greedy simulate and connect/evaluate_cost on
fields solved during set-up) and cli (the 7-command CLI pipeline and
`import junction_hjb`, each a separate interpreter).  The scheduler
interleaves them unit by unit (one solve, one rollout, one CLI command), so
that every identical call is repeated across the whole run.  Set-up runs
once before the schedule and again as a unit of it; setup_s is the median.

Every other timing is built from the median time of each distinct call
over its repeats in the run (one solve of one problem, one rollout from one
start, one CLI command).  On a shared machine per-call times are bimodal;
a median per call ignores the slow outliers a mean absorbs, and, unlike the
fastest repeat, does not hang on a rare fast burst.  Every call is checked
against the acceptance suite's tolerances; an operation that raises or
misses a gate counts as failed.

With --trace 0 the last line of standard output holds the end-to-end
metrics.  With --trace 1 the program's public functions are wrapped from
here (perfbench/spans.py), and the last line holds the per-layer metrics;
the spans are written to .perfbench-out/.  The line before the last holds
provenance, input hashes, exact counts and timing summaries.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Acceptance-suite settings and tolerances (tests/test_acceptance.py,
# tests/test_solver.py, tests/test_oracle.py); none is new.  The oracle runs
# at ORACLE_DT on every problem: at dt = h its snapped steps coincide with
# the solver's on entry-basic, and the gap would only measure tol.
TOL = 1e-9
ORACLE_DT = 0.03
CLOSED_FORM_TOL = 0.02
ORACLE_TOL_RANDOM = 0.1
ORACLE_TOL_BENCHMARK = 0.05
RESIDUAL_TOL = 2e-9
CSV_TOL = 1e-8
HORIZON = 20.0

N_CROSSCHECK = 20  # random problems per crosscheck round, as in the acceptance suite
STARTS_PER_EDGE = 4  # rollout starts per edge of each problem
N_PAIRS = 1000  # connect pairs per rollout round, as in acceptance criterion 10
CONNECT_CHUNK = 50  # connect pairs per scheduling unit
SUBPROCESS_TIMEOUT = 120

WORKLOADS = ("fine_solve", "crosscheck")
# Share of each run's time per activity; the first one is the main activity.
# Set-up runs once before the schedule and then takes SETUP_SHARE of it.
SETUP_SHARE = 0.08
PROBES = (("cli", 0.3), ("rollout", 0.2))
MIX = {workload: ((workload, 0.5),) + PROBES for workload in WORKLOADS}
CLI_COMMANDS = ("example", "validate", "solve", "oracle", "compare", "simulate", "residual")
CLI_MAIN = "import sys; from junction_hjb.cli import main; sys.exit(main(sys.argv[1:]))"


if not (SRC / "junction_hjb" / "__init__.py").is_file():
    print(f"perfbench: no junction_hjb package under {SRC}; run from a full checkout",
          file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from junction_hjb import exprlang, model, oracle, solver  # noqa: E402
from problems import (  # noqa: E402
    ACCEPTANCE_SEED,
    baseline_problems,
    digest,
    problem_hash,
    random_problems,
)
from spans import Tracer  # noqa: E402

G1 = solver.GridParams(h=0.01, l_max=4.0, dt=0.01)
G4 = solver.GridParams(h=0.0025, l_max=4.0, dt=0.0025)
ORACLE_GRID = solver.GridParams(h=0.01, l_max=4.0, dt=ORACLE_DT)


# ---------------------------------------------------------------------------
# Bookkeeping and checks
# ---------------------------------------------------------------------------

class Bench:
    """Operation and failure counts and facts of one run."""

    def __init__(self, seed: int, tracer: Tracer | None):
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.facts: dict = {}

    def attempt(self, what: str, fn, *args):
        """Run one operation; fn returns (result, list of missed gates).
        Returns the result, or None when the operation raised."""
        self.attempted += 1
        try:
            result, missed = fn(*args)
        except Exception:
            # A failed operation is counted and reported; the run goes on.
            self.failed += 1
            self.failures.append(f"{what}: {traceback.format_exc(limit=3)}")
            return None
        if missed:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(missed)}")
        return result

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)


def median(values) -> float:
    return float(statistics.median(values))


def per_call(times: dict) -> list[float]:
    """The median over its repeats of each distinct call, in key order."""
    return [median(t) for _, t in sorted(times.items())]


def closed_form_error(field: solver.ValueField) -> float:
    """entry-basic: u_1 = 1 - 0.5 e^{-s}, u_2 = 0 on s <= 3, and v(O) = 0.5."""
    s = field.grid.nodes
    mask = s <= 3.0
    err1 = float(np.abs(field.values[0] - (1 - 0.5 * np.exp(-s)))[mask].max())
    err2 = float(np.abs(field.values[1])[mask].max())
    return max(err1, err2, abs(field.vertex_reconstruction - 0.5))


def oracle_gap(field_values, vertex: float, osol: oracle.OracleSolution) -> float:
    """Acceptance criterion 4's gap: sup over 0 < s <= l_max - 1 of each
    edge, and the vertex value.  field_values are on the oracle's grid."""
    s = osol.grid.nodes
    mask = (s > 0) & (s <= osol.grid.l_max - 1.0)
    sup = max(
        float(np.abs(u[mask] - o[mask]).max()) for u, o in zip(field_values, osol.values)
    )
    return max(sup, abs(vertex - osol.vertex_value))


def check_oracle(name, problem, field) -> tuple[float, list[str]]:
    """Solver-vs-oracle gap on the acceptance grid (h = 0.01)."""
    step = round(G1.h / field.grid.h)
    osol = oracle.oracle_solve(problem, ORACLE_GRID, tol=TOL)
    gap = oracle_gap([u[::step] for u in field.values], field.vertex_reconstruction, osol)
    bound = ORACLE_TOL_BENCHMARK if name == "entry-basic" else ORACLE_TOL_RANDOM
    missed = [] if osol.converged else ["oracle did not converge"]
    if not gap <= bound:
        missed.append(f"oracle gap {gap:.4g} > {bound}")
    return gap, missed


def validated(problem) -> tuple[None, list[str]]:
    report = model.validate(problem)
    return None, [f"validate: {v}" for v in report.violations]


def roundtrip_misses(field, report) -> list[str]:
    """CSV keeps 9 significant digits (tests/test_solver.py); JSON is exact."""
    missed = []
    back = solver.field_from_csv(solver.field_to_csv(field))
    csv_err = max(float(np.abs(a - b).max()) for a, b in zip(field.values, back.values))
    csv_err = max(csv_err, abs(back.vertex_reconstruction - field.vertex_reconstruction))
    if not (back.grid.h == field.grid.h and csv_err <= CSV_TOL):
        missed.append(f"CSV round-trip off by {csv_err:.3g}")
    back = solver.field_from_json(solver.field_to_json(field, report))
    same = back.grid == field.grid and all(
        (a == b).all() for a, b in zip(field.values, back.values)
    )
    if not (same and back.vertex_reconstruction == field.vertex_reconstruction):
        missed.append("JSON round-trip is not exact")
    return missed


def stratified(rng: np.random.Generator, k: int, length: float) -> np.ndarray:
    """One uniform draw in each of k equal slices of [0, length]."""
    return (np.arange(k) + rng.uniform(0.0, 1.0, k)) * (length / k)


def interp(field: solver.ValueField, point: model.NetworkPoint) -> float:
    u = field.values[point.edge - 1]
    return float(np.interp(point.s, field.grid.nodes, u))


# ---------------------------------------------------------------------------
# Activities.  setup() prepares inputs; units() lists one round of work as
# callables, run in order; verify() checks what the rounds left behind;
# metrics() returns the end-to-end metrics the activity produces.
# ---------------------------------------------------------------------------

class FineSolve:
    """solve at h = dt = 0.0025 on entry-basic and the acceptance seed's first
    random problem.  The inputs do not depend on --seed: solve time varies
    threefold between random problems (measured), which would swamp a
    solver change."""

    grid = G4

    def __init__(self, bench: Bench):
        self.bench = bench
        self.solve_times: dict[str, list[float]] = {}
        self.fields = {}
        self.iterations = {}

    def setup(self):
        self.problems = baseline_problems()
        for name, p in self.problems:
            self.bench.attempt(f"validate {name}", validated, p)

    def _solve(self, name, problem):
        start = time.perf_counter()
        field, report = solver.solve(problem, G4, tol=TOL)
        self.solve_times.setdefault(name, []).append(time.perf_counter() - start)
        missed = [] if report.converged else ["did not converge"]
        if name == "entry-basic":
            err = closed_form_error(field)
            if not err <= CLOSED_FORM_TOL:
                missed.append(f"closed-form error {err:.4g} > {CLOSED_FORM_TOL}")
        self.fields[name] = field
        self.iterations[name] = report.iterations
        return None, missed

    def units(self):
        return [
            partial(self.bench.attempt, f"solve {name}", self._solve, name, p)
            for name, p in self.problems
        ]

    def verify(self):
        self.gaps = [
            self.bench.attempt(f"oracle {name}", check_oracle, name, p, self.fields[name])
            for name, p in self.problems
        ]
        self.bench.facts["fine_solve.iterations"] = self.iterations

    def samples(self):
        return {f"solve {name}": times for name, times in self.solve_times.items()}

    def metrics(self):
        solves = per_call(self.solve_times)
        return {
            "solve_s": statistics.fmean(solves),
            "closed_form_err": closed_form_error(self.fields["entry-basic"]),
            "problems_per_s": len(solves) / math.fsum(solves),
            "oracle_gap": max(g for g in self.gaps if g is not None),
        }


class Crosscheck:
    """Acceptance-shaped traffic: entry-basic plus the acceptance suite's
    N_CROSSCHECK random problems, each validated, solved, checked against
    oracle_solve and residual, and round-tripped through CSV and JSON, at
    h = dt = 0.01.  The inputs do not depend on --seed: drawn problem sets
    vary in cost between seeds, and some drawn problems miss the acceptance
    oracle bound (perfbench/README.md)."""

    grid = G1

    def __init__(self, bench: Bench):
        self.bench = bench
        self.solve_times: dict[str, list[float]] = {}
        self.check_times: dict[str, list[float]] = {}
        self.gaps: dict[str, float] = {}
        self.iterations: dict[str, int] = {}
        self.closed_form = math.nan

    def setup(self):
        self.problems = baseline_problems()[:1] + [
            (f"random-{i}", p)
            for i, p in enumerate(random_problems(ACCEPTANCE_SEED, N_CROSSCHECK))
        ]

    def _check(self, name, problem):
        begin = time.perf_counter()
        missed = validated(problem)[1]
        start = time.perf_counter()
        field, report = solver.solve(problem, G1, tol=TOL)
        self.solve_times.setdefault(name, []).append(time.perf_counter() - start)
        self.iterations[name] = report.iterations
        if not report.converged:
            missed.append("did not converge")
        gap, oracle_missed = check_oracle(name, problem, field)
        self.gaps[name] = gap
        missed += oracle_missed
        _, res = solver.residual(field, solver.build_system(problem, G1))
        if not res <= RESIDUAL_TOL:
            missed.append(f"residual {res:.3g} > {RESIDUAL_TOL}")
        missed += roundtrip_misses(field, report)
        if name == "entry-basic":
            self.closed_form = closed_form_error(field)
            if not self.closed_form <= CLOSED_FORM_TOL:
                missed.append(f"closed-form error {self.closed_form:.4g}")
        self.check_times.setdefault(name, []).append(time.perf_counter() - begin)
        return None, missed

    def units(self):
        return [
            partial(self.bench.attempt, f"crosscheck {name}", self._check, name, p)
            for name, p in self.problems
        ]

    def verify(self):
        self.bench.facts["crosscheck.iterations"] = self.iterations

    def samples(self):
        return {"solve": [t for times in self.solve_times.values() for t in times],
                "check": [t for times in self.check_times.values() for t in times]}

    def metrics(self):
        return {
            "solve_s": statistics.fmean(per_call(self.solve_times)),
            "closed_form_err": self.closed_form,
            "problems_per_s": len(self.check_times) / math.fsum(per_call(self.check_times)),
            "oracle_gap": max(self.gaps.values()),
        }


class Rollout:
    """Greedy rollouts and connect certifications on fields solved in set-up.

    Starts are drawn from --seed over every edge and all of [0, l_max] of
    both baseline problems, and are not filtered: some rollouts leave the
    truncated domain, which the per-layer metrics report.  connect pairs lie
    on entry-basic within s <= 1, as in acceptance criterion 10."""

    grid = G1

    def __init__(self, bench: Bench):
        self.bench = bench
        self.rollout_times: dict[int, list[float]] = {}
        self.rollout_steps: dict[int, int] = {}
        self.connect_times: dict[int, list[float]] = {}

    def _solve(self, name, problem):
        field, report = solver.solve(problem, G1, tol=TOL)
        self.fields[name] = field
        return None, [] if report.converged else ["did not converge"]

    def setup(self):
        self.problems = baseline_problems()
        self.fields = {}
        for name, p in self.problems:
            self.bench.attempt(f"validate {name}", validated, p)
            self.bench.attempt(f"solve {name}", self._solve, name, p)
        # Stratified draws: every edge gets STARTS_PER_EDGE starts, one
        # uniform in each equal slice of [0, l_max], and the connect pairs
        # cover the four edge combinations with one uniform draw in each
        # slice of [0, 1].  The mix of work then barely moves between seeds.
        rng = np.random.default_rng(self.bench.seed)
        self.starts = []
        for name, p in self.problems:
            for edge in p.junction.edge_labels:
                self.starts += [
                    (name, p, model.NetworkPoint(edge, float(s)))
                    for s in stratified(rng, STARTS_PER_EDGE, G1.l_max)
                ]
        per_combo = N_PAIRS // 4
        self.pairs = []
        for e1, e2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
            s1 = stratified(rng, per_combo, 1.0)
            s2 = rng.permutation(stratified(rng, per_combo, 1.0))
            self.pairs += [
                (model.NetworkPoint(e1, float(a)), model.NetworkPoint(e2, float(b)))
                for a, b in zip(s1, s2)
            ]

    def _rollout(self, k, name, problem, x0):
        field = self.fields[name]
        start = time.perf_counter()
        traj = oracle.simulate(problem, x0, field, horizon=HORIZON, dt=G1.h)
        self.rollout_times.setdefault(k, []).append(time.perf_counter() - start)
        steps = len(traj.times) - 1
        missed = []
        if self.rollout_steps.setdefault(k, steps) != steps:
            missed.append(f"{steps} steps, {self.rollout_steps[k]} on an earlier repeat")
        # Any admissible trajectory costs at least the value function, up to
        # the scheme's O(h) error.
        lower = interp(field, x0) - G1.h
        if not traj.cost + traj.tail_bound >= lower:
            missed.append(f"cost {traj.cost:.6g} + tail {traj.tail_bound:.3g} < value - h {lower:.6g}")
        return None, missed

    def _connect(self, k, problem, x1, x2):
        h_snap = G1.h / 2
        start = time.perf_counter()
        schedule, tau = oracle.connect(problem, x1, x2, h_snap=h_snap)
        traj = oracle.evaluate_cost(problem, x1, schedule)
        self.connect_times.setdefault(k, []).append(time.perf_counter() - start)
        missed = []
        bound = 2 * model.geodesic_distance(x1, x2) + 2 * h_snap
        if not tau <= bound:
            missed.append(f"tau {tau:.6g} > 2 d + 2 h_snap = {bound:.6g}")
        end = model.NetworkPoint(int(traj.edges[-1]), float(traj.positions[-1]))
        if not model.geodesic_distance(end, x2) <= 2 * h_snap + 1e-6:
            missed.append(f"schedule ends at {end}, not within 2 h_snap of {x2}")
        if not math.isfinite(traj.cost):
            missed.append("non-finite cost")
        return None, missed

    def _connect_chunk(self, first):
        eb = self.problems[0][1]
        for k in range(first, min(first + CONNECT_CHUNK, len(self.pairs))):
            x1, x2 = self.pairs[k]
            self.bench.attempt(f"connect {x1} -> {x2}", self._connect, k, eb, x1, x2)

    def units(self):
        rollouts = [
            partial(self.bench.attempt, f"simulate {name} from {x0}", self._rollout,
                    k, name, p, x0)
            for k, (name, p, x0) in enumerate(self.starts)
        ]
        chunks = [
            partial(self._connect_chunk, first)
            for first in range(0, len(self.pairs), CONNECT_CHUNK)
        ]
        # Alternate rollouts and connect chunks, so that both are sampled
        # across the whole round.
        per_chunk = len(rollouts) // len(chunks)
        mixed = []
        for k, chunk in enumerate(chunks):
            mixed += rollouts[k * per_chunk:(k + 1) * per_chunk] + [chunk]
        mixed += rollouts[len(chunks) * per_chunk:]
        return mixed

    def verify(self):
        for name, p in self.problems:
            self.bench.attempt(f"oracle {name}", check_oracle, name, p, self.fields[name])

    def samples(self):
        return {"rollout": [t for ts in self.rollout_times.values() for t in ts],
                "connect": [t for ts in self.connect_times.values() for t in ts]}

    def metrics(self):
        # Pooled rates over the median repeat of each start and each pair: a
        # rollout that parks ends after a few steps, and connect takes longer
        # the farther apart its points are.
        return {
            "rollout_steps_per_s":
                math.fsum(self.rollout_steps.values()) / math.fsum(per_call(self.rollout_times)),
            "connect_per_s": len(self.connect_times) / math.fsum(per_call(self.connect_times)),
        }


class Cli:
    """The 7-command pipeline on entry-basic at h = 0.01, one interpreter per
    command, with a bare `import junction_hjb` after every other command.
    The package is not installed, so main() is called through `python -c`
    with PYTHONPATH=src.  The simulate start is drawn from --seed."""

    grid = G1

    def __init__(self, bench: Bench):
        self.bench = bench
        self.times: dict[str, list[float]] = {}
        self.work = OUT / f"cli-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.problems = baseline_problems()[:1]
        name, problem = self.problems[0]
        self.bench.attempt(f"validate {name}", validated, problem)
        field, _ = solver.solve(problem, G1, tol=TOL)
        self.expected_v = f"{field.vertex_reconstruction:.9g}"
        rng = np.random.default_rng(self.bench.seed)
        x0 = f"{int(rng.integers(1, 3))},{float(rng.uniform(0.0, G1.l_max)):.6f}"
        h = str(G1.h)
        self.commands = {
            "example": ["example", "entry-basic", "--out", "problem.txt"],
            "validate": ["validate", "problem.txt"],
            "solve": ["solve", "problem.txt", "--h", h, "--out", "solver.csv"],
            "oracle": ["oracle", "problem.txt", "--h", h, "--dt", str(ORACLE_DT),
                       "--out", "oracle.csv"],
            "compare": ["compare", "solver.csv", "oracle.csv"],
            "simulate": ["simulate", "problem.txt", "--field", "solver.csv", "--x0", x0,
                         "--horizon", str(HORIZON), "--out", "rollout.csv"],
            "residual": ["residual", "problem.txt", "--field", "solver.csv"],
        }

    def _run(self, label: str, code: str, args):
        with self.bench.span(f"cli.{label}"):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", code, *args], cwd=self.work, env=self.env,
                capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
            )
            elapsed = time.perf_counter() - start
        missed = [] if proc.returncode == 0 else [f"exit code {proc.returncode}: {proc.stderr[-300:]}"]
        if label == "solve" and f"v(O) = {self.expected_v}" not in proc.stdout.splitlines():
            missed.append(f"printed v(O) differs from the in-process {self.expected_v}")
        self.times.setdefault(label, []).append(elapsed)
        return None, missed

    def units(self):
        # An import follows every other command, and `solve` runs twice more
        # after `compare` and `residual`: cli_solve_s and import_s are single
        # commands, so they need more repeats than the pipeline's sum does.
        def command(label):
            return partial(self.bench.attempt, f"cli {label}", self._run, label,
                           CLI_MAIN, self.commands[label])

        units = []
        for k, label in enumerate(CLI_COMMANDS):
            units.append(command(label))
            if k % 2 == 0:
                units.append(partial(self.bench.attempt, "import junction_hjb", self._run,
                                     "import", "import junction_hjb", []))
            if label in ("compare", "residual"):
                units.append(command("solve"))
        return units

    def _read_outputs(self):
        field = solver.field_from_csv((self.work / "solver.csv").read_text(encoding="utf-8"))
        missed = []
        err = closed_form_error(field)
        if not err <= CLOSED_FORM_TOL:
            missed.append(f"closed-form error {err:.4g}")
        # The oracle CSV has no per-edge s = 0 rows; oracle_gap masks them.
        rows = {}
        for line in (self.work / "oracle.csv").read_text(encoding="utf-8").splitlines()[1:]:
            e, s, v = line.split(",")
            rows[(int(e), round(float(s) / G1.h))] = float(v)
        values = tuple(
            np.array([rows.get((e, k), np.nan) for k in range(G1.n_intervals + 1)])
            for e in range(1, len(field.values) + 1)
        )
        osol = oracle.OracleSolution(values, rows[(0, 0)], ORACLE_GRID, 0, 0.0, True)
        gap = oracle_gap(field.values, field.vertex_reconstruction, osol)
        if not gap <= ORACLE_TOL_BENCHMARK:
            missed.append(f"oracle gap {gap:.4g}")
        return (err, gap), missed

    def verify(self):
        self.bench.attempt("cli outputs", self._read_outputs)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def samples(self):
        return self.times

    def metrics(self):
        typical = {label: median(times) for label, times in self.times.items()}
        return {
            "cli_pipeline_s": math.fsum(typical[c] for c in CLI_COMMANDS),
            "cli_solve_s": typical["solve"],
            "import_s": typical["import"],
        }


ACTIVITIES = {"fine_solve": FineSolve, "crosscheck": Crosscheck, "rollout": Rollout, "cli": Cli}

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "ratio", "solve_s": "s",
    "closed_form_err": "abs", "problems_per_s": "1/s", "oracle_gap": "abs",
    "rollout_steps_per_s": "1/s", "connect_per_s": "1/s", "cli_pipeline_s": "s",
    "cli_solve_s": "s", "import_s": "s",
}


class Slot:
    """One activity's place in the schedule: its units, its share of the
    run, the time spent in it and the complete rounds it has done."""

    def __init__(self, activity, share: float):
        self.activity = activity
        self.share = share
        self.units = activity.units()
        self.done = 0
        self.busy = 0.0
        self.rounds = 0

    def step(self):
        start = time.perf_counter()
        self.units[self.done % len(self.units)]()
        self.busy += time.perf_counter() - start
        self.done += 1
        if self.done % len(self.units) == 0:
            self.rounds += 1


class Setup:
    """Set-up of every activity of a workload, as a schedulable unit.  Set-up
    is safe to repeat mid-run, and repeating it during the run, not only
    before, samples setup_s (and the solves it contains) across the run."""

    def __init__(self, activities):
        self.activities = activities
        self.times: list[float] = []

    def run(self):
        start = time.perf_counter()
        for activity in self.activities:
            activity.setup()
        self.times.append(time.perf_counter() - start)

    def units(self):
        return [self.run]


def run_mix(slots: list[Slot], seconds: float):
    """Run units of the slot furthest behind its share until `seconds` have
    passed and every slot has finished a round."""
    start = time.perf_counter()
    while True:
        late = time.perf_counter() - start >= seconds
        pending = [s for s in slots if s.rounds == 0] if late else slots
        if not pending:
            return
        min(pending, key=lambda s: s.busy / s.share).step()


def run_round(activity):
    for unit in activity.units():
        unit()


# ---------------------------------------------------------------------------
# Tracing from outside: wrap each layer's public functions at the name its
# callers look up, and derive the per-layer metrics from the spans.
# ---------------------------------------------------------------------------

def install_tracer(tracer: Tracer):
    def on_solve(args, result):
        tracer.count("solver.solve", "iterations", result[1].iterations)

    def on_build(args, system):
        tracer.peak("solver.build_system", "workers", system.workers)

    def on_sweep(args, result):
        field, system = args
        arrays = (system.foot_lo + system.foot_w + system.stage + system.vertex_lo
                  + system.vertex_w + system.vertex_stage)
        # The system's arrays read once, and the field read and written.
        nbytes = sum(a.nbytes for a in arrays) + 2 * sum(u.nbytes for u in field.values)
        tracer.count("solver.sweep", "bytes", nbytes)

    def on_write(args, text):
        tracer.count("solver.field_io", "bytes", len(text))

    def on_read(args, field):
        tracer.count("solver.field_io", "bytes", len(args[0]))

    def on_oracle(args, osol):
        tracer.count("oracle.oracle_solve", "iterations", osol.iterations)

    def on_simulate(args, traj):
        outside = int((traj.positions[1:] > args[2].grid.l_max).sum())
        steps = len(traj.times) - 1
        tracer.count("oracle.simulate", "steps", steps)
        tracer.count("oracle.simulate", "in_domain_steps", steps - outside)
        tracer.count("oracle.simulate", "left_domain", int(outside > 0))
        tracer.count("oracle.simulate", "switches", len(traj.switches))

    def on_evaluate_cost(args, traj):
        tracer.count("oracle.evaluate_cost", "substeps", len(traj.times) - 1)

    # solver and oracle import vertex_data by name, so it is wrapped there.
    targets = [
        (solver, "solve", "solver.solve", on_solve),
        (solver, "build_system", "solver.build_system", on_build),
        (solver, "sweep", "solver.sweep", on_sweep),
        (solver, "residual", "solver.residual", None),
        (solver, "vertex_data", "hamiltonian.vertex_data", None),
        (oracle, "vertex_data", "hamiltonian.vertex_data", None),
        (solver, "field_to_csv", "solver.field_io", on_write),
        (solver, "field_to_json", "solver.field_io", on_write),
        (solver, "field_from_csv", "solver.field_io", on_read),
        (solver, "field_from_json", "solver.field_io", on_read),
        (oracle, "oracle_solve", "oracle.oracle_solve", on_oracle),
        (oracle, "simulate", "oracle.simulate", on_simulate),
        (oracle, "evaluate_cost", "oracle.evaluate_cost", on_evaluate_cost),
        (oracle, "connect", "oracle.connect", None),
        (exprlang, "evaluate_array", "exprlang.evaluate_array", None),
        (model, "parse_problem", "model.parse_problem", None),
        (model, "validate", "model.validate", None),
    ]
    for module, attr, name, on_call in targets:
        tracer.install(module, attr, name, on_call=on_call)
    tracer.install(exprlang, "evaluate", "exprlang.evaluate", hot=True)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer_table():
    """(name, unit, better, fn(tracer, (untraced_s, traced_s)))."""
    def t_s(name):
        return lambda t, o: t.median_s(name)

    def self_s(name):
        return lambda t, o: t.median_self_s(name)

    def calls(name):
        return lambda t, o: t.calls(name)

    def total(name, key):
        return lambda t, o: t.total(name, key)

    rows = [
        ("solver.solve.s", "s", "lower", t_s("solver.solve")),
        ("solver.solve.self_s", "s", "lower", self_s("solver.solve")),
        ("solver.solve.iterations", "count", "lower", total("solver.solve", "iterations")),
        ("solver.solve.s_per_iteration", "s", "lower", lambda t, o: _ratio(
            t.total_s("solver.solve"), t.total("solver.solve", "iterations"))),
        ("solver.sweep.calls", "count", "lower", calls("solver.sweep")),
        ("solver.sweep.s", "s", "lower", t_s("solver.sweep")),
        ("solver.sweep.bytes_computed", "B", "lower", total("solver.sweep", "bytes")),
        ("solver.sweep.gb_per_s_computed", "GB/s", "higher", lambda t, o: _ratio(
            t.total("solver.sweep", "bytes") / 1e9, t.total_s("solver.sweep"))),
        ("solver.build_system.s", "s", "lower", t_s("solver.build_system")),
        ("solver.build_system.workers", "count", "lower",
         total("solver.build_system", "workers")),
        ("solver.residual.s", "s", "lower", t_s("solver.residual")),
        ("solver.field_io.s", "s", "lower", t_s("solver.field_io")),
        ("solver.field_io.bytes", "B", "lower", total("solver.field_io", "bytes")),
        ("oracle.oracle_solve.s", "s", "lower", t_s("oracle.oracle_solve")),
        ("oracle.oracle_solve.self_s", "s", "lower", self_s("oracle.oracle_solve")),
        ("oracle.oracle_solve.iterations", "count", "lower",
         total("oracle.oracle_solve", "iterations")),
        ("oracle.simulate.s", "s", "lower", t_s("oracle.simulate")),
        ("oracle.simulate.self_s", "s", "lower", self_s("oracle.simulate")),
        ("oracle.simulate.steps", "count", "lower", total("oracle.simulate", "steps")),
        ("oracle.simulate.switches", "count", "lower", total("oracle.simulate", "switches")),
        ("oracle.simulate.left_domain", "count", "lower",
         total("oracle.simulate", "left_domain")),
        ("oracle.simulate.in_domain_step_frac", "ratio", "higher", lambda t, o: _ratio(
            t.total("oracle.simulate", "in_domain_steps"), t.total("oracle.simulate", "steps"))),
        ("oracle.evaluate_cost.s", "s", "lower", t_s("oracle.evaluate_cost")),
        ("oracle.evaluate_cost.substeps", "count", "lower",
         total("oracle.evaluate_cost", "substeps")),
        ("oracle.connect.s", "s", "lower", t_s("oracle.connect")),
        ("oracle.connect.calls", "count", "lower", calls("oracle.connect")),
        ("exprlang.evaluate.calls", "count", "lower", calls("exprlang.evaluate")),
        ("exprlang.evaluate.s", "s", "lower", t_s("exprlang.evaluate")),
        ("exprlang.evaluate_array.calls", "count", "lower", calls("exprlang.evaluate_array")),
        ("exprlang.evaluate_array.s", "s", "lower", t_s("exprlang.evaluate_array")),
        ("model.parse_problem.s", "s", "lower", t_s("model.parse_problem")),
        ("model.validate.s", "s", "lower", t_s("model.validate")),
        ("model.validate.calls", "count", "lower", calls("model.validate")),
        ("hamiltonian.vertex_data.s", "s", "lower", t_s("hamiltonian.vertex_data")),
    ]
    rows += [(f"cli.{c}.s", "s", "lower", t_s(f"cli.{c}")) for c in CLI_COMMANDS + ("import",)]
    rows += [
        ("trace.overhead_s", "s", "lower", lambda t, o: o[1] - o[0]),
        ("trace.overhead_frac", "ratio", "lower", lambda t, o: (o[1] - o[0]) / o[0]),
    ]
    return rows


PER_LAYER = _per_layer_table()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def provenance() -> dict:
    try:
        # The ceiling keeps git from taking the SHA of a repository that
        # merely contains this checkout.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha or "unavailable (not a git checkout)",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "JUNCTION_HJB_THREADS": os.environ.get("JUNCTION_HJB_THREADS", "unset"),
    }


def summary(values) -> dict:
    """Sample count, median and tails of one timing series, for the facts."""
    q = statistics.quantiles(values, n=10) if len(values) > 1 else list(values) * 9
    return {"n": len(values), "p10": q[0], "median": statistics.median(values), "p90": q[8]}


def run_workload(workload: str, seed: int, seconds: float, tracer: Tracer | None):
    bench = Bench(seed, tracer)
    OUT.mkdir(exist_ok=True)
    activities = {name: ACTIVITIES[name](bench) for name, _ in MIX[workload]}
    main_activity = activities[workload]
    if tracer is not None:
        install_tracer(tracer)

    setup = Setup(list(activities.values()))
    setup.run()

    overhead = None
    if tracer is not None:
        # One round without wrappers prices the tracing.  The traced run
        # then measures set-up, one traced round of every activity and the
        # checks: the same work on every run with the same seed, so its
        # counts repeat exactly.  It takes about one round, not --seconds.
        tracer.uninstall()
        start = time.perf_counter()
        run_round(main_activity)
        untraced = time.perf_counter() - start
        install_tracer(tracer)
        start = time.perf_counter()
        run_round(main_activity)
        overhead = (untraced, time.perf_counter() - start)
        for activity in activities.values():
            if activity is not main_activity:
                run_round(activity)
        for activity in activities.values():
            activity.verify()
        tracer.uninstall()

    metrics = {}
    if tracer is None:
        slots = [Slot(activities[name], share) for name, share in MIX[workload]]
        run_mix(slots + [Slot(setup, SETUP_SHARE)], seconds)
        for activity in activities.values():
            activity.verify()
        for slot in slots:
            metrics.update(slot.activity.metrics())
        metrics["setup_s"] = median(setup.times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_frac"] = (bench.attempted - bench.failed) / bench.attempted
        bench.facts["schedule"] = {
            name: {"share": slot.share, "rounds": slot.rounds, "busy_s": slot.busy}
            for name, slot in zip(activities, slots)
        }
    if "cli" in activities:
        activities["cli"].close()

    bench.facts["timings"] = {
        f"{name}.{series}": summary(values)
        for name, activity in activities.items()
        for series, values in activity.samples().items()
        if values
    }
    bench.facts["timings"]["setup"] = summary(setup.times)
    bench.facts["solver.build_system.workers"] = {
        name: solver.build_system(p, main_activity.grid).workers
        for name, p in main_activity.problems
    }
    # Digests that prove two runs had the same inputs.
    bench.facts["input_hashes"] = {
        f"{activity_name}.{name}": problem_hash(p)
        for activity_name, activity in activities.items()
        for name, p in activity.problems
    }
    if "rollout" in activities:
        rollout = activities["rollout"]
        bench.facts["input_hashes"]["rollout.starts_and_pairs"] = digest(
            repr([(name, x0) for name, _, x0 in rollout.starts] + rollout.pairs)
        )
    if "cli" in activities:
        bench.facts["input_hashes"]["cli.commands"] = digest(repr(activities["cli"].commands))
    return bench, metrics, overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    bench, metrics, overhead = run_workload(args.workload, args.seed, args.seconds, tracer)

    if tracer is not None:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        bench.facts["trace_file"] = str(trace_path.relative_to(ROOT))
        values = {name: (fn(tracer, overhead), unit) for name, unit, _, fn in PER_LAYER}
    else:
        values = {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}

    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    bench.facts["provenance"] = provenance()
    bench.facts["workload"] = args.workload
    bench.facts["seed"] = args.seed
    print(json.dumps({"perfbench_facts": bench.facts}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
