"""Command-line interface.

Commands: validate, solve, oracle, simulate, residual, compare, example.
solve and oracle write field files in one format, as JSON when the --out
name ends in .json and as CSV otherwise (solver.field_to_json and
solver.field_to_csv); either states the grid, dt included, and the problem
digest, the CSV on its first line.  simulate, residual and compare read
them back by the same rule with the solver's readers, on the stated grid;
validate samples 101 points on [0, 4].
Exit codes: 0 success, 1 I/O or parse errors (and fields that do not fit
the problem or share no node with each other, or that were solved for
another problem, and a compare --bound that is NaN or negative), 2
validation violations on [0, l_max] or a comparison exceeding its bound, 3
non-convergence (a stable policy above the --tol test, or the fixed bound
on policy evaluations), 4 usage errors (an unknown command or flag, a
missing or malformed argument, such as an --x0 that is not edge,s).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from . import presets, solver
from .exprlang import ExprError
from .model import NetworkPoint, SpecError, load_problem, validate

__all__ = ["main", "console_main"]


def _add_grid_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--h", type=float, default=0.01, help="mesh size (default 0.01)")
    parser.add_argument(
        "--lmax", type=float, default=4.0, help="edge truncation length (default 4)"
    )
    parser.add_argument(
        "--dt", type=float, default=None, help="time step (default: equal to h)"
    )


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument(
        "--out", type=str, default=None, help="field file: JSON if it ends in .json, else CSV"
    )


def _grid(args) -> solver.GridParams:
    dt = args.dt if args.dt is not None else args.h
    return solver.GridParams(h=args.h, l_max=args.lmax, dt=dt)


def _print_report(report: solver.SolveReport):
    print(f"iterations = {report.iterations}")
    print(f"final_change = {report.final_change:.9g}")
    print(f"converged = {'true' if report.converged else 'false'}")
    print("levels = " + ", ".join(str(n) for n in report.level_iterations))


def cmd_validate(args) -> int:
    report = validate(load_problem(args.spec))
    table = {"sup_bound": report.sup_bound, "f_lipschitz": report.f_lipschitz,
             "ell_slope": report.ell_slope, "delta": report.margin}
    if args.format == "json":
        print(json.dumps({**table, "violations": list(report.violations)}, indent=2))
    else:
        for key, value in table.items():
            print(f"{key} = {value:.9g}")
        for violation in report.violations:
            print(f"violation: {violation}")
        if report.ok:
            print("no violations")
    return 0 if report.ok else 2


class _Violations(Exception):
    """validate found violations on the command's domain: exit 2."""


def _validate_on(problem, grid: solver.GridParams):
    """Validate over [0, l_max] of the grid, where the command evaluates f and ell."""
    report = validate(problem, x_max=grid.l_max)
    if not report.ok:
        raise _Violations(report.violations)


def _write_field(args, field, report):
    if args.out:
        if args.out.endswith(".json"):
            text = solver.field_to_json(field, report)
        else:
            text = solver.field_to_csv(field)
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")


def cmd_solve(args) -> int:
    problem = load_problem(args.spec)
    grid = _grid(args)
    _validate_on(problem, grid)
    field, report = solver.solve(problem, grid, tol=args.tol)
    for e, u in enumerate(field.values, start=1):
        print(f"u_{e}(O) = {u[0]:.9g}")
    print(f"v(O) = {field.vertex_reconstruction:.9g}")
    _print_report(report)
    _write_field(args, field, report)
    return 0 if report.converged else 3


def cmd_oracle(args) -> int:
    problem = load_problem(args.spec)
    grid = _grid(args)
    _validate_on(problem, grid)
    solution = oracle_mod.oracle_solve(problem, grid, tol=args.tol)
    print(f"v(O) = {solution.vertex_value:.9g}")
    print("method = policy iteration (iterations count policy evaluations)")
    print(f"iterations = {solution.iterations}")
    print(f"final_change = {solution.final_change:.9g}")
    print(f"converged = {'true' if solution.converged else 'false'}")
    field = solver.ValueField(
        solution.values, grid, solution.vertex_value, solver.problem_digest(problem)
    )
    # The MDP's vertex is a single state, so no edge has a limit at s = 0.
    field.values[:, 0] = np.nan
    report = solver.SolveReport(
        solution.iterations,
        solution.final_change,
        solution.converged,
        level_iterations=(solution.iterations,),
    )
    _write_field(args, field, report)
    return 0 if solution.converged else 3


def _load_field(path: str, problem=None) -> solver.ValueField:
    """Read a field file; with problem given, validate the problem over the
    field's domain (simulate and residual then reject a field that states
    it was solved for another problem)."""
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".json"):
        field = solver.field_from_json(text)
    else:
        field = solver.field_from_csv(text)
    if problem is not None:
        _validate_on(problem, field.grid)
    return field


def _edge_and_s(text: str) -> tuple[int, float]:
    """--x0 as (edge, s); simulate checks their range (exit 1)."""
    try:
        edge, s = text.split(",")
        return int(edge), float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected edge,s such as 1,0.5, got {text!r}") from None


def cmd_simulate(args) -> int:
    problem = load_problem(args.spec)
    field = _load_field(args.field, problem)
    x0 = NetworkPoint(*args.x0)
    traj = oracle_mod.simulate(problem, x0, field, horizon=args.horizon)
    if x0.s == 0.0:
        value = field.vertex_reconstruction
    else:
        value = float(np.interp(x0.s, field.grid.nodes, field.values[x0.edge - 1]))
    print(f"realized_cost = {traj.cost:.9g}")
    print(f"value_gap = {traj.cost - value:.9g}")
    print(f"tail_bound = {traj.tail_bound:.9g}")
    print(f"switches = {len(traj.switches)}")
    print(f"left_domain = {'true' if traj.left_domain else 'false'}")
    if args.out:
        Path(args.out).write_text(
            oracle_mod.trajectory_to_csv(traj), encoding="utf-8"
        )
        sidecar = args.out + ".switches.csv"
        Path(sidecar).write_text(
            oracle_mod.switches_to_csv(traj), encoding="utf-8"
        )
        print(f"wrote {args.out} and {sidecar}")
    return 0


def cmd_residual(args) -> int:
    problem = load_problem(args.spec)
    field = _load_field(args.field, problem)
    system = solver.build_system(problem, field.grid)
    _, max_res = solver.residual(field, system)
    print(f"max_residual = {max_res:.9g}")
    return 0


def _nodes(field: solver.ValueField) -> dict[tuple[int, str], float]:
    """The field's values keyed by (edge, s to 9 digits), NaN nodes left
    out; edge 0 holds v(O)."""
    s = [format(x, ".9g") for x in field.grid.nodes.tolist()]
    table = {
        (e, k): v
        for e, u in enumerate(field.values, start=1)
        for k, v in zip(s, u.tolist())
        if not math.isnan(v)
    }
    if field.vertex_reconstruction is not None:
        table[(0, "0")] = field.vertex_reconstruction
    return table


def cmd_compare(args) -> int:
    if args.bound is not None and not args.bound >= 0.0:
        raise ValueError(f"--bound must be a non-negative number, got {args.bound}")
    table_a = _nodes(_load_field(args.field_a))
    table_b = _nodes(_load_field(args.field_b))
    common = sorted(set(table_a) & set(table_b), key=lambda k: (k[0], float(k[1])))
    if not common:
        print("error: the fields share no nodes", file=sys.stderr)
        return 1
    only_a = len(table_a) - len(common)
    only_b = len(table_b) - len(common)
    per_edge: dict[int, float] = {}
    sup = 0.0
    for edge, s in common:
        diff = abs(table_a[(edge, s)] - table_b[(edge, s)])
        sup = max(sup, diff)
        per_edge[edge] = max(per_edge.get(edge, 0.0), diff)
    for edge in sorted(per_edge):
        label = "vertex" if edge == 0 else f"edge {edge}"
        print(f"max_diff[{label}] = {per_edge[edge]:.9g}")
    print(f"sup_diff = {sup:.9g}")
    print(f"common_nodes = {len(common)} (only_a = {only_a}, only_b = {only_b})")
    if args.bound is not None and sup > args.bound:
        print(f"sup_diff exceeds bound {args.bound:.9g}", file=sys.stderr)
        return 2
    return 0


def cmd_example(args) -> int:
    text = presets.builtin_spec(args.name)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 4, not argparse's 2; subcommand parsers share the
    class.  A negative number in exponent form, such as -1e-9, is a value,
    not a flag, as -0.5 is."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="junction-hjb",
        description="Discounted optimal control on a junction with entry or "
        "exit costs: validate problem files, solve the Hamilton-Jacobi "
        "system, cross-check against a brute-force oracle, and simulate "
        "greedy trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the standing hypotheses of a problem file")
    p.add_argument("spec")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve the Hamilton-Jacobi system")
    p.add_argument("spec")
    _add_grid_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "oracle", help="solve the brute-force snapped MDP by policy iteration"
    )
    p.add_argument("spec")
    _add_grid_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="greedy feedback rollout of a solved field")
    p.add_argument("spec")
    p.add_argument("--field", required=True, help="field file from solve")
    p.add_argument("--x0", required=True, type=_edge_and_s, help="start point as edge,s")
    p.add_argument("--horizon", type=float, default=20.0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("residual", help="fixed-point residual of a field")
    p.add_argument("spec")
    p.add_argument("--field", required=True)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("compare", help="sup-norm difference of two field files")
    p.add_argument("field_a")
    p.add_argument("field_b")
    p.add_argument("--bound", type=float, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("example", help="emit a built-in problem file")
    p.add_argument("name", choices=presets.builtin_names())
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Violations as exc:
        for violation in exc.args[0]:
            print(f"violation: {violation}", file=sys.stderr)
        return 2
    except (SpecError, ExprError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
