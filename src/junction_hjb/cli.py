"""Command-line interface.

Commands: validate, solve, oracle, simulate, residual, compare, example.
solve and oracle write field files in one format (solver.field_to_csv and
solver.field_to_json); simulate, residual and compare read them back with
the solver's readers.
Exit codes: 0 success, 1 I/O or parse errors (and fields that do not fit
the problem or share no node with each other, or that were solved for
another problem), 2 validation violations or a comparison exceeding its
bound, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import math
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
    parser.add_argument("--max-iters", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _grid(args) -> solver.GridParams:
    dt = args.dt if args.dt is not None else args.h
    return solver.GridParams(h=args.h, l_max=args.lmax, dt=dt)


def _print_report(report: solver.SolveReport):
    print(f"iterations = {report.iterations}")
    print(f"final_change = {report.final_change:.9g}")
    print(f"converged = {'true' if report.converged else 'false'}")
    print("levels = " + ", ".join(str(n) for n in report.level_iterations))
    if report.mixed_vertex_check is not None:
        print(
            "mixed_vertex_check = "
            f"{'true' if report.mixed_vertex_check else 'false'}"
        )


def cmd_validate(args) -> int:
    problem = load_problem(args.spec)
    report = validate(problem, samples=args.samples)
    if args.format == "json":
        hulls = [
            [[f, ell] for f, ell in hull] for hull in report.hull_vertices
        ]
        import json

        print(
            json.dumps(
                {
                    "sup_bound": report.sup_bound,
                    "f_lipschitz": report.f_lipschitz,
                    "ell_slope": report.ell_slope,
                    "delta": report.margin,
                    "hull_vertices": hulls,
                    "violations": list(report.violations),
                },
                indent=2,
            )
        )
    else:
        print(f"sup_bound = {report.sup_bound:.9g}")
        print(f"f_lipschitz = {report.f_lipschitz:.9g}")
        print(f"ell_slope = {report.ell_slope:.9g}")
        print(f"delta = {report.margin:.9g}")
        if report.violations:
            for violation in report.violations:
                print(f"violation: {violation}")
        else:
            print("no violations")
    return 0 if report.ok else 2


def _check_validated(problem) -> int | None:
    report = validate(problem)
    if not report.ok:
        for violation in report.violations:
            print(f"violation: {violation}", file=sys.stderr)
        return 2
    return None


def _write_field(args, field, report, grid_line=True):
    if args.out:
        if args.format == "csv":
            text = solver.field_to_csv(field, grid_line=grid_line)
        else:
            text = solver.field_to_json(field, report)
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")


def cmd_solve(args) -> int:
    problem = load_problem(args.spec)
    bad = _check_validated(problem)
    if bad is not None:
        return bad
    grid = _grid(args)
    field, report = solver.solve(
        problem, grid, tol=args.tol, max_iters=args.max_iters
    )
    for e, u in enumerate(field.values, start=1):
        print(f"u_{e}(O) = {u[0]:.9g}")
    print(f"v(O) = {field.vertex_reconstruction:.9g}")
    _print_report(report)
    _write_field(args, field, report)
    return 0 if report.converged else 3


def cmd_oracle(args) -> int:
    problem = load_problem(args.spec)
    bad = _check_validated(problem)
    if bad is not None:
        return bad
    grid = _grid(args)
    solution = oracle_mod.oracle_solve(
        problem, grid, tol=args.tol, max_iters=args.max_iters
    )
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
    # perfbench/run.py reads every line after the CSV header as a row of
    # three fields, so the oracle CSV has no grid line until the benchmark
    # is revised (ROADMAP item 7).
    _write_field(args, field, report, grid_line=False)
    return 0 if solution.converged else 3


def _load_field(path: str, problem=None) -> solver.ValueField:
    """Read a field file; with problem given, reject a field that states it
    was solved for another problem."""
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".json"):
        field = solver.field_from_json(text)
    else:
        field = solver.field_from_csv(text)
    if problem is not None and field.digest is not None:
        digest = solver.problem_digest(problem)
        if field.digest != digest:
            raise ValueError(
                f"{path} was solved for another problem "
                f"(digest {field.digest}, this problem's is {digest})"
            )
    return field


def cmd_simulate(args) -> int:
    problem = load_problem(args.spec)
    bad = _check_validated(problem)
    if bad is not None:
        return bad
    field = _load_field(args.field, problem)
    edge_text, _, s_text = args.x0.partition(",")
    x0 = NetworkPoint(int(edge_text), float(s_text))
    dt = args.dt if args.dt is not None else field.grid.h
    traj = oracle_mod.simulate(problem, x0, field, horizon=args.horizon, dt=dt)
    print(f"realized_cost = {traj.cost:.9g}")
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
    bad = _check_validated(problem)
    if bad is not None:
        return bad
    field = _load_field(args.field, problem)
    grid = field.grid
    if args.dt is not None:
        grid = solver.GridParams(h=grid.h, l_max=grid.l_max, dt=args.dt)
    system = solver.build_system(problem, grid)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="junction-hjb",
        description="Discounted optimal control on a junction with entry or "
        "exit costs: validate problem files, solve the Hamilton-Jacobi "
        "system, cross-check against a brute-force oracle, and simulate "
        "greedy trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the standing hypotheses of a problem file")
    p.add_argument("spec")
    p.add_argument("--samples", type=int, default=101)
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
    p.add_argument("--x0", required=True, help="start point as edge,s")
    p.add_argument("--horizon", type=float, default=20.0)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("residual", help="fixed-point residual of a field")
    p.add_argument("spec")
    p.add_argument("--field", required=True)
    p.add_argument("--dt", type=float, default=None)
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
    except (SpecError, ExprError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
