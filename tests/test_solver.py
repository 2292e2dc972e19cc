import ast
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import junction_hjb as jh
from conftest import fnum, make_random_problem
from junction_hjb.exprlang import BinOp, parse
from junction_hjb.hamiltonian import vertex_data
from junction_hjb.model import CostRegime, Problem, _sample_edges, parse_problem
from junction_hjb.solver import (
    DENSE_UNKNOWNS,
    GridParams,
    Policy,
    ValueField,
    _argmin,
    _candidates,
    _cyclic_reduction,
    _evaluate,
    build_system,
    constant_field,
    field_from_csv,
    field_from_json,
    field_to_csv,
    field_to_json,
    policy,
    problem_digest,
    residual,
    solve,
    sweep,
)


def test_grid_params_invariants():
    with pytest.raises(ValueError):
        GridParams(h=0.0, l_max=1.0, dt=0.1)
    with pytest.raises(ValueError):
        GridParams(h=0.1, l_max=0.5, dt=0.1)  # l_max < 10 h
    with pytest.raises(ValueError):
        GridParams(h=0.3, l_max=4.0, dt=0.1)  # not an integer multiple
    # A field file can state any float; a rollout or a sweep steps with it.
    for bad in (math.nan, math.inf):
        for grid in ((bad, 4.0, 0.01), (0.01, bad, 0.01), (0.01, 4.0, bad)):
            with pytest.raises(ValueError, match="positive and finite"):
                GridParams(*grid)
    grid = GridParams(h=0.01, l_max=4.0, dt=0.01)
    assert grid.n_intervals == 400


def test_build_system_sizes(benchmark_problem, fine_grid):
    system = build_system(benchmark_problem, fine_grid)
    assert system.n_nodes == 401
    assert system.stage[0].shape == (401, 3)


def test_foot_weights_exact_node_and_clipping(benchmark_problem, fine_grid):
    system = build_system(benchmark_problem, fine_grid)

    def interp_weights(edge, node, control):
        # Weight each grid node receives when interpolating this foot point.
        lo = int(system.foot_lo[edge][node, control])
        w = float(system.foot_w[edge][node, control])
        return {lo: 1.0 - w, lo + 1: w}

    # s = 0, a = 1 (last control): foot 0.01 reads node 1 with full weight.
    weights = interp_weights(0, 0, 2)
    assert weights.get(1, 0.0) == pytest.approx(1.0)
    # s = 0, a = -1: clipped to the vertex, full weight on node 0.
    weights = interp_weights(0, 0, 0)
    assert weights.get(0, 0.0) == pytest.approx(1.0)


def test_dt_bound_rejected():
    p = parse_problem(
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = 100 * a\nell = 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n"
    )
    with pytest.raises(ValueError, match="dt too large"):
        build_system(p, GridParams(h=0.01, l_max=4.0, dt=0.05))


def test_sweep_zero_field_hand_values(benchmark_problem, fine_grid):
    system = build_system(benchmark_problem, fine_grid)
    zero = constant_field(system, 0.0)
    new, change = sweep(zero, system)
    dt = fine_grid.dt
    # Interior of edge 2: best control a = 1 has stage cost dt*(1-a) = 0.
    assert np.allclose(new.values[1][1:-1], 0.0)
    # Vertex of edge 1: switch = c_2 + 0, stall = 1, continue = dt -> dt wins.
    assert new.values[0][0] == pytest.approx(dt, abs=1e-12)
    # Stall branch value is exactly -H_tangential/lambda = 1.
    assert -system.vertex.tangential / benchmark_problem.lam == pytest.approx(1.0)
    # Edge 1 moves from 0 to dt everywhere; edge 2 stays at 0.
    assert change == pytest.approx(dt)


def test_residual_zero_field_deep_node(benchmark_problem, fine_grid):
    system = build_system(benchmark_problem, fine_grid)
    zero = constant_field(system, 0.0)
    per_edge, _ = residual(zero, system)
    k = round(2.0 / fine_grid.h)  # deep interior of edge 1
    assert per_edge[0][k] == pytest.approx(fine_grid.dt)


def test_residual_at_fixed_point(benchmark_problem, fine_grid, benchmark_solution):
    field, report = benchmark_solution
    system = build_system(benchmark_problem, fine_grid)
    _, max_res = residual(field, system)
    assert max_res <= 2e-9


def test_solve_benchmark_closed_form(benchmark_problem, fine_grid, benchmark_solution):
    field, report = benchmark_solution
    s = fine_grid.nodes
    mask = s <= 3.0
    exact = 1 - 0.5 * np.exp(-s)
    assert np.abs(field.values[0] - exact)[mask].max() <= 0.02
    assert np.abs(field.values[1])[mask].max() <= 0.02
    assert field.vertex_reconstruction == pytest.approx(0.5, abs=0.02)


def test_solve_expensive_entry_cost(fine_grid):
    p = jh.builtin_problem("entry-expensive")
    field, report = solve(p, fine_grid)
    s = fine_grid.nodes
    assert np.abs(field.values[0] - 1.0)[s <= 3.0].max() <= 0.02
    assert field.vertex_reconstruction == pytest.approx(1.0, abs=0.02)


def test_zero_running_cost_gives_zero_field():
    p = parse_problem(
        "lambda = 1\nregime = entry\ncosts = 2, 3\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 0\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 0\n"
    )
    grid = GridParams(h=0.05, l_max=2.0, dt=0.05)
    field, report = solve(p, grid)
    assert report.converged
    for u in field.values:
        assert np.abs(u).max() <= 1e-8
    assert abs(field.vertex_reconstruction) <= 1e-8


def test_contraction_factor(benchmark_problem, fine_grid):
    system = build_system(benchmark_problem, fine_grid)
    beta = math.exp(-benchmark_problem.lam * fine_grid.dt)
    rng = np.random.default_rng(123)
    for _ in range(25):
        scale = rng.uniform(0.5, 10)
        u = ValueField(
            tuple(rng.uniform(-scale, scale, system.n_nodes) for _ in range(2)),
            fine_grid,
        )
        w = ValueField(
            tuple(rng.uniform(-scale, scale, system.n_nodes) for _ in range(2)),
            fine_grid,
        )
        su, _ = sweep(u, system)
        sw, _ = sweep(w, system)
        assert su.sup_distance(sw) <= beta * u.sup_distance(w) + 1e-12


def test_monotonicity(benchmark_problem, fine_grid):
    system = build_system(benchmark_problem, fine_grid)
    rng = np.random.default_rng(321)
    for _ in range(25):
        u = ValueField(
            tuple(rng.uniform(-2, 2, system.n_nodes) for _ in range(2)), fine_grid
        )
        w = ValueField(
            tuple(v + rng.uniform(0, 1, system.n_nodes) for v in u.values), fine_grid
        )
        su, _ = sweep(u, system)
        sw, _ = sweep(w, system)
        for a, b in zip(su.values, sw.values):
            assert (b >= a - 1e-12).all()


def test_two_sided_initialization_agreement(benchmark_problem):
    # 399 intervals is odd, so init is carried onto a truncated coarsest grid.
    for l_max in (4.0, 3.99):
        grid = GridParams(h=0.01, l_max=l_max, dt=0.01)
        system = build_system(benchmark_problem, grid)
        bound = system.value_bound
        lo, lo_report = solve(benchmark_problem, grid, init=constant_field(system, -bound))
        hi, hi_report = solve(benchmark_problem, grid, init=constant_field(system, +bound))
        assert lo_report.converged and hi_report.converged
        assert len(lo_report.level_iterations) > 1
        assert lo.sup_distance(hi) <= 1e-8


def test_cost_monotonicity_single_instance(benchmark_problem, fine_grid):
    base, _ = solve(benchmark_problem, fine_grid)
    doubled = Problem(
        benchmark_problem.junction,
        benchmark_problem.edges,
        benchmark_problem.lam,
        CostRegime.entry((10.0, 1.0)),
    )
    up, _ = solve(doubled, fine_grid)
    for a, b in zip(base.values, up.values):
        assert (b >= a - 1e-8).all()


# The comparison principle makes the value monotone in every datum the
# cost functional is monotone in, and the scheme keeps that: its update is
# monotone in the stage costs and the branch charges.  Criterion 7 checks
# entry costs; these check the running cost and exit costs, on a coarse
# grid.
COARSE = GridParams(h=0.05, l_max=2.0, dt=0.05)


def _does_not_fall(low: ValueField, high: ValueField, slack: float = 1e-8):
    assert (high.values >= low.values - slack).all()
    assert high.vertex_reconstruction >= low.vertex_reconstruction - slack


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    edge=st.integers(1, 3),
    bump=st.sampled_from(["0.3", "0.5 * x", "a^2", "0.2 * (1 + sin(3 * x))"]),
    kind=st.sampled_from(["entry", "exit"]),
)
@example(seed=2, edge=1, bump="0.3", kind="entry")  # raises every node by more than 0.02
def test_field_does_not_fall_when_ell_rises_on_one_edge(seed, edge, bump, kind):
    base = make_random_problem(np.random.default_rng(seed))
    problem = Problem(base.junction, base.edges, base.lam, CostRegime(kind, base.regime.costs))
    edges = list(problem.edges)
    spec = edges[edge - 1]
    edges[edge - 1] = replace(spec, running_cost=BinOp("+", spec.running_cost, parse(bump)))
    raised = replace(problem, edges=tuple(edges))
    low, low_report = solve(problem, COARSE)
    high, high_report = solve(raised, COARSE)
    assert low_report.converged and high_report.converged
    _does_not_fall(low, high)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    edge=st.integers(1, 3),
    rise=st.sampled_from([0.05, 0.5, 2.0]),
)
@example(seed=0, edge=3, rise=0.5)  # edge 3 leaves through O: the field rises by 0.5
def test_field_does_not_fall_when_an_exit_cost_rises(seed, edge, rise):
    base = make_random_problem(np.random.default_rng(seed))
    problem = Problem(base.junction, base.edges, base.lam, CostRegime.exit(base.regime.costs))
    costs = list(problem.regime.costs)
    costs[edge - 1] += rise
    raised = replace(problem, regime=CostRegime.exit(costs))
    low, low_report = solve(problem, COARSE)
    high, high_report = solve(raised, COARSE)
    assert low_report.converged and high_report.converged
    _does_not_fall(low, high)


def test_sandwich_and_stall_bounds(benchmark_problem, fine_grid, benchmark_solution):
    field, _ = benchmark_solution
    limits = [float(u[0]) for u in field.values]
    costs = benchmark_problem.regime.costs
    recon = field.vertex_reconstruction
    assert max(limits) <= recon + 1e-8
    assert recon <= min(l + c for l, c in zip(limits, costs)) + 1e-8
    stall = -jh.vertex_data(benchmark_problem).tangential / benchmark_problem.lam
    assert recon <= stall + 1e-8


def _two_edges(kind: str, costs: str, ell_1: str, ell_2: str) -> Problem:
    return parse_problem(
        f"lambda = 1\nregime = {kind}\ncosts = {costs}\n"
        f"[edge]\ncontrols = -1, 0, 1\nf = a\nell = {ell_1}\n"
        f"[edge]\ncontrols = -1, 0, 1\nf = a\nell = {ell_2}\n"
    )


def _shared_component_holds(problem, limits, slack):
    """The shared-component inequality of the vertex limits: the zero-cost
    edges' shared value dominates every positive-cost limit with entry
    costs and is dominated by them with exit costs (a mirrored
    construction), to within slack."""
    zero = np.asarray(problem.regime.costs) == 0.0
    shared = limits[zero].max()
    if problem.regime.kind == "entry":
        return bool((shared >= limits[~zero] - slack).all())
    return bool((shared <= limits[~zero] + slack).all())


@pytest.mark.parametrize(
    "problem",
    [
        jh.builtin_problem("entry-mixed"),
        jh.builtin_problem("entry-free"),
        jh.builtin_problem("exit-basic"),
        # Strict inequalities, which a check in the wrong direction fails:
        # shared limit 1 above the positive-cost limit 0, and 0 below 0.5.
        _two_edges("entry", "0, 10", "1", "1 - a"),
        _two_edges("exit", "0, 0.5", "1 - a", "1"),
    ],
    ids=["entry-mixed", "entry-free", "exit-basic", "entry-strict", "exit-strict"],
)
def test_mixed_vertex_check(problem, fine_grid):
    # The solved vertex limits meet the shared-component inequality (the
    # reversed one for exit costs) to within 10*tol.
    tol = 1e-9
    field, report = solve(problem, fine_grid, tol=tol)
    assert report.converged
    assert _shared_component_holds(problem, field.values[:, 0], 10 * tol)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["entry", "exit"]),
    zero=st.lists(st.booleans(), min_size=3, max_size=3).filter(any),
    dt_ratio=st.sampled_from([1.0, 2.0, 0.37]),
    ties=st.booleans(),
)
def test_sweep_keeps_zero_cost_limits_shared(seed, kind, zero, dt_ratio, ties):
    # One sweep of any field gives every zero-cost edge the same vertex
    # limit, which dominates every other limit with entry costs and is
    # dominated by them with exit costs, exactly: so a solved field meets
    # the shared-component inequality by construction.
    rng = np.random.default_rng(seed)
    base = make_random_problem(rng)
    costs = tuple(0.0 if z else c for z, c in zip(zero, base.regime.costs))
    problem = Problem(base.junction, base.edges, base.lam, CostRegime(kind, costs))
    grid = GridParams(h=0.05, l_max=2.0, dt=0.05 * dt_ratio)
    system = build_system(problem, grid)
    shape = (problem.n_edges, system.n_nodes)
    values = rng.integers(0, 3, shape) if ties else rng.uniform(-2, 2, shape)
    new, _ = sweep(ValueField(values.astype(float), grid), system)
    limits = new.values[:, 0]
    shared = limits[np.asarray(zero)]
    assert (shared == shared[0]).all()
    assert _shared_component_holds(problem, limits, 0.0)


def test_mixed_all_zero_costs_identical_vertex_values(fine_grid):
    p = jh.builtin_problem("entry-free")
    field, _ = solve(p, fine_grid)
    limits = [float(u[0]) for u in field.values]
    assert max(limits) - min(limits) <= 1e-8


def test_mixed_single_zero_cost_structure(fine_grid):
    p = jh.builtin_problem("entry-mixed")  # c = (10, 0)
    field, _ = solve(p, fine_grid)
    s = fine_grid.nodes
    exact = 1 - np.exp(-s)
    assert np.abs(field.values[0] - exact)[s <= 3.0].max() <= 0.02
    assert abs(field.values[1][0]) <= 1e-8


def test_mixed_zero_and_positive_sets_swap_roles(fine_grid):
    # costs (0, 10): edge 1 is the free component, edge 2 is barred.
    p = parse_problem(
        "lambda = 1\nregime = entry\ncosts = 0, 10\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1 - a\n"
    )
    field, _ = solve(p, fine_grid)
    # Edge 2 runs outward for free; entering edge 1 is free but it costs 1
    # per unit time there, so parking/continuing on edge 1 is worth ~1.
    assert field.values[1][0] == pytest.approx(0.0, abs=1e-8)
    assert field.values[0][0] == pytest.approx(1.0, abs=0.01)
    assert field.vertex_reconstruction == pytest.approx(1.0, abs=0.01)


def test_exit_regime_zero_exit_is_free(fine_grid):
    p = jh.builtin_problem("exit-basic")  # d = (0, 0.5)
    field, _ = solve(p, fine_grid)
    s = fine_grid.nodes
    exact = 1 - np.exp(-s)
    assert np.abs(field.values[0] - exact)[s <= 3.0].max() <= 0.02
    assert abs(field.vertex_reconstruction) <= 1e-8
    stall = -jh.vertex_data(p).tangential / p.lam
    assert field.vertex_reconstruction <= stall + 1e-8


def test_exit_regime_positive_costs():
    p = parse_problem(
        "lambda = 1\nregime = exit\ncosts = 0.3, 0.5\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1 - a\n"
    )
    grid = GridParams(h=0.02, l_max=2.0, dt=0.02)
    field, report = solve(p, grid)
    assert report.converged
    # Leaving edge 1 costs 0.3, then edge 2 runs free: u_1(O) ~ 0.3.
    assert field.values[0][0] == pytest.approx(0.3, abs=0.02)
    limits = [float(u[0]) for u in field.values]
    recon = field.vertex_reconstruction
    assert recon == pytest.approx(
        min(min(limits), -jh.vertex_data(p).tangential / p.lam), abs=1e-12
    )
    # Exit-regime sandwich: max_i(u_i(O) - d_i) <= v(O) <= min_i u_i(O).
    costs = p.regime.costs
    assert max(v - d for v, d in zip(limits, costs)) <= recon + 1e-8
    assert recon <= min(limits) + 1e-8


def test_value_bound_enforced(benchmark_problem, fine_grid, benchmark_solution):
    field, _ = benchmark_solution
    system = build_system(benchmark_problem, fine_grid)
    for u in field.values:
        assert np.abs(u).max() <= system.value_bound + 1e-6


def test_csv_round_trip(benchmark_problem, benchmark_solution, fine_grid):
    field, report = benchmark_solution
    text = field_to_csv(field)
    assert text.splitlines()[0] == (
        "# edge,s,value h=0.01 l_max=4.0 dt=0.01 "
        f"problem={problem_digest(benchmark_problem)}"
    )
    assert text == field_to_csv(field)  # deterministic
    back = field_from_csv(text)
    assert back.grid == fine_grid
    for a, b in zip(field.values, back.values):
        assert np.array_equal(a, b)  # repr floats round-trip exactly
    assert back.vertex_reconstruction == field.vertex_reconstruction
    assert back.digest == field.digest == problem_digest(benchmark_problem)


@pytest.mark.parametrize("dt", [0.005, 0.02])
def test_csv_keeps_dt(benchmark_problem, dt):
    grid = GridParams(h=0.01, l_max=4.0, dt=dt)
    field, _ = solve(benchmark_problem, grid)
    back = field_from_csv(field_to_csv(field))
    assert back.grid == grid
    system = build_system(benchmark_problem, grid)
    assert residual(back, system)[1] == residual(field, system)[1]


def test_csv_without_its_first_line_is_refused(benchmark_solution):
    # The grid, dt included, is read from the first line only: no file gets
    # a grid guessed from its rows.
    field, _ = benchmark_solution
    header, *rows = field_to_csv(field).splitlines(keepends=True)
    body = "".join(rows)
    for text in (
        body,
        "edge,s,value\n" + body,
        "edge,s,value\n" + body + header.replace("# edge,s,value", "# grid"),
        body + header,
        header.replace(" dt=0.01", "") + body,
        "",
    ):
        with pytest.raises(ValueError, match="first line"):
            field_from_csv(text)


def test_csv_vertex_row_is_one_row_at_s_0(benchmark_solution):
    field, _ = benchmark_solution
    *rows, vertex = field_to_csv(field).splitlines(keepends=True)
    assert vertex == "0,0,0.5\n"
    body = "".join(rows)
    assert field_from_csv(body).vertex_reconstruction is None
    assert field_from_csv(body + vertex).vertex_reconstruction == 0.5
    for text in (body + vertex + "0,0,123.0\n", body + "0,2.5,7.0\n",
                 body + vertex + "0,2.5,7.0\n"):
        with pytest.raises(ValueError, match=r"v\(O\) takes at most one row"):
            field_from_csv(text)


def test_json_round_trip_exact(benchmark_solution):
    field, report = benchmark_solution
    text = field_to_json(field, report)
    assert text == field_to_json(field, report)
    back = field_from_json(text)
    for a, b in zip(field.values, back.values):
        assert (a == b).all()  # repr floats round-trip exactly
    assert back.vertex_reconstruction == field.vertex_reconstruction
    assert back.digest == field.digest


@pytest.mark.parametrize("edit", ["drop_last_node", "drop_one_value", "longer_grid"])
def test_json_node_count_must_fit_grid(benchmark_solution, edit):
    import json

    obj = json.loads(field_to_json(benchmark_solution[0]))
    edge = obj["edges"][1]
    if edit == "drop_last_node":
        edge["s"].pop()
        edge["values"].pop()
    elif edit == "drop_one_value":
        edge["values"].pop()
    else:
        obj["grid"]["l_max"] = 5.0
    with pytest.raises(ValueError, match="do not fit"):
        field_from_json(json.dumps(obj))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_edges=st.integers(1, 4),
    n=st.integers(10, 60),
    h=st.floats(1e-3, 1.0),
    dt_ratio=st.sampled_from([1.0, 0.5, 2.0, 3.0, 0.37, 2.6]),
    with_vertex=st.booleans(),
)
@example(seed=0, n_edges=2, n=400, h=0.01, dt_ratio=2.0, with_vertex=True)
def test_field_files_round_trip(seed, n_edges, n, h, dt_ratio, with_vertex):
    rng = np.random.default_rng(seed)
    grid = GridParams(h=h, l_max=n * h, dt=dt_ratio * h)
    values = tuple(
        rng.standard_normal(n + 1) * 10.0 ** rng.uniform(-8, 8, n + 1)
        for _ in range(n_edges)
    )
    vertex = float(rng.uniform(-2, 2)) if with_vertex else None
    field = ValueField(values, grid, vertex)

    back = field_from_json(field_to_json(field))
    assert back.grid == grid
    assert all(np.array_equal(a, b) for a, b in zip(back.values, values))
    assert back.vertex_reconstruction == vertex

    back = field_from_csv(field_to_csv(field))
    assert back.grid == grid
    assert all(np.array_equal(a, b) for a, b in zip(back.values, values))
    assert back.vertex_reconstruction == vertex


def test_value_field_rows_must_have_equal_length(fine_grid):
    with pytest.raises(ValueError):
        ValueField((np.zeros(401), np.zeros(400)), fine_grid)
    field = ValueField((np.zeros(401), np.ones(401)), fine_grid)
    assert field.values.shape == (2, 401)


def test_value_field_refuses_values_off_its_grid():
    # The field files and every reader index a row by the grid's nodes.
    grid = GridParams(h=0.02, l_max=4.0, dt=0.02)
    for values in (np.zeros((2, 401)), np.zeros((2, 200)), np.zeros(201), np.zeros((2, 201, 1))):
        with pytest.raises(ValueError, match="nodes"):
            ValueField(values, grid)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(10, 60),
    h=st.floats(0.005, 0.1),
    dt_ratio=st.floats(0.25, 1.0),
    changed=st.sampled_from(["h", "dt"]),
    factor=st.floats(0.5, 2.0),
)
@example(n=400, h=0.01, dt_ratio=1.0, changed="dt", factor=2.0)
def test_a_field_on_another_grid_of_as_many_nodes_is_refused(
    benchmark_problem, n, h, dt_ratio, changed, factor
):
    # Both grids are admissible for entry-basic (dt * sup <= 2h <= l_max/4),
    # so only the fit check can refuse the field.  Without it, the example's
    # field, solved at h = dt = 0.01, has residual 0.00507 read at dt = 0.02,
    # a number of neither grid.
    grid = GridParams(h=h, l_max=n * h, dt=dt_ratio * h)
    if changed == "h":
        other = GridParams(h=h * factor, l_max=n * h * factor, dt=grid.dt)
    else:
        other = replace(grid, dt=grid.dt * factor)
    assume(other != grid and other.n_intervals == n)
    field, _ = solve(benchmark_problem, grid)
    system = build_system(benchmark_problem, other)
    for call in (residual, sweep, policy):
        with pytest.raises(ValueError, match="does not fit"):
            call(field, system)
    with pytest.raises(ValueError, match="does not fit"):
        solve(benchmark_problem, other, init=field)


# The per-edge operator that the stacked arrays replaced, kept as a
# reference: per-edge feet, weights and stage costs, and per edge a list of
# vertex branches (switch to each other edge j, park, continue into the own
# edge) with their constants.

def _reference_system(problem, grid, system):
    """Per-edge data of the update, built edge by edge as before stacking;
    system supplies only the foot clipping and the parking value."""
    s = grid.nodes
    table = _sample_edges(problem, s)
    sampled = [(table.f[e][:, real], table.ell[e][:, real]) for e, real in enumerate(table.real)]
    feet = [system._foot_weights(s[:, None] + grid.dt * f) for f, _ in sampled]
    stage = [grid.dt * ell for _, ell in sampled]
    pairs = [
        np.asarray([(a.velocity, a.cost) for a in actions]).reshape(-1, 2)
        for actions in vertex_data(problem).edges
    ]
    vertex_feet = [system._foot_weights(grid.dt * p[:, 0]) for p in pairs]
    vertex_stage = [grid.dt * p[:, 1] for p in pairs]
    costs = problem.regime.costs
    entry = problem.regime.kind == "entry"
    const = []
    for e in range(problem.n_edges):
        c = []
        for j in range(problem.n_edges):
            if j != e:
                c += [costs[j] if entry else costs[e]] * len(pairs[j])
        stall = -system.vertex.tangential / problem.lam
        park = stall if entry else costs[e] + stall
        const.append(np.asarray(c + [park] + [0.0] * len(pairs[e])))
    return feet, stage, vertex_feet, vertex_stage, const


def _reference_candidates(field, system, ref):
    feet, stage, vertex_feet, vertex_stage, const = ref
    n_edges = system.problem.n_edges
    u = field.values

    def one_step(values, lo, w, stage):
        return stage + system.beta * (values[lo] * (1.0 - w) + values[lo + 1] * w)

    interiors = [one_step(u[e], *feet[e], stage[e]) for e in range(n_edges)]
    steps = [one_step(u[j], *vertex_feet[j], vertex_stage[j]) for j in range(n_edges)]
    park = np.zeros(1)
    vertex = []
    for e in range(n_edges):
        pieces = [steps[j] for j in range(n_edges) if j != e] + [park, steps[e]]
        vertex.append(const[e] + np.concatenate(pieces))
    return interiors, vertex


def _reference_argmin(candidates, current):
    best = candidates.argmin(axis=-1)
    if current is None:
        return best
    kept = np.take_along_axis(candidates, current[..., None], axis=-1)[..., 0]
    low = np.take_along_axis(candidates, best[..., None], axis=-1)[..., 0]
    return np.where(kept <= low, current, best)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    shape=st.lists(st.integers(1, 5), min_size=2, max_size=3).map(tuple),
    seed=st.integers(0, 2**32 - 1),
    levels=st.integers(1, 3),
    with_current=st.booleans(),
)
def test_argmin_matches_numpy_argmin(shape, seed, levels, with_current):
    # Candidates drawn from a few levels tie exactly and often, inf included:
    # the lowest index wins, and a current action is kept unless another is
    # strictly better.
    rng = np.random.default_rng(seed)
    candidates = np.array([-1.5, 0.0, np.inf])[rng.integers(0, levels, shape)]
    if seed % 2:  # a layout other than C order
        candidates = np.asfortranarray(candidates)
    current = rng.integers(0, shape[-1], shape[:-1]) if with_current else None
    got = _argmin(candidates, current)
    assert got.dtype == candidates.argmin(axis=-1).dtype
    assert np.array_equal(got, _reference_argmin(candidates, current))


@st.composite
def _uneven_problems(draw):
    """Problems whose edges have 1 to 5 controls; optionally one edge whose
    velocities at O are all negative, so it has no vertex pair."""
    counts = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    inward = draw(st.integers(-1, len(counts) - 1))
    stationary = 1 if inward == 0 else 0  # an edge that can park at O
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["entry", "exit"]))
    costs = [draw(st.sampled_from([0.0, 0.5, float(rng.uniform(0, 2))])) for _ in counts]
    lines = [f"lambda = 1\nregime = {kind}\ncosts = " + ", ".join(fnum(c) for c in costs)]
    for e, k in enumerate(counts):
        if e == inward:
            pool = -np.arange(1, 21) / 20
        else:
            pool = np.arange(-20, 21) / 20
        controls = set(rng.choice(pool, size=k, replace=False).tolist())
        if e == stationary:
            controls = set(list(controls)[: k - 1]) | {0.0}
        slope = draw(st.sampled_from([0.0, 0.25]))  # 0 makes controls tie
        lines += [
            "[edge]",
            "controls = " + ", ".join(fnum(c) for c in sorted(controls)),
            f"f = a * ({fnum(round(float(rng.uniform(0.5, 1.5)), 3))} + 0.1 * x)",
            f"ell = {fnum(round(float(rng.uniform(0, 1)), 3))} + {fnum(slope)} * a + 0.2 * x",
        ]
    return parse_problem("\n".join(lines) + "\n")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    problem=_uneven_problems(),
    seed=st.integers(0, 2**32 - 1),
    dt_ratio=st.sampled_from([1.0, 2.0, 0.37]),
    ties=st.booleans(),
)
def test_stacked_update_matches_per_edge_reference(problem, seed, dt_ratio, ties):
    # sweep and policy, on random fields and with a current policy, equal
    # the per-edge operator bitwise: the padding of short control lists is
    # never chosen, and the vertex branches keep their tie order.
    grid = GridParams(h=0.05, l_max=2.0, dt=0.05 * dt_ratio)
    system = build_system(problem, grid)
    ref = _reference_system(problem, grid, system)
    rng = np.random.default_rng(seed)
    shape = (problem.n_edges, system.n_nodes)

    def random_field():
        values = rng.integers(0, 3, shape) if ties else rng.uniform(-2, 2, shape)
        return ValueField(values.astype(float), grid)

    field, other = random_field(), random_field()
    new, change = sweep(field, system)
    interiors, vertex = _reference_candidates(field, system, ref)
    expected = np.array([c.min(axis=1) for c in interiors])
    expected[:, 0] = [c.min() for c in vertex]
    assert np.array_equal(new.values, expected)
    assert change == float(np.abs(expected - field.values).max())

    current = policy(other, system)
    kept = policy(field, system, current)
    other_interiors, other_vertex = _reference_candidates(other, system, ref)
    for e in range(problem.n_edges):
        controls = _reference_argmin(other_interiors[e], None)
        assert np.array_equal(current.controls[e], controls)
        assert current.vertex[e] == _reference_argmin(other_vertex[e], None)
        controls = _reference_argmin(interiors[e], current.controls[e])
        assert np.array_equal(kept.controls[e], controls)
        assert kept.vertex[e] == _reference_argmin(vertex[e], current.vertex[e])


def test_nonconvergence_reported_not_raised(benchmark_problem, fine_grid):
    # A tol below float resolution is never met: each level stops when its
    # policy stops changing, and the report says not converged.
    field, report = solve(benchmark_problem, fine_grid, tol=1e-15)
    assert not report.converged
    beta = math.exp(-benchmark_problem.lam * fine_grid.dt)
    assert 1e-15 * (1.0 - beta) < report.final_change < 1e-12
    assert report.iterations == sum(report.level_iterations)
    assert field.grid == fine_grid


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["entry", "exit"]),
    zero_cost=st.booleans(),
    odd=st.booleans(),
)
def test_solve_matches_value_iteration(seed, kind, zero_cost, odd):
    base = make_random_problem(np.random.default_rng(seed))
    costs = base.regime.costs
    if zero_cost:
        costs = (0.0,) + costs[1:]
    problem = Problem(base.junction, base.edges, base.lam, CostRegime(kind, costs))
    # n_intervals = 40 builds a ladder of 2 or 3 grids (the third only when
    # dt * sup <= l_max / 4 holds at h = 0.2); 25 is odd, so its coarser
    # grid drops the last node: 12 intervals of 0.16.
    h = 0.08 if odd else 0.05
    grid = GridParams(h=h, l_max=2.0, dt=h)
    tol = 1e-9
    field, report = solve(problem, grid, tol=tol)
    assert report.converged
    assert len(report.level_iterations) > 1
    assert sum(report.level_iterations) == report.iterations

    system = build_system(problem, grid)
    reference = constant_field(system, 0.0)
    change = math.inf
    while change > 1e-13:
        reference, change = sweep(reference, system)
    vi_error = change * system.beta / (1 - system.beta)
    assert field.sup_distance(reference) <= tol + vi_error


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    p=st.integers(0, 3),
    q=st.integers(0, 3),
    n=st.integers(1, 400),
    batch=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=3, q=1, n=2, batch=2, seed=1)  # n < block size
@example(p=2, q=2, n=7, batch=1, seed=2)  # n not a multiple of the block size
@example(p=1, q=2, n=6, batch=3, seed=3)  # odd block count
@example(p=0, q=0, n=1, batch=1, seed=4)
@example(p=1, q=1, n=DENSE_UNKNOWNS, batch=2, seed=5)  # dense at once
@example(p=1, q=1, n=DENSE_UNKNOWNS + 1, batch=2, seed=6)  # one level first
@example(p=2, q=1, n=2 * DENSE_UNKNOWNS + 1, batch=1, seed=7)  # odd blocks, two levels
@example(p=3, q=3, n=400, batch=3, seed=8)
def test_banded_solve_matches_dense(p, q, n, batch, seed):
    # A strictly row diagonally dominant banded matrix, cut into blocks of
    # b = max(p, q, 1) rows in _cyclic_reduction's layout, identity rows
    # padding the last block.
    rng = np.random.default_rng(seed)
    cols = np.arange(n)[:, None] + np.arange(-p, q + 1)
    inside = (cols >= 0) & (cols < n)
    rows = np.broadcast_to(np.arange(n)[:, None], cols.shape)
    dense = np.zeros((batch, n, n))
    dense[:, rows[inside], cols[inside]] = rng.uniform(-1.0, 1.0, (batch, int(inside.sum())))
    diag = (slice(None), range(n), range(n))
    off = np.abs(dense).sum(axis=-1) - np.abs(dense[diag])
    sign = np.where(rng.random((batch, n)) < 0.5, -1.0, 1.0)
    dense[diag] = sign * (off + rng.uniform(0.01, 1.0, (batch, n)))
    rhs = rng.normal(size=(batch, n, 2))

    b = max(p, q, 1)
    m = -(-n // b)
    padded = np.zeros((batch, m * b, (m + 2) * b))
    padded[:, :n, b : n + b] = dense
    padded[:, range(n, m * b), range(n + b, (m + 1) * b)] = 1.0
    a = np.zeros((batch, m, b, 3 * b + 2))
    for i in range(m):
        a[:, i, :, : 3 * b] = padded[:, i * b : (i + 1) * b, i * b : (i + 3) * b]
    a.reshape(batch, m * b, -1)[:, :n, 3 * b :] = rhs

    expected = np.linalg.solve(dense, rhs)
    x = _cyclic_reduction(a).reshape(batch, m * b, 2)
    assert np.abs(x[:, :n] - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.abs(x[:, n:]).max(initial=0.0) == 0.0


def _acceptance_problem(index):
    rng = np.random.default_rng(20260810)
    for _ in range(index):
        make_random_problem(rng)
    return make_random_problem(rng)


@pytest.mark.parametrize("index", [1, 2, 3])
def test_odd_grid_gets_a_ladder(index):
    # 399 intervals is odd: each coarser grid drops the last node, and the
    # ladder keeps Howard to a few evaluations, as on the even grid.
    grid = GridParams(h=0.01, l_max=3.99, dt=0.01)
    _, report = solve(_acceptance_problem(index), grid)
    assert report.converged
    assert len(report.level_iterations) > 1
    assert report.iterations <= 20


@pytest.mark.parametrize(
    "name, h, l_max",
    [("entry-basic", 0.0025, 4.0), ("random-0", 0.0025, 4.0), ("random-1", 0.01, 3.99)],
)
def test_evaluate_is_exact(name, h, l_max):
    if name == "entry-basic":
        problem = jh.builtin_problem(name)
    else:
        problem = _acceptance_problem(int(name.split("-")[1]))
    grid = GridParams(h=h, l_max=l_max, dt=h)
    field, report = solve(problem, grid)
    assert report.converged
    system = build_system(problem, grid)
    pol = policy(field, system)
    _assert_fixed_point_of_own_update(pol, system, _evaluate(pol, system))


def _assert_fixed_point_of_own_update(pol, system, evaluated):
    # The evaluated field is the fixed point of its own policy's update
    # T_pi: the candidates at the policy's actions, interior and vertex.
    interiors, vertex = _candidates(evaluated, system)
    k = np.arange(1, system.n_nodes)
    for e, u in enumerate(evaluated.values):
        image = np.concatenate(
            ([vertex[e][pol.vertex[e]]], interiors[e][k, pol.controls[e][1:]])
        )
        assert np.abs(u - image).max() <= 1e-12


# 32 intervals take no reduction level for block sizes up to 17, and 200
# take at least one for every block size.
@pytest.mark.parametrize("n", [32, 200])
@pytest.mark.parametrize("ratio", [1, 2, 4])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    source=st.one_of(st.just("random"), st.sampled_from(jh.builtin_names())),
    exit_regime=st.booleans(),
    kinds=st.lists(st.sampled_from(["switch", "park", "continue"]), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_is_exact_on_any_policy(n, ratio, source, exit_regime, kinds, seed):
    # Any policy, not only a greedy one: random controls at every node, and
    # at the vertex a switch, park or continue branch of each edge.
    rng = np.random.default_rng(seed)
    problem = make_random_problem(rng) if source == "random" else jh.builtin_problem(source)
    if exit_regime:
        problem = replace(problem, regime=CostRegime.exit(problem.regime.costs))
    grid = GridParams(h=4.0 / n, l_max=4.0, dt=ratio * 4.0 / n)
    try:
        system = build_system(problem, grid)
    except ValueError:  # dt too large for this problem's sup
        assume(False)
    n_controls = system.samples.real.sum(axis=1)
    controls = rng.integers(0, n_controls[:, None], (problem.n_edges, system.n_nodes))
    vertex = []
    for row, kind in zip(system.vertex.limit_branches, kinds):
        vertex.append(rng.choice([i for i, b in enumerate(row) if b.kind == kind]))
    pol = Policy(controls, np.array(vertex))
    _assert_fixed_point_of_own_update(pol, system, _evaluate(pol, system))


def test_solve_does_not_import_scipy():
    code = (
        "import sys, junction_hjb as jh\n"
        "jh.solve(jh.builtin_problem('entry-basic'), jh.GridParams(0.05, 2.0, 0.05))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_converged_implies_change_below_tol_on_coarse_steps():
    # lam * dt = 1 makes the contraction factor < 1/2; the convergence
    # threshold must still keep the reported final change within tol.
    p = parse_problem(
        "lambda = 5\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1 - a\n"
    )
    grid = GridParams(h=0.2, l_max=4.0, dt=0.2)
    field, report = solve(p, grid, tol=1e-9)
    assert report.converged
    assert report.final_change <= 1e-9


def test_package_reads_no_environment_variables():
    # Results depend on the arguments alone: no module reads os.environ or
    # os.getenv, directly or through a from-import.
    package = Path(jh.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) not in (
                    ("os", "environ"),
                    ("os", "getenv"),
                ), f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                assert not names & {"environ", "getenv"}, f"{path.name}:{node.lineno}"
