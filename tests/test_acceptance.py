"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; pytest reports a
failure otherwise.  The twenty random three-edge problems are generated
once from a fixed seed and shared by the criteria that reference them.
"""

import math

import numpy as np
import pytest

import junction_hjb as jh
from conftest import make_random_problem
from junction_hjb.model import CostRegime, NetworkPoint, Problem
from junction_hjb.solver import ValueField, build_system, constant_field, sweep

TOL = 1e-9
GRID = jh.GridParams(h=0.01, l_max=4.0, dt=0.01)
ORACLE_DT = 0.03  # resolves velocity quantization for the random problems
SEED = 20260810
N_RANDOM = 20


def _interior_mask(grid):
    s = grid.nodes
    return (s > 0) & (s <= grid.l_max - 1.0)


def _sup_vs_oracle(field, osol, n_edges, grid):
    mask = _interior_mask(grid)
    sup = max(
        float(np.abs(field.values[e][mask] - osol.values[e][mask]).max())
        for e in range(n_edges)
    )
    return max(sup, abs(field.vertex_reconstruction - osol.vertex_value))


@pytest.fixture(scope="module")
def random_suite():
    rng = np.random.default_rng(SEED)
    suite = []
    for _ in range(N_RANDOM):
        problem = make_random_problem(rng)
        report = jh.validate(problem)
        assert report.ok, report.violations
        field, solve_report = jh.solve(problem, GRID, tol=TOL)
        assert solve_report.converged
        suite.append((problem, field, solve_report))
    return suite


@pytest.fixture(scope="module")
def benchmark_field():
    problem = jh.builtin_problem("entry-basic")
    field, report = jh.solve(problem, GRID, tol=TOL)
    assert report.converged
    return problem, field


def test_criterion_1_closed_form_discontinuous(benchmark_field):
    import time

    problem = jh.builtin_problem("entry-basic")
    start = time.time()
    field, report = jh.solve(problem, GRID, tol=TOL)
    elapsed = time.time() - start
    s = GRID.nodes
    mask = s <= 3.0
    exact = 1 - 0.5 * np.exp(-s)
    err1 = float(np.abs(field.values[0] - exact)[mask].max())
    err2 = float(np.abs(field.values[1])[mask].max())
    recon_err = abs(field.vertex_reconstruction - 0.5)
    assert err1 <= 0.02
    assert err2 <= 0.02
    assert recon_err <= 0.02
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 1 PASS: closed-form discontinuous case "
        f"(err1={err1:.4f}, err2={err2:.2g}, v(O) off by {recon_err:.2g}, "
        f"{elapsed:.2f}s)"
    )


def test_criterion_2_closed_form_constant_case():
    problem = jh.builtin_problem("entry-expensive")
    field, report = jh.solve(problem, GRID, tol=TOL)
    s = GRID.nodes
    err = float(np.abs(field.values[0] - 1.0)[s <= 3.0].max())
    recon_err = abs(field.vertex_reconstruction - 1.0)
    assert err <= 0.02
    assert recon_err <= 0.02
    print(
        f"\nACCEPTANCE 2 PASS: closed-form constant case "
        f"(err={err:.4f}, v(O) off by {recon_err:.2g})"
    )


def test_criterion_3_vertex_characterization_and_sandwich(random_suite):
    slack = 10 * TOL
    for problem, field, _ in random_suite:
        limits = [float(u[0]) for u in field.values]
        costs = problem.regime.costs
        stall = -jh.vertex_data(problem).tangential / problem.lam
        expected = min(min(v + c for v, c in zip(limits, costs)), stall)
        assert field.vertex_reconstruction == expected  # computed that way
        recon = field.vertex_reconstruction
        assert max(limits) <= recon + slack
        assert recon <= min(v + c for v, c in zip(limits, costs)) + slack
    print(
        f"\nACCEPTANCE 3 PASS: vertex characterization exact and sandwich "
        f"bounds within {slack:g} on {len(random_suite)} random problems"
    )


def test_criterion_4_oracle_equivalence(random_suite, benchmark_field):
    worst = 0.0
    for problem, field, _ in random_suite:
        osol = jh.oracle_solve(
            problem, jh.GridParams(h=GRID.h, l_max=GRID.l_max, dt=ORACLE_DT), tol=TOL
        )
        worst = max(worst, _sup_vs_oracle(field, osol, problem.n_edges, GRID))
    assert worst <= 0.1
    problem, field = benchmark_field
    osol = jh.oracle_solve(problem, GRID, tol=TOL)
    paper_sup = _sup_vs_oracle(field, osol, problem.n_edges, GRID)
    assert paper_sup <= 0.05
    print(
        f"\nACCEPTANCE 4 PASS: oracle equivalence (random worst "
        f"{worst:.4f} <= 0.1, benchmark problem {paper_sup:.2g} <= 0.05)"
    )


def test_criterion_5_contraction(benchmark_field):
    problem, _ = benchmark_field
    system = build_system(problem, GRID)
    beta = math.exp(-problem.lam * GRID.dt)
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(100):
        scale = rng.uniform(0.1, 20.0)
        u = ValueField(
            tuple(rng.uniform(-scale, scale, system.n_nodes) for _ in range(2)), GRID
        )
        w = ValueField(
            tuple(rng.uniform(-scale, scale, system.n_nodes) for _ in range(2)), GRID
        )
        su, _ = sweep(u, system)
        sw, _ = sweep(w, system)
        gap = su.sup_distance(sw) - beta * u.sup_distance(w)
        worst = max(worst, gap)
        assert gap <= 1e-12
    print(
        f"\nACCEPTANCE 5 PASS: contraction by exp(-lam dt) on 100 random "
        f"field pairs (worst excess {worst:.2e})"
    )


def test_criterion_6_uniqueness_proxy(random_suite):
    slack = 10 * TOL
    worst = 0.0
    for problem, _, _ in random_suite:
        system = build_system(problem, GRID)
        bound = system.value_bound
        low, rl = jh.solve(problem, GRID, tol=TOL, init=constant_field(system, -bound))
        high, rh = jh.solve(problem, GRID, tol=TOL, init=constant_field(system, bound))
        assert rl.converged and rh.converged
        gap = low.sup_distance(high)
        worst = max(worst, gap)
        assert gap <= slack
    print(
        f"\nACCEPTANCE 6 PASS: low/high initializations agree within "
        f"{slack:g} on {len(random_suite)} problems (worst {worst:.2e})"
    )


def test_criterion_7_cost_monotonicity(random_suite):
    slack = 10 * TOL
    worst_drop = 0.0
    for problem, field, _ in random_suite:
        for j in range(problem.n_edges):
            costs = list(problem.regime.costs)
            costs[j] *= 2
            bumped = Problem(
                problem.junction,
                problem.edges,
                problem.lam,
                CostRegime.entry(tuple(costs)),
            )
            up, report = jh.solve(bumped, GRID, tol=TOL)
            assert report.converged
            drop = min(
                float((up.values[e] - field.values[e]).min())
                for e in range(problem.n_edges)
            )
            drop = min(drop, up.vertex_reconstruction - field.vertex_reconstruction)
            worst_drop = min(worst_drop, drop)
            assert drop >= -slack
    print(
        f"\nACCEPTANCE 7 PASS: doubling any entry cost never lowered a "
        f"value (worst change {worst_drop:.2e} >= -{slack:g})"
    )


def test_criterion_8_zero_cost_limit():
    slack = 10 * TOL
    free = jh.builtin_problem("entry-free")
    field, report = jh.solve(free, GRID, tol=TOL)
    limits = [float(u[0]) for u in field.values]
    spread = max(limits) - min(limits)
    assert spread <= slack

    mixed = jh.builtin_problem("entry-mixed")  # c = (10, 0)
    mfield, _ = jh.solve(mixed, GRID, tol=TOL)
    # The zero-cost edge's limit (the shared value) dominates edge 1's.
    mlimits = mfield.values[:, 0]
    assert mlimits[1] >= mlimits[0] - slack
    osol = jh.oracle_solve(mixed, GRID, tol=TOL)
    mask = _interior_mask(GRID)
    edge1_gap = float(np.abs(mfield.values[0][mask] - osol.values[0][mask]).max())
    assert edge1_gap <= 0.05
    print(
        f"\nACCEPTANCE 8 PASS: all-zero costs share one vertex value "
        f"(spread {spread:.2e}), single zero cost matches the oracle "
        f"({edge1_gap:.4f} <= 0.05)"
    )


def test_criterion_9_exit_regime():
    slack = 10 * TOL
    problem = jh.builtin_problem("exit-basic")  # d = (0, 0.5)
    field, report = jh.solve(problem, GRID, tol=TOL)
    assert report.converged
    osol = jh.oracle_solve(problem, GRID, tol=TOL)
    sup = _sup_vs_oracle(field, osol, problem.n_edges, GRID)
    assert sup <= 0.05
    stall = -jh.vertex_data(problem).tangential / problem.lam
    assert field.vertex_reconstruction <= stall + slack
    print(
        f"\nACCEPTANCE 9 PASS: exit-cost regime (oracle gap {sup:.2g} <= "
        f"0.05, vertex value {field.vertex_reconstruction:.3f} <= "
        f"{stall:.3f} + {slack:g})"
    )


def test_criterion_10_reachability():
    problem = jh.builtin_problem("entry-basic")
    h_snap = GRID.h / 2
    rng = np.random.default_rng(SEED + 10)
    worst = -math.inf
    for _ in range(1000):
        x1 = NetworkPoint(int(rng.integers(1, 3)), float(rng.uniform(0.0, 1.0)))
        x2 = NetworkPoint(int(rng.integers(1, 3)), float(rng.uniform(0.0, 1.0)))
        _, tau = jh.connect(problem, x1, x2, h_snap=h_snap)
        excess = tau - (2 * jh.geodesic_distance(x1, x2) + 2 * h_snap)
        worst = max(worst, excess)
        assert excess <= 0.0
    print(
        f"\nACCEPTANCE 10 PASS: 1000 random pairs reached within "
        f"tau <= 2 d + 2 h_snap (worst slack {worst:.2e})"
    )
