import ast
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import junction_hjb as jh
from conftest import make_random_problem
from junction_hjb import oracle
from junction_hjb.cli import main
from junction_hjb.model import CostRegime, NetworkPoint, Problem, parse_problem
from junction_hjb.oracle import (
    SchedulePiece,
    Trajectory,
    _snapped_mdp,
    connect,
    evaluate_cost,
    oracle_solve,
    simulate,
    switches_to_csv,
    trajectory_to_csv,
)
from junction_hjb.solver import GridParams, _candidates, build_system, policy


def test_evaluate_cost_closed_form_value(benchmark_problem):
    ln2 = math.log(2)
    sched = (SchedulePiece(ln2, 1, -1.0), SchedulePiece(20.0 - ln2, 2, 1.0))
    traj = evaluate_cost(benchmark_problem, NetworkPoint(1, ln2), sched, substeps=4000)
    expected = (1 - math.exp(-ln2)) + 0.5 * math.exp(-ln2)  # = 0.75
    assert traj.cost == pytest.approx(expected, abs=0.01)
    assert traj.tail_bound <= math.exp(-20) * 2.5 + 1e-12
    assert [ev.kind for ev in traj.switches] == ["entry"]
    assert traj.switches[0].edge == 2
    assert traj.switches[0].time == pytest.approx(ln2, abs=0.01)


def test_evaluate_cost_stay_put(benchmark_problem):
    sched = (SchedulePiece(20.0, 1, 0.0),)
    traj = evaluate_cost(benchmark_problem, NetworkPoint(1, 1.0), sched, substeps=4000)
    assert traj.cost == pytest.approx(1.0, abs=0.01)
    assert traj.switches == ()


def test_evaluate_cost_enter_from_vertex(benchmark_problem):
    sched = (SchedulePiece(20.0, 2, 1.0),)
    traj = evaluate_cost(benchmark_problem, NetworkPoint(2, 0.0), sched, substeps=4000)
    assert traj.cost == pytest.approx(0.5, abs=0.01)  # entry cost, zero running


def test_evaluate_cost_rejects_switch_away_from_vertex(benchmark_problem):
    sched = (SchedulePiece(1.0, 1, 0.0), SchedulePiece(1.0, 2, 1.0))
    with pytest.raises(ValueError, match="switch away from O"):
        evaluate_cost(benchmark_problem, NetworkPoint(1, 1.0), sched, substeps=100)


def test_evaluate_cost_rejects_unknown_control(benchmark_problem):
    # A sampled control, or a mix's partner, outside the edge's list.
    for piece in (SchedulePiece(1.0, 1, 0.3), SchedulePiece(1.0, 1, -1.0, 0.5, 0.3)):
        with pytest.raises(ValueError, match="control list"):
            evaluate_cost(
                benchmark_problem, NetworkPoint(1, 1.0), (piece,), substeps=10
            )
    # A weight outside (0, 1], a partner without a weight below 1, or a
    # weight below 1 without a partner names no relaxed control.
    for theta, partner in ((0.0, 1.0), (-0.5, 1.0), (1.5, 1.0), (1.5, None), (math.nan, 1.0),
                           (1.0, 1.0), (0.5, None)):
        with pytest.raises(ValueError, match="theta"):
            SchedulePiece(1.0, 1, -1.0, theta, partner)


@pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
def test_schedule_piece_rejects_a_duration_that_is_not_finite_and_positive(duration):
    with pytest.raises(ValueError, match="duration"):
        SchedulePiece(duration, 1, 0.0)


def test_evaluate_cost_parks_on_a_stationary_mix_at_the_vertex():
    # HULL_ONLY's edge 1 parks only on the mix of a = -1 and a = 1 with
    # theta = 1/2, at cost 1: the state stays exactly at O, no entry cost
    # falls due, and the cost is the left rectangle sum of the closed form
    # (1 - exp(-T)) / lam.
    p = parse_problem("lambda = 1\nregime = entry\ncosts = 2, 3\n" + HULL_ONLY)
    T, substeps = 20.0, 2000
    sched = (SchedulePiece(T, 1, -1.0, 0.5, 1.0),)
    traj = evaluate_cost(p, NetworkPoint(1, 0.0), sched, substeps=substeps)
    assert (traj.positions == 0.0).all() and traj.switches == ()
    dt = T / substeps
    assert traj.cost == pytest.approx(dt * (1 - math.exp(-T)) / (1 - math.exp(-dt)), rel=1e-12)
    assert 0.0 < traj.cost - (1 - math.exp(-T)) <= dt


def test_evaluate_cost_mixes_f_and_ell_at_the_current_position():
    # Weight 1/4 on a = -1 and 3/4 on a = 1 of f = a + x, ell = x + a:
    # the mix moves by x + 1/2 and costs x + 1/2 at the current x, so from
    # x0 the state is (x0 + 1/2) e^t - 1/2 and, with lam = 1, the cost to T
    # is (x0 + 1/2) T.
    p = parse_problem(
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = -1, 1\nf = a + x\nell = x + a\n"
        "[edge]\ncontrols = -1, 1\nf = a\nell = 1\n"
    )
    x0, T = 0.5, 1.0
    sched = (SchedulePiece(T, 1, -1.0, 0.25, 1.0),)
    traj = evaluate_cost(p, NetworkPoint(1, x0), sched, substeps=1000)
    assert traj.positions[-1] == pytest.approx((x0 + 0.5) * math.exp(T) - 0.5, rel=1e-3)
    assert traj.cost == pytest.approx((x0 + 0.5) * T, rel=1e-3)
    assert traj.switches == ()


def test_evaluate_cost_exit_regime_charges_on_reaching_vertex():
    p = jh.builtin_problem("exit-basic")  # d = (0, 0.5)
    sched = (SchedulePiece(1.0, 2, -1.0), SchedulePiece(1.0, 1, 1.0))
    traj = evaluate_cost(p, NetworkPoint(2, 1.0), sched, substeps=1000)
    exits = [ev for ev in traj.switches if ev.kind == "exit"]
    assert len(exits) == 1
    assert exits[0].edge == 2
    assert exits[0].charged_cost == pytest.approx(0.5 * math.exp(-1.0), rel=0.02)


def test_oracle_benchmark_coarse(benchmark_problem):
    grid = GridParams(h=0.02, l_max=4.0, dt=0.02)
    sol = oracle_solve(benchmark_problem, grid)
    assert sol.converged
    k = round(1.0 / grid.h)
    closed = 1 - 0.5 * math.exp(-1.0)
    assert abs(sol.values[0][k] - closed) <= 0.05


def test_oracle_zero_cost_zero_values():
    p = parse_problem(
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 0\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 0\n"
    )
    sol = oracle_solve(p, GridParams(h=0.05, l_max=2.0, dt=0.05))
    for u in sol.values:
        assert np.abs(u).max() <= 1e-8


def test_oracle_constant_running_cost_everywhere():
    # Identical edges with ell = 1: every policy costs 1/lambda.
    p = parse_problem(
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n"
    )
    sol = oracle_solve(p, GridParams(h=0.01, l_max=2.0, dt=0.01))
    for u in sol.values:
        assert np.abs(u - 1.0).max() <= 0.01


def _cli_oracle_file(problem, tmp_path, fmt):
    """Text of the file that `oracle --out` writes for problem at h = dt =
    0.1, l_max = 1."""
    spec = tmp_path / "problem.txt"
    spec.write_text(jh.format_problem(problem), encoding="utf-8")
    out = tmp_path / f"oracle.{fmt}"
    assert main(["oracle", str(spec), "--h", "0.1", "--lmax", "1", "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def test_oracle_csv_omits_per_edge_vertex_rows(benchmark_problem, tmp_path):
    lines = _cli_oracle_file(benchmark_problem, tmp_path, "csv").strip().splitlines()
    digest = jh.problem_digest(benchmark_problem)
    assert lines[0] == f"# edge,s,value h=0.1 l_max=1.0 dt=0.1 problem={digest}"
    body = [line.split(",") for line in lines[1:]]
    assert all(float(row[1]) != 0.0 for row in body if row[0] != "0")
    assert body[-1][0] == "0"


def test_connect_same_edge(benchmark_problem):
    x1, x2 = NetworkPoint(1, 0.1), NetworkPoint(1, 0.3)
    sched, tau = connect(benchmark_problem, x1, x2)
    assert tau <= 2 * 0.2 + 2 * 0.005
    assert tau == pytest.approx(jh.geodesic_distance(x1, x2), abs=1e-12)
    assert len(sched) == 1
    assert sched[0].edge == 1
    assert sched[0].control == 1.0  # fastest outward control


def test_connect_via_vertex(benchmark_problem):
    x1, x2 = NetworkPoint(1, 0.1), NetworkPoint(2, 0.1)
    sched, tau = connect(benchmark_problem, x1, x2)
    assert tau <= 2 * 0.2 + 2 * 0.005
    assert tau == pytest.approx(jh.geodesic_distance(x1, x2), abs=1e-12)
    assert [p.edge for p in sched] == [1, 2]


def test_connect_identical_points(benchmark_problem):
    sched, tau = connect(benchmark_problem, NetworkPoint(1, 0.1), NetworkPoint(1, 0.1))
    assert tau == 0.0
    assert sched == ()


def test_connect_endpoint_reached(benchmark_problem):
    x1, x2 = NetworkPoint(1, 0.7), NetworkPoint(2, 0.4)
    sched, tau = connect(benchmark_problem, x1, x2, h_snap=0.005)
    traj = evaluate_cost(benchmark_problem, x1, sched, substeps=2000)
    end = NetworkPoint(int(traj.edges[-1]), float(traj.positions[-1]))
    assert jh.geodesic_distance(end, x2) <= 2 * 0.005 + 1e-6


def test_connect_tau_bound_random_pairs(benchmark_problem):
    rng = np.random.default_rng(0)
    h_snap = 0.005
    for _ in range(200):
        x1 = NetworkPoint(int(rng.integers(1, 3)), float(rng.uniform(0, 1)))
        x2 = NetworkPoint(int(rng.integers(1, 3)), float(rng.uniform(0, 1)))
        _, tau = connect(benchmark_problem, x1, x2, h_snap=h_snap)
        d = jh.geodesic_distance(x1, x2)
        assert tau <= (2 / 1.0) * d + 2 * h_snap + 1e-12


def test_connect_requires_margin():
    p = parse_problem(
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = 0.5, 1\nf = a\nell = 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n"
    )
    with pytest.raises(ValueError, match="margin"):
        connect(p, NetworkPoint(1, 0.1), NetworkPoint(1, 0.2))


def test_connect_raises_when_the_speed_turns_back():
    # A dip of f between validate's sample points, which reports a margin
    # and a slope that put (1, 0.3) in the controllability ball: edge 1's
    # inward control moves outward near s = 0.02.
    p = parse_problem(
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = -1, 1\nf = a * (1 - 3 * exp(-10000 * (x - 0.02)^2))\nell = 1\n"
        "[edge]\ncontrols = -1, 1\nf = a\nell = 1\n"
    )
    with pytest.raises(RuntimeError, match="toward s = 0"):
        connect(p, NetworkPoint(1, 0.3), NetworkPoint(2, 0.1))


@pytest.mark.parametrize("name, value", [
    ("h_snap", 0.0), ("h_snap", -0.01), ("h_snap", math.nan), ("h_snap", math.inf),
    ("substeps", 0), ("substeps", -1), ("substeps", 2.5), ("substeps", 16.0),
])
def test_connect_and_evaluate_cost_reject_an_h_snap_or_substeps_out_of_range(
    benchmark_problem, name, value
):
    # An h_snap outside (0, inf) or a substeps that is not an int >= 1 is
    # refused by name before any work: connect(h_snap=inf) would skip every
    # leg and report tau = 0, and with h_snap = nan the replay would switch
    # edges in mid-edge, since no s exceeds nan.
    kwargs = {name: value}
    x1, x2 = NetworkPoint(1, 0.3), NetworkPoint(2, 0.4)
    switch_in_mid_edge = (SchedulePiece(0.1, 1, -1.0), SchedulePiece(0.4, 2, 1.0))
    with pytest.raises(ValueError, match=f"^{name} must be .*, got {value!r}$"):
        evaluate_cost(benchmark_problem, x1, switch_in_mid_edge, **kwargs)
    if name == "h_snap":
        with pytest.raises(ValueError, match=f"^h_snap must be .*, got {value!r}$"):
            connect(benchmark_problem, x1, x2, **kwargs)


def _ball_pairs(per_problem: int):
    """(problem, x1, x2) for the acceptance seed's random problems 0-19,
    per_problem pairs each, drawn in the problem's controllability ball
    (radius at most 1)."""
    rng = np.random.default_rng(20260810)
    problems = [make_random_problem(rng) for _ in range(20)]
    pair_rng = np.random.default_rng(0)
    for problem in problems:
        report = jh.validate(problem)
        radius = min(report.margin / (2 * report.f_lipschitz), 1.0)
        for _ in range(per_problem):
            x1, x2 = (
                NetworkPoint(
                    int(pair_rng.integers(1, problem.n_edges + 1)),
                    float(pair_rng.uniform(0.0, radius)),
                )
                for _ in range(2)
            )
            yield problem, x1, x2


def test_connect_replays_on_position_dependent_dynamics():
    # The acceptance seed's random problems 0-19, whose speeds depend on x:
    # every schedule replays through evaluate_cost at its default substeps
    # (no "switch away from O") and ends within 2 h_snap of x2.
    h_snap = 0.005
    missed = []
    for problem, x1, x2 in _ball_pairs(10):
        sched, _ = connect(problem, x1, x2, h_snap=h_snap)
        try:
            traj = evaluate_cost(problem, x1, sched)
        except ValueError as exc:
            missed.append(f"{x1} -> {x2}: {exc}")
            continue
        end = NetworkPoint(int(traj.edges[-1]), float(traj.positions[-1]))
        if jh.geodesic_distance(end, x2) > 2 * h_snap:
            missed.append(f"{x1} -> {x2}: ends at {end}")
    assert not missed, missed


def _numpy_connect(problem: Problem, x1: NetworkPoint, x2: NetworkPoint, h_snap: float):
    """connect's schedule and tau as its legs were built on numpy arrays:
    np.argmax, np.linspace, evaluate_array, then the fsum trapezoid."""

    def leg(edge, s_from, s_to):
        length = abs(s_to - s_from)
        if length <= h_snap:
            return None
        spec = problem.edge(edge)
        velocities = [jh.exprlang.evaluate(spec.velocity, 0.0, a) for a in spec.controls]
        direction = math.copysign(1.0, s_to - s_from)
        a = spec.controls[int(np.argmax(direction * np.asarray(velocities)))]
        intervals = math.ceil(length / h_snap)
        nodes = np.linspace(s_from, s_to, intervals + 1)
        speed = direction * jh.exprlang.evaluate_array(spec.velocity, nodes, a)
        assert (np.isfinite(speed) & (speed > 0.0)).all()
        pace = (1.0 / speed).tolist()
        duration = length / intervals * (math.fsum(pace) - 0.5 * (pace[0] + pace[-1]))
        return SchedulePiece(duration, edge, a)

    if x1 == x2:
        return (), 0.0
    if x1.edge == x2.edge:
        legs = [leg(x1.edge, x1.s, x2.s)]
    else:
        legs = [leg(x1.edge, x1.s, 0.0), leg(x2.edge, 0.0, x2.s)]
    pieces = tuple(piece for piece in legs if piece is not None)
    return pieces, math.fsum(piece.duration for piece in pieces)


def test_connect_matches_the_numpy_legs_bitwise(benchmark_problem):
    # Criterion 10's 1000 pairs on entry-basic and 50 pairs in the ball of
    # each acceptance random problem: the same pieces and tau as the numpy
    # legs.  Every duration and tau is finite and positive (or tau = 0), so
    # == on them is equality of bits.
    h_snap = 0.005
    rng = np.random.default_rng(20260810 + 10)  # as tests/test_acceptance.py draws them
    pairs = []
    for _ in range(1000):
        x1 = NetworkPoint(int(rng.integers(1, 3)), float(rng.uniform(0.0, 1.0)))
        x2 = NetworkPoint(int(rng.integers(1, 3)), float(rng.uniform(0.0, 1.0)))
        pairs.append((benchmark_problem, x1, x2))
    pairs += _ball_pairs(50)
    assert len(pairs) == 2000
    for problem, x1, x2 in pairs:
        assert connect(problem, x1, x2, h_snap) == _numpy_connect(problem, x1, x2, h_snap)


def test_simulate_runs_to_vertex_then_switches(benchmark_problem, fine_grid, benchmark_solution):
    field, _ = benchmark_solution
    traj = simulate(benchmark_problem, NetworkPoint(1, 1.0), field, horizon=20.0)
    closed = 1 - 0.5 * math.exp(-1.0)
    assert traj.cost == pytest.approx(closed, abs=0.05)
    entries = [ev for ev in traj.switches if ev.kind == "entry"]
    assert len(entries) == 1 and entries[0].edge == 2
    assert entries[0].time == pytest.approx(1.0, abs=0.05)


def test_simulate_stalls_when_switching_is_expensive(fine_grid):
    p = jh.builtin_problem("entry-expensive")
    field, _ = jh.solve(p, fine_grid)
    traj = simulate(p, NetworkPoint(1, 1.0), field, horizon=20.0)
    assert traj.cost == pytest.approx(1.0, abs=0.05)
    assert [ev for ev in traj.switches if ev.kind == "entry"] == []


def test_simulate_zero_cost_zero_realized():
    p = parse_problem(
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 0\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 0\n"
    )
    grid = GridParams(h=0.05, l_max=2.0, dt=0.05)
    field, _ = jh.solve(p, grid)
    traj = simulate(p, NetworkPoint(1, 1.0), field, horizon=10.0)
    assert abs(traj.cost) <= 1e-6


def test_simulate_cost_consistency(benchmark_problem, fine_grid, benchmark_solution):
    field, _ = benchmark_solution
    traj = simulate(benchmark_problem, NetworkPoint(1, 1.0), field, horizon=20.0)
    replay = evaluate_cost(
        benchmark_problem, NetworkPoint(1, 1.0), traj.schedule, substeps=4000
    )
    assert replay.cost == pytest.approx(traj.cost, abs=0.02)


def test_simulate_stall_schedule_replays(fine_grid):
    # A park is one schedule piece.  entry-expensive runs to the vertex and
    # parks on a sampled control; the acceptance seed's random problem 0
    # parks from the vertex at once on edge 2's stationary mix, which
    # replays at O without entering edge 2.
    random_0 = make_random_problem(np.random.default_rng(20260810))
    cases = (
        (jh.builtin_problem("entry-expensive"), NetworkPoint(1, 1.0), 8000),
        (random_0, NetworkPoint(1, 0.0), 800),
    )
    for p, x0, substeps in cases:
        field, _ = jh.solve(p, fine_grid)
        traj = simulate(p, x0, field, horizon=20.0)
        assert len(traj.schedule) <= 2
        replay = evaluate_cost(p, x0, traj.schedule, substeps=substeps)
        assert replay.cost == pytest.approx(traj.cost, abs=0.02)


def test_simulate_exit_regime(fine_grid):
    p = jh.builtin_problem("exit-basic")  # d = (0, 0.5)
    field, _ = jh.solve(p, fine_grid)
    traj = simulate(p, NetworkPoint(1, 1.0), field, horizon=20.0)
    # Run to the vertex, leave edge 1 for free, ride edge 2 at zero cost.
    assert traj.cost == pytest.approx(1 - math.exp(-1.0), abs=0.05)
    exits = [ev for ev in traj.switches if ev.kind == "exit"]
    assert len(exits) == 1 and exits[0].edge == 1
    assert exits[0].charged_cost == 0.0


def test_simulate_exit_regime_positive_cost_charged_once(fine_grid):
    p = parse_problem(
        "lambda = 1\nregime = exit\ncosts = 0.3, 0.5\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1 - a\n"
    )
    field, _ = jh.solve(p, fine_grid)
    traj = simulate(p, NetworkPoint(1, 1.0), field, horizon=20.0)
    expected = (1 - math.exp(-1.0)) + 0.3 * math.exp(-1.0)
    assert traj.cost == pytest.approx(expected, abs=0.05)
    exits = [ev for ev in traj.switches if ev.kind == "exit"]
    assert len(exits) == 1
    assert exits[0].charged_cost == pytest.approx(0.3 * math.exp(-1.0), rel=0.02)


def test_simulate_does_not_hold_at_vertex_on_inward_controls(fine_grid):
    # ell is cheapest at a = -1, but holding at the vertex with an inward
    # control is infeasible; the honest option is the stationary mix at
    # cost 1, so the realized cost must be ~1, not ~0.
    p = parse_problem(
        "lambda = 1\nregime = entry\ncosts = 10, 10\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1 + a\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 2\n"
    )
    field, _ = jh.solve(p, fine_grid)
    traj = simulate(p, NetworkPoint(1, 0.0), field, horizon=20.0)
    assert traj.cost == pytest.approx(1.0, abs=0.05)


def test_simulate_rejects_mismatched_field(benchmark_solution):
    field, _ = benchmark_solution
    three_edges = parse_problem(
        "lambda = 1\nregime = entry\ncosts = 1, 1, 1\n"
        + "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n" * 3
    )
    with pytest.raises(ValueError, match="edges"):
        simulate(three_edges, NetworkPoint(3, 0.5), field, horizon=1.0)
    # A field one node short of its grid cannot be built, so no rollout reads it.
    with pytest.raises(ValueError, match="nodes"):
        jh.ValueField(tuple(u[:-1] for u in field.values), field.grid)


def test_simulate_and_residual_refuse_a_field_of_another_problem(benchmark_solution):
    # entry-basic's field has entry-expensive's shape and grid: without the
    # digest check a rollout on entry-expensive from (1, 1.0) cost 1.003
    # and its residual read 0.005, numbers of neither problem.
    field, _ = benchmark_solution
    other = jh.builtin_problem("entry-expensive")
    system = jh.build_system(other, field.grid)
    with pytest.raises(ValueError, match="another problem"):
        simulate(other, NetworkPoint(1, 1.0), field, horizon=1.0)
    with pytest.raises(ValueError, match="another problem"):
        jh.residual(field, system)
    # A field that names no problem is still taken.
    anonymous = jh.ValueField(field.values, field.grid, field.vertex_reconstruction)
    assert math.isfinite(simulate(other, NetworkPoint(1, 1.0), anonymous, horizon=1.0).cost)
    assert math.isfinite(jh.residual(anonymous, system)[1])


@pytest.mark.parametrize("horizon", [746.0, 1e9])
def test_simulate_refuses_a_horizon_past_the_discount_underflow(
    monkeypatch, benchmark_problem, benchmark_solution, horizon
):
    # At lam = 1, exp(-lam * horizon) is 0.0 from horizon 746 on, so no cost
    # accrues past it; 1e9 at dt = 0.01 would take 10^11 steps.  The refusal
    # comes before any step: a rollout that started would fail here at once.
    field, _ = benchmark_solution
    assert math.exp(-745.0) > 0.0 == math.exp(-746.0)

    def no_rollout(*args):
        raise AssertionError("simulate started stepping")

    monkeypatch.setattr(oracle, "_Path", no_rollout)
    with pytest.raises(ValueError, match="exp"):
        simulate(benchmark_problem, NetworkPoint(1, 1.0), field, horizon=horizon)


def test_simulate_steps_only_with_the_field_dt(benchmark_problem, benchmark_solution):
    # A rollout at another dt than the field was solved for realizes
    # another value (entry-basic solved at dt = 0.02 and rolled out at
    # dt = 0.005 from (1, 1.0) came out 0.18 above it), so it is refused.
    field, _ = benchmark_solution
    x0 = NetworkPoint(1, 1.0)
    for dt in (2 * field.grid.dt, field.grid.dt / 4):
        with pytest.raises(ValueError) as exc:
            simulate(benchmark_problem, x0, field, horizon=1.0, dt=dt)
        assert f"dt = {dt} " in str(exc.value) and f"dt = {field.grid.dt}" in str(exc.value)
    default = simulate(benchmark_problem, x0, field, horizon=1.0)
    given = simulate(benchmark_problem, x0, field, horizon=1.0, dt=field.grid.dt)
    assert np.array_equal(default.accumulated, given.accumulated)


def test_simulate_flags_leaving_the_domain(benchmark_problem, fine_grid, benchmark_solution):
    field, _ = benchmark_solution
    l_max = fine_grid.l_max
    # Down edge 1 to the vertex, then up edge 2 at unit speed: held at
    # s = l_max from t = 5 on.
    far = simulate(benchmark_problem, NetworkPoint(1, 1.0), field, horizon=20.0)
    assert far.positions.max() == l_max and far.left_domain
    near = simulate(benchmark_problem, NetworkPoint(1, 1.0), field, horizon=2.0)
    assert near.positions.max() <= l_max and not near.left_domain

    # The acceptance seed's random problem 0: on edge 3 the greedy policy
    # runs outward (unclamped it reached s ~ 1e13 and costs ~ 1e16); on the
    # truncated model it realizes the field value.  From the vertex, on any
    # edge label, it realizes v(O) and stays.
    from conftest import make_random_problem

    problem = make_random_problem(np.random.default_rng(20260810))
    field, _ = jh.solve(problem, fine_grid)
    traj = simulate(problem, NetworkPoint(3, 1.0), field, horizon=25.0)
    assert traj.left_domain and traj.positions.max() <= l_max
    value = float(np.interp(1.0, fine_grid.nodes, field.values[2]))
    assert abs(traj.cost - value) <= fine_grid.h
    traj = simulate(problem, NetworkPoint(3, 0.0), field, horizon=25.0)
    assert abs(traj.cost - field.vertex_reconstruction) <= fine_grid.h
    assert not simulate(problem, NetworkPoint(1, 0.0), field, horizon=25.0).left_domain


def test_simulate_evaluates_each_control_once_per_step(
    monkeypatch, benchmark_problem, fine_grid, benchmark_solution
):
    # The greedy choice makes one kernel call per interior step, which
    # evaluates f and ell once per control, and the Euler step reuses the
    # chosen control's pair; at the vertex both come from vertex_data, which
    # evaluates every control of every edge once.
    problem = make_random_problem(np.random.default_rng(20260810))
    field, _ = jh.solve(problem, fine_grid)
    evaluate, kernel = oracle.exprlang.evaluate, oracle.exprlang.kernel
    calls, kernel_calls = [], []
    monkeypatch.setattr(
        oracle.exprlang, "evaluate", lambda *args: calls.append(args) or evaluate(*args)
    )

    def counted_kernel(*args):
        compiled = kernel(*args)
        return lambda x: kernel_calls.append(x) or compiled(x)

    monkeypatch.setattr(oracle.exprlang, "kernel", counted_kernel)

    def count(problem, x0, field, steps, samples=None):
        calls.clear()
        kernel_calls.clear()
        traj = simulate(problem, x0, field, horizon=steps * 0.01)
        assert len(traj.times) == (steps + 1 if samples is None else samples)
        return len(calls), len(kernel_calls)

    setup = 2 * sum(len(spec.controls) for spec in problem.edges)
    counts = [count(problem, NetworkPoint(2, 2.0), field, steps) for steps in (1, 2, 3)]
    assert counts == [(setup, 1), (setup, 2), (setup, 3)]

    # From the vertex on edge 1 it parks at once on edge 2's stationary
    # mix, recorded as one relaxed piece whose split comes from vertex_data
    # too: one sample at the start and one at the horizon.
    assert count(problem, NetworkPoint(1, 0.0), field, 5, samples=2) == (setup, 0)
    assert setup == 24

    # entry-basic from the vertex on edge 1 switches into edge 2 at f = 1.
    field, _ = benchmark_solution
    traj = simulate(benchmark_problem, NetworkPoint(1, 0.0), field, horizon=0.01)
    assert traj.edges[-1] == 2 and traj.positions[-1] > 0
    assert count(benchmark_problem, NetworkPoint(1, 0.0), field, 1) == (2 * 3 * 2, 0)


def test_simulate_compiles_each_edge_once(monkeypatch, fine_grid):
    # The kernel is kept with its edge: later rollouts on the same problem,
    # and on its exit mirror, which shares the edges, compile nothing.
    problem = make_random_problem(np.random.default_rng(20260810))
    mirror = _exit_mirror(problem)
    kernel = oracle.exprlang.kernel
    compiled = []
    monkeypatch.setattr(
        oracle.exprlang, "kernel", lambda *args: compiled.append(args) or kernel(*args)
    )
    for p in (problem, mirror):
        field, _ = jh.solve(p, fine_grid)
        for edge in (1, 2, 3, 1):
            simulate(p, NetworkPoint(edge, 2.0), field, horizon=1.0)
    assert [args[0] for args in compiled] == [spec.velocity for spec in problem.edges]
    assert pickle.loads(pickle.dumps(problem)) == problem  # the kernels stay behind


_FAILING_EDGES = {
    # (f, ell, the control that fails): each formula is finite at s = 0,
    # where vertex_data evaluates it, and fails at s = 2 for that control:
    # m = max(x - 1, 0) is 1 there.
    "division by zero": ("a", "1 / (1 + a * max(x - 1, 0))", -1.0),
    "division by zero in f": ("a / (1 + a * max(x - 1, 0))", "1", -1.0),
    "overflow": ("a", "exp(1000 * max(x - 1, 0) * a)", 1.0),
    "overflow to inf": ("a", "1e308 * (1 + a * max(x - 1, 0))", 1.0),
    "domain error": ("a", "(1 + 2 * a * max(x - 1, 0)) ^ 0.5", -1.0),
    # Both fail, with different messages: the order of f and ell shows.
    "division in f, domain error in ell": (
        "a / (1 + a * max(x - 1, 0))", "(1 + 2 * a * max(x - 1, 0)) ^ 0.5", -1.0
    ),
}


def _failing_edge_problem(name: str) -> Problem:
    f, ell, _ = _FAILING_EDGES[name]
    return parse_problem(
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        f"[edge]\ncontrols = -1, 0, 1\nf = {f}\nell = {ell}\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n"
    )


@pytest.mark.parametrize("name", list(_FAILING_EDGES))
def test_simulate_raises_evaluates_error_where_the_kernel_fails(name, benchmark_solution):
    # Where f or ell cannot be evaluated at a step, the rollout raises the
    # EvalError that evaluate raises for the first failing control, f
    # before ell, with its message.
    problem = _failing_edge_problem(name)
    spec, s = problem.edge(1), 2.0
    with pytest.raises(jh.exprlang.EvalError) as expected:
        for b in spec.controls:
            jh.exprlang.evaluate(spec.velocity, s, b)
            jh.exprlang.evaluate(spec.running_cost, s, b)
    try:
        values = spec.kernel(s)
    except (ArithmeticError, ValueError):
        pass
    else:
        assert not all(map(math.isfinite, values))
    # entry-basic's field, without the digest that names entry-basic, so
    # that simulate takes it for this problem.
    field = jh.ValueField(benchmark_solution[0].values, benchmark_solution[0].grid)
    with pytest.raises(jh.exprlang.EvalError) as raised:
        simulate(problem, NetworkPoint(1, s), field, horizon=1.0)
    assert str(raised.value) == str(expected.value)
    assert f"(at x={s!r}, a=" in str(raised.value) or "non-finite" in str(raised.value)


@pytest.mark.parametrize("name", list(_FAILING_EDGES))
def test_evaluate_cost_raises_evaluates_error_only_where_the_piece_fails(name):
    # At s = 2 one control of the edge fails.  A replay substep evaluates
    # its own piece only, ell before f and control before partner: a piece
    # on the failing control raises evaluate's message, and one on a = 0
    # replays.
    problem = _failing_edge_problem(name)
    spec, s, bad = problem.edge(1), 2.0, _FAILING_EDGES[name][2]
    start = NetworkPoint(1, s)

    def message(*controls):
        with pytest.raises(jh.exprlang.EvalError) as expected:
            for b in controls:
                jh.exprlang.evaluate(spec.running_cost, s, b)
                jh.exprlang.evaluate(spec.velocity, s, b)
        return str(expected.value)

    with pytest.raises(jh.exprlang.EvalError) as raised:
        evaluate_cost(problem, start, (SchedulePiece(1.0, 1, bad),))
    assert str(raised.value) == message(bad)
    with pytest.raises(jh.exprlang.EvalError) as raised:
        evaluate_cost(problem, start, (SchedulePiece(1.0, 1, 0.0, 0.5, bad),))
    assert str(raised.value) == message(0.0, bad)

    # a = 0 holds at s = 2 while a = -1 or 1 fails there: the cost is the
    # left rectangle sum of evaluate's ell, bit for bit.
    substeps, dt = 16, 1.0 / 16
    replay = evaluate_cost(problem, start, (SchedulePiece(1.0, 1, 0.0),), substeps=substeps)
    cost = t = 0.0
    for _ in range(substeps):
        assert jh.exprlang.evaluate(spec.velocity, s, 0.0) == 0.0
        cost += math.exp(-problem.lam * t) * jh.exprlang.evaluate(spec.running_cost, s, 0.0) * dt
        t = t + dt
    assert (replay.positions == s).all() and replay.switches == ()
    assert replay.cost == cost and math.isfinite(cost)


def _exit_mirror(problem: Problem) -> Problem:
    """The same problem with its costs charged on exit instead of entry."""
    return Problem(
        problem.junction, problem.edges, problem.lam, CostRegime("exit", problem.regime.costs)
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    edge=st.integers(1, 3),
    s=st.one_of(st.just(0.0), st.floats(0.005, 3.9, exclude_min=True)),
)
@example(seed=3190161769, edge=1, s=0.0)
def test_simulate_realizes_the_field_value(fine_grid, seed, edge, s):
    # With entry costs the greedy rollout of a solved field realizes the
    # field's value to within h from both sides: v(O) from the vertex, the
    # interpolated field elsewhere.  The exit mirror's rollout from the
    # vertex is only held to dominance here: where u_i holds near O on edge
    # i's own stationary mix without touching O (the example's edge 1), a
    # rollout that reaches O pays d_i each time and realizes more.
    h = fine_grid.h
    problem = make_random_problem(np.random.default_rng(seed))
    field, _ = jh.solve(problem, fine_grid)
    traj = simulate(problem, NetworkPoint(edge, s), field, horizon=25.0)
    if s == 0.0:
        value = field.vertex_reconstruction
    else:
        value = float(np.interp(s, fine_grid.nodes, field.values[edge - 1]))
    assert abs(traj.cost + traj.tail_bound - value) <= h

    mirror = _exit_mirror(problem)
    field, _ = jh.solve(mirror, fine_grid)
    traj = simulate(mirror, NetworkPoint(edge, 0.0), field, horizon=25.0)
    assert traj.cost + traj.tail_bound >= field.vertex_reconstruction - h


def test_simulate_realizes_v_o_on_the_acceptance_exit_mirrors(fine_grid):
    # The exit mirrors of the acceptance seed's random problems 0-19 from
    # the vertex, where the hold above does not arise: both sides within h.
    # The start's edge label does not matter at O.
    rng = np.random.default_rng(20260810)
    for _ in range(20):
        mirror = _exit_mirror(make_random_problem(rng))
        field, _ = jh.solve(mirror, fine_grid)
        traj = simulate(mirror, NetworkPoint(1, 0.0), field, horizon=25.0)
        assert abs(traj.cost + traj.tail_bound - field.vertex_reconstruction) <= fine_grid.h


def test_simulate_vertex_gap_halves_with_h(benchmark_problem):
    # From O, entry-basic's rollout pays the entry cost one step later than
    # the scheme prices it: a first-order gap.
    gaps = []
    for h in (0.01, 0.005):
        field, _ = jh.solve(benchmark_problem, GridParams(h=h, l_max=4.0, dt=h))
        traj = simulate(benchmark_problem, NetworkPoint(1, 0.0), field, horizon=25.0)
        gaps.append(traj.cost + traj.tail_bound - field.vertex_reconstruction)
    assert 0.4 * abs(gaps[0]) <= abs(gaps[1]) <= 0.6 * abs(gaps[0])


def _charge_cases():
    rng = np.random.default_rng(20260810)
    randoms = [make_random_problem(rng) for _ in range(4)]
    basics = [jh.builtin_problem(name) for name in ("entry-basic", "exit-basic")]
    return basics + randoms + [_exit_mirror(p) for p in randoms]


@pytest.mark.parametrize("index", range(10))
def test_branch_charges_match_the_recorded_switch_events(index):
    # vertex_data's branches carry each switch charge as a constant, and
    # the path recorder charges switches as events; the two must agree.
    # One step from O along each of v(O)'s moves records the move's charge.
    # Arriving at O from inside edge i, then stepping into edge j, records
    # the charge of u_i(O)'s switch to j (c_j with entry, d_i with exit).
    problem = _charge_cases()[index]
    data = jh.vertex_data(problem)
    dt = 0.01

    def recorded(start, pieces):
        traj = evaluate_cost(problem, start, tuple(pieces), substeps=1)
        return math.fsum(
            ev.charged_cost / math.exp(-problem.lam * ev.time) for ev in traj.switches
        )

    def step(branch):
        act = data.edge(branch.edge)[branch.action]
        return SchedulePiece(dt, branch.edge, problem.edge(branch.edge).controls[act.controls[0]])

    moves = [b for b in data.value_branches if b.kind == "switch"]
    assert moves
    for branch in moves:
        got = recorded(NetworkPoint(branch.edge, 0.0), [step(branch)])
        assert got == pytest.approx(branch.charge, rel=1e-12, abs=0.0)
    checked = 0
    for i, row in zip(problem.junction.edge_labels, data.limit_branches):
        # The most negative control: one step from s = 1e-6 reaches O.
        inward = SchedulePiece(dt, i, problem.edge(i).controls[0])
        for branch in row:
            if branch.kind == "switch" and data.edge(branch.edge)[branch.action].velocity > 0.0:
                got = recorded(NetworkPoint(i, 1e-6), [inward, step(branch)])
                assert got == pytest.approx(branch.charge, rel=1e-12, abs=0.0)
                checked += 1
    assert checked >= problem.n_edges


def test_evaluate_cost_charges_each_reentry(benchmark_problem):
    # Out, back to the vertex, out again: two entry charges on edge 2.
    sched = (SchedulePiece(1.0, 2, 1.0), SchedulePiece(1.0, 2, -1.0), SchedulePiece(1.0, 2, 1.0))
    traj = evaluate_cost(benchmark_problem, NetworkPoint(2, 0.0), sched, substeps=1000)
    entries = [ev for ev in traj.switches if ev.kind == "entry"]
    assert len(entries) == 2
    assert entries[0].time == pytest.approx(0.001, abs=1e-9)
    assert entries[1].time == pytest.approx(2.001, abs=1e-6)
    assert entries[1].charged_cost == pytest.approx(0.5 * math.exp(-2.001), rel=1e-3)


def test_oracle_json_export(benchmark_problem, tmp_path):
    import json

    sol = oracle_solve(benchmark_problem, GridParams(h=0.1, l_max=1.0, dt=0.1))
    obj = json.loads(_cli_oracle_file(benchmark_problem, tmp_path, "json"))
    assert obj["vertex_reconstruction"] == sol.vertex_value
    assert len(obj["edges"][0]["values"]) == 10  # nodes 1..n only
    assert obj["report"]["converged"] is True


def test_value_dominance(benchmark_problem, fine_grid, benchmark_solution):
    field, _ = benchmark_solution
    k = round(1.0 / fine_grid.h)
    value = float(field.values[0][k])
    schedules = [
        (SchedulePiece(20.0, 1, 0.0),),
        (SchedulePiece(20.0, 1, 1.0),),
        (SchedulePiece(0.5, 1, 1.0), SchedulePiece(1.5, 1, -1.0), SchedulePiece(18.0, 2, 1.0)),
        (SchedulePiece(1.0, 1, -1.0), SchedulePiece(19.0, 2, 1.0)),
    ]
    for sched in schedules:
        traj = evaluate_cost(benchmark_problem, NetworkPoint(1, 1.0), sched, substeps=4000)
        assert traj.cost >= value - (traj.tail_bound + 5 * fine_grid.h)


def test_trajectory_exports(benchmark_problem, benchmark_solution):
    field, _ = benchmark_solution
    traj = simulate(benchmark_problem, NetworkPoint(1, 0.3), field, horizon=5.0)
    text = trajectory_to_csv(traj)
    assert text.splitlines()[0] == "t,edge,s,accumulated_cost"
    assert len(text.splitlines()) == len(traj.times) + 1
    sidecar = switches_to_csv(traj)
    assert sidecar.splitlines()[0] == "kind,edge,time,charged_cost"
    assert len(sidecar.splitlines()) == len(traj.switches) + 1
    assert (traj.times[0], traj.edges[0], traj.positions[0]) == (0.0, 1, 0.3)


# Both edges move only at unit speed, so the only stationary control is the
# hull point between a = -1 and a = 1: only the hold action can park at O.
HULL_ONLY = (
    "[edge]\ncontrols = -1, 1\nf = a\nell = 1 + 0.5 * a\n"
    "[edge]\ncontrols = -1, 1\nf = a\nell = 1.2 - 0.4 * a\n"
)


def _value_iteration(problem, grid, stop):
    """Plain value iteration on the oracle's MDP table until one sweep
    moves the values by at most stop; returns the per-edge values and the
    distance bound to the fixed point."""
    n = grid.n_intervals
    beta = math.exp(-problem.lam * grid.dt)
    cost, succ, _ = _snapped_mdp(problem, grid)
    values = np.zeros(cost.shape[0])
    change = math.inf
    while change > stop:
        new = (cost + beta * values[succ]).min(axis=1)
        change = float(np.abs(new - values).max())
        values = new
    per_edge = [np.concatenate(([values[0]], values[e * n + 1 : (e + 1) * n + 1]))
                for e in range(problem.n_edges)]
    return per_edge, change * beta / (1.0 - beta)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["entry", "exit"]),
    zero_cost=st.booleans(),
    hull_only=st.booleans(),
    dt_cells=st.sampled_from([1, 3]),
    lam=st.floats(0.5, 2.0),
)
# After one doubling round fewer than the oracle takes, the unsummed tail
# of a policy value is beta**128 ~ 5e-9 (lambda*dt = 0.15) and
# beta**512 ~ 4e-9 (lambda*dt = 0.038): these catch a missing round.
@example(seed=1, kind="entry", zero_cost=False, hull_only=False, dt_cells=3, lam=1.0)
@example(seed=2, kind="exit", zero_cost=False, hull_only=False, dt_cells=1, lam=0.76)
@example(seed=3, kind="entry", zero_cost=False, hull_only=True, dt_cells=1, lam=1.0)
@example(seed=4, kind="exit", zero_cost=True, hull_only=True, dt_cells=3, lam=1.0)
def test_oracle_matches_value_iteration(seed, kind, zero_cost, hull_only, dt_cells, lam):
    rng = np.random.default_rng(seed)
    if hull_only:
        base = parse_problem(
            "lambda = 1\nregime = entry\ncosts = 2, 3\n" + HULL_ONLY
        )
    else:
        base = make_random_problem(rng)
    costs = tuple(float(c) for c in rng.uniform(0.1, 2.0, base.n_edges))
    if zero_cost:
        costs = (0.0,) + costs[1:]
    problem = Problem(base.junction, base.edges, lam, CostRegime(kind, costs))
    h = 0.05
    grid = GridParams(h=h, l_max=2.0, dt=dt_cells * h)
    tol = 1e-9
    sol = oracle_solve(problem, grid, tol=tol)
    assert sol.converged
    beta = math.exp(-lam * grid.dt)
    assert sol.final_change <= tol * min(1.0, (1.0 - beta) / beta)

    reference, vi_error = _value_iteration(problem, grid, 1e-13)
    gap = max(float(np.abs(u - v).max()) for u, v in zip(sol.values, reference))
    assert gap <= tol + vi_error
    # The vertex row holds each edge's own controls and one hold per edge
    # that can stay at O, not every edge padded to the longest list.
    cost, _, _ = _snapped_mdp(problem, grid)
    counts = [len(spec.controls) for spec in problem.edges]
    n_holds = sum(
        any(a.velocity == 0.0 for a in actions) for actions in jh.vertex_data(problem).edges
    )
    width = max(sum(counts) + n_holds, max(counts))
    assert cost.shape == (1 + problem.n_edges * grid.n_intervals, width)
    if hull_only:
        # Parking forever at the hull point is one of the MDP's policies.
        zero_min = min(
            a.cost for actions in jh.vertex_data(problem).edges for a in actions
            if a.velocity == 0.0
        )
        assert sol.vertex_value <= grid.dt * zero_min / (1.0 - beta) + tol


def test_oracle_nonconvergence_reported_not_raised():
    # A tol below float resolution is never met: the iteration stops when
    # the policy stops changing and reports not converged, with a finite
    # final change.
    problem = make_random_problem(np.random.default_rng(20260810))
    grid = GridParams(h=0.05, l_max=2.0, dt=0.15)
    solved = oracle_solve(problem, grid)
    assert solved.converged and solved.iterations > 1
    sol = oracle_solve(problem, grid, tol=1e-18)
    assert not sol.converged
    assert sol.iterations >= solved.iterations
    assert 1e-18 < sol.final_change < 1e-9


def test_oracle_imports_only_containers_from_solver():
    # The oracle is a cross-check only while it shares no discretization or
    # evaluation code with the solver.
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module.endswith("solver"):
                taken += [alias.name for alias in node.names]
            elif module in (".", "junction_hjb"):
                assert "solver" not in [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            assert not any(a.name.endswith("solver") for a in node.names)
    assert sorted(taken) == ["GridParams", "ValueField"]


def test_connect_hashes_the_problem_once(monkeypatch):
    # connect looks its validation report up in a cache keyed on the
    # Problem, whose hash walks every expression tree: it is computed once
    # per instance, not once per lookup.
    problem = jh.builtin_problem("entry-basic")
    edge_hash = type(problem.edges[0]).__hash__
    hashed = []
    monkeypatch.setattr(
        type(problem.edges[0]), "__hash__", lambda spec: hashed.append(spec) or edge_hash(spec)
    )
    for k in range(100):
        connect(problem, NetworkPoint(1, 0.005 * k), NetworkPoint(2, 0.5))
    assert len(hashed) <= problem.n_edges


def _numpy_interp(u: np.ndarray, grid: GridParams, s: float) -> float:
    """The interpolation rule as it stood on numpy rows."""
    pos = min(max(s, 0.0), grid.l_max) / grid.h
    lo = min(int(pos), u.size - 2)
    w = min(max(pos - lo, 0.0), 1.0)
    return float(u[lo] * (1.0 - w) + u[lo + 1] * w)


@pytest.mark.parametrize("name, h, l_max", [
    ("entry-basic", 0.01, 4.0),
    ("random-0", 0.01, 4.0),
    # 2.345 / 0.005 rounds to 469.00000000000006, just above the interval
    # count: at l_max the weight of the last cell is held at 1.
    ("random-0", 0.005, 2.345),
])
def test_interp_matches_the_numpy_formula_bitwise(name, h, l_max):
    if name == "entry-basic":
        problem = jh.builtin_problem(name)
    else:
        problem = make_random_problem(np.random.default_rng(20260810))
    grid = GridParams(h=h, l_max=l_max, dt=h)
    field, _ = jh.solve(problem, grid)
    nodes = grid.nodes
    points = np.concatenate([
        np.linspace(-1.0, l_max + 1.0, 2001),
        nodes,
        np.nextafter(nodes, -np.inf),
        [l_max, np.nextafter(l_max, np.inf), np.nextafter(l_max, -np.inf), -0.0],
    ]).tolist()
    for row, values in zip(field.values, field.values.tolist()):
        for s in points:
            expected = _numpy_interp(row, grid, s)
            got = oracle._interp(values, grid.h, grid.l_max, s)
            assert type(got) is float
            assert got == expected and math.copysign(1, got) == math.copysign(1, expected), s


def _controls_per_step(traj: Trajectory, horizon: float, dt: float):
    """The (edge, control) of each Euler step, read off the schedule: a
    piece of duration k*dt holds k steps; a park ends the rollout early
    with one more sample and is not a step."""
    n_steps = round(horizon / dt)
    steps = len(traj.times) - 1 - (len(traj.times) != n_steps + 1)
    per_step = []
    for piece in traj.schedule:
        per_step += [(piece.edge, piece.control)] * round(piece.duration / dt)
    return per_step[:steps]


def test_simulate_takes_a_least_bellman_value_control_at_interior_steps(fine_grid):
    # At every step that starts beyond h/2 of the vertex, the control the
    # rollout took attains the least one-step Bellman value, computed here
    # with np.interp on the clipped foot.
    dt, horizon = fine_grid.dt, 5.0
    rng = np.random.default_rng(20260810)
    checked = 0
    for _ in range(4):
        base = make_random_problem(rng)
        for problem in (base, _exit_mirror(base)):
            beta = math.exp(-problem.lam * dt)
            field, _ = jh.solve(problem, fine_grid)
            for edge in problem.junction.edge_labels:
                for s0 in (0.3, 1.2, 2.6, 3.95):
                    traj = simulate(problem, NetworkPoint(edge, s0), field, horizon)
                    for k, (e, a) in enumerate(_controls_per_step(traj, horizon, dt)):
                        s = float(traj.positions[k])
                        if s <= fine_grid.h / 2:
                            continue
                        assert e == traj.edges[k]
                        spec = problem.edge(e)

                        def value(b):
                            f = jh.exprlang.evaluate(spec.velocity, s, b)
                            ell = jh.exprlang.evaluate(spec.running_cost, s, b)
                            foot = min(max(s + dt * f, 0.0), fine_grid.l_max)
                            return dt * ell + beta * np.interp(
                                foot, fine_grid.nodes, field.values[e - 1]
                            )

                        assert value(a) <= min(value(b) for b in spec.controls) + 1e-12
                        checked += 1
    assert checked > 10000


def test_rollout_takes_the_scheme_s_greedy_control_at_the_nodes(fine_grid):
    # The solver's candidates and simulate's look-ahead price a step by one
    # rule, hamiltonian.time_step, so a one-step rollout from node k >= 1
    # takes the control of the scheme's greedy policy there.  Nodes whose
    # two best candidates lie within 1e-12 are skipped: there the order of
    # rounding, not the rule, picks the control.
    h = fine_grid.h
    rng = np.random.default_rng(20260810)
    randoms = [make_random_problem(rng) for _ in range(4)]
    problems = [jh.builtin_problem(name) for name in ("entry-basic", "exit-hold")]
    checked = skipped = 0
    for problem in problems + randoms + [_exit_mirror(p) for p in randoms]:
        field, _ = jh.solve(problem, fine_grid)
        system = build_system(problem, fine_grid)
        interior, _ = _candidates(field, system)
        greedy = policy(field, system).controls
        for e, spec in enumerate(problem.edges):
            for k in range(1, fine_grid.n_intervals + 1, 13):
                first, second = np.sort(interior[e, k])[:2]
                if second - first <= 1e-12:
                    skipped += 1
                    continue
                x0 = NetworkPoint(e + 1, float(fine_grid.nodes[k]))
                traj = simulate(problem, x0, field, horizon=h)
                assert traj.schedule[0].control == spec.controls[greedy[e, k]], (problem, x0)
                checked += 1
    assert checked >= 800 and skipped <= checked // 20


def test_rollout_and_replay_take_the_same_step(benchmark_problem, fine_grid):
    # A rollout that stays beyond h/2 of O and below l_max never snaps,
    # parks or clamps, so its schedule cut into one piece per step and
    # replayed at one substep a piece must retrace it bit for bit: both go
    # through the one Euler step, with the same f and ell.
    dt, horizon = fine_grid.dt, 1.0
    rng = np.random.default_rng(20260810)
    problems = [benchmark_problem] + [make_random_problem(rng) for _ in range(4)]
    checked = 0
    for problem in problems:
        field, _ = jh.solve(problem, fine_grid)
        for edge in problem.junction.edge_labels:
            for s in (1.0, 2.0, 3.0):
                start = NetworkPoint(edge, s)
                traj = simulate(problem, start, field, horizon)
                if not (fine_grid.h / 2 < traj.positions).all() or traj.left_domain:
                    continue
                steps = _controls_per_step(traj, horizon, dt)
                assert len(steps) == len(traj.times) - 1
                pieces = tuple(SchedulePiece(dt, e, a) for e, a in steps)
                replay = evaluate_cost(problem, start, pieces, substeps=1)
                for name in ("times", "edges", "positions", "accumulated"):
                    assert getattr(replay, name).tobytes() == getattr(traj, name).tobytes(), name
                assert replay.cost == traj.cost and replay.switches == traj.switches == ()
                checked += 1
    assert checked == 38


def test_simulate_step_loop_reads_no_numpy():
    # The rollout's step loop runs on Python floats: the field is read into
    # lists once per rollout, before the loop.
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    (simulate_def,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "simulate"
    ]
    (loop,) = [
        node for node in ast.walk(simulate_def)
        if isinstance(node, ast.For) and ast.unparse(node.iter) == "range(n_steps)"
    ]
    for node in ast.walk(ast.Module(body=loop.body, type_ignores=[])):
        assert not (isinstance(node, ast.Name) and node.id == "np"), ast.unparse(node)
        assert not (
            isinstance(node, ast.Subscript) and ast.unparse(node.value) == "field.values"
        ), ast.unparse(node)


def _numpy_scalar_trajectory_csv(traj: Trajectory) -> str:
    """The trajectory CSV as written from numpy scalars."""
    lines = ["t,edge,s,accumulated_cost"]
    for t, e, s, c in zip(traj.times, traj.edges, traj.positions, traj.accumulated):
        lines.append(f"{format(t, '.9g')},{e},{format(s, '.9g')},{format(c, '.9g')}")
    return "\n".join(lines) + "\n"


def test_trajectory_csv_keeps_its_format(fine_grid):
    # One rollout that parks at the vertex, and the exit mirror's from the
    # same start, which pays an exit charge and is clamped at l_max: the CSV
    # written from Python floats is byte for byte the numpy-scalar one.
    problem = make_random_problem(np.random.default_rng(20260810))
    field, _ = jh.solve(problem, fine_grid)
    parked = simulate(problem, NetworkPoint(1, 0.5), field, horizon=25.0)
    mirror = _exit_mirror(problem)
    field, _ = jh.solve(mirror, fine_grid)
    clamped = simulate(mirror, NetworkPoint(1, 0.5), field, horizon=25.0)
    assert clamped.left_domain and not parked.left_domain
    assert parked.schedule[-1].partner is not None and len(parked.times) < 2500
    for traj in (clamped, parked):
        assert trajectory_to_csv(traj) == _numpy_scalar_trajectory_csv(traj)
        sidecar = switches_to_csv(traj)
        assert sidecar.splitlines()[1:] == [
            f"{ev.kind},{ev.edge},{format(ev.time, '.9g')},{format(ev.charged_cost, '.9g')}"
            for ev in traj.switches
        ]
    assert [ev.kind for ev in clamped.switches] == ["exit"]
