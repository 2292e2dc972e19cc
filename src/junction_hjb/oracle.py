"""Independent cross-checks: trajectory costs, a brute-force MDP, reachability.

Nothing here shares discretization or solution machinery with the solver;
from solver it takes only the GridParams and ValueField containers.  The
MDP in oracle_solve snaps Euler steps to the nearest grid node instead of
interpolating and charges switching costs on the transitions that realize
them.  It is solved by its own policy iteration, which evaluates a policy
by summing discounted costs along its paths (pointer doubling) rather than
by the solver's banded linear solves, so agreement between the two is
evidence rather than tautology.  evaluate_cost integrates the discounted
running cost of an explicit piecewise-constant control schedule and
detects edge entries and exits; connect constructs a schedule between two
points near the vertex and certifies its travel time; simulate rolls out
the greedy feedback policy of a solved field.

Switch accounting follows the cost functionals: with entry costs, a charge
falls due each time the state moves off the vertex into an edge
(re-entering the edge it just left included); with exit costs, a charge
falls due each time the state reaches the vertex from inside an edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import exprlang
from .hamiltonian import vertex_data
from .model import NetworkPoint, Problem, _sample_edges, validate
from .solver import GridParams, ValueField

__all__ = [
    "SchedulePiece",
    "ControlSchedule",
    "SwitchEvent",
    "Trajectory",
    "OracleSolution",
    "evaluate_cost",
    "oracle_solve",
    "connect",
    "simulate",
    "trajectory_to_csv",
    "switches_to_csv",
]

DEFAULT_H_SNAP = 0.005  # half the default mesh h = 0.01


@dataclass(frozen=True)
class SchedulePiece:
    duration: float
    edge: int
    control: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("piece duration must be positive")


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant open-loop control: (duration, edge, control value)."""

    pieces: tuple[SchedulePiece, ...]

    @property
    def horizon(self) -> float:
        return sum(p.duration for p in self.pieces)


@dataclass(frozen=True)
class SwitchEvent:
    kind: str  # "entry" or "exit"
    edge: int
    time: float
    charged_cost: float


@dataclass
class Trajectory:
    """Sampled controlled path with switch events and discounted cost."""

    times: np.ndarray
    edges: np.ndarray
    positions: np.ndarray
    accumulated: np.ndarray  # running discounted cost at each sample
    switches: tuple[SwitchEvent, ...]
    cost: float
    tail_bound: float
    schedule: ControlSchedule | None = None
    # A step of the rollout would have gone beyond the field's l_max and
    # was held there, as the scheme holds its feet.
    left_domain: bool = False

    @property
    def samples(self) -> list[tuple[float, NetworkPoint]]:
        return [
            (float(t), NetworkPoint(int(e), float(s)))
            for t, e, s in zip(self.times, self.edges, self.positions)
        ]


# Problems are immutable and hashable, so reports can be memoized.
_cached_validate = functools.lru_cache(maxsize=64)(validate)


def _sup_bound(problem: Problem, s_max: float) -> float:
    x_max = float(math.ceil(max(4.0, s_max)))
    return _cached_validate(problem, 64, x_max).sup_bound


class _Path:
    """A trajectory under integration: its state (edge, s, t), the
    discounted cost so far with its switch charges, and its samples.  Euler
    steps that would pass l_max end at l_max, and clamped records that."""

    def __init__(self, problem: Problem, x0: NetworkPoint, l_max: float = math.inf):
        self.problem = problem
        self.entry = problem.regime.kind == "entry"
        self.l_max = l_max
        self.clamped = False
        self.edge = x0.edge
        self.s = x0.s
        self.t = 0.0
        self.cost = 0.0
        self.switches: list[SwitchEvent] = []
        self.samples = [(0.0, self.edge, self.s, 0.0)]  # (t, edge, s, cost)

    def _charge(self, kind: str, t: float) -> float:
        """Record the current edge's switch charge due at time t; return it."""
        charged = self.problem.regime.costs[self.edge - 1] * math.exp(
            -self.problem.lam * t
        )
        self.switches.append(SwitchEvent(kind, self.edge, t, charged))
        return charged

    def snap(self):
        """Move a state near the vertex onto it: the exit moment from its
        edge."""
        if self.s > 0.0:
            if not self.entry:
                self.cost += self._charge("exit", self.t)
            self.s = 0.0

    def advance(self, control: float, dt: float, steps: int = 1, first=None):
        """steps explicit Euler steps of control on the current edge, with
        the running cost by the left-endpoint rule and the switch charges
        that fall due: entry on leaving the vertex, exit on reaching it from
        inside.  first, when given, is the pair (f, ell) of control at the
        current state, which the caller has already evaluated."""
        edge = self.edge
        spec = self.problem.edges[edge - 1]
        evaluate = exprlang.evaluate
        lam, entry, l_max = self.problem.lam, self.entry, self.l_max
        s, t, cost = self.s, self.t, self.cost
        for _ in range(steps):
            if first is None:
                ell = evaluate(spec.running_cost, s, control)
                f = evaluate(spec.velocity, s, control)
            else:
                f, ell = first
                first = None
            cost += math.exp(-lam * t) * ell * dt
            s_new = s + dt * f
            t += dt
            if s_new <= 0.0:
                if s > 0.0 and not entry:
                    cost += self._charge("exit", t)
                s_new = 0.0
            else:
                if s == 0.0 and entry:  # left the vertex
                    cost += self._charge("entry", t)
                if s_new > l_max:
                    s_new = l_max
                    self.clamped = True
            s = s_new
            self.samples.append((t, edge, s, cost))
        self.s, self.t, self.cost = s, t, cost

    def sample(self):
        """Append the current state: after a move that is not an Euler step."""
        self.samples.append((self.t, self.edge, self.s, self.cost))

    def trajectory(self, schedule: ControlSchedule) -> Trajectory:
        """The samples so far, with the tail bound at the current time;
        left_domain flags a clamp at l_max."""
        problem = self.problem
        times, edges, positions, running = zip(*self.samples)
        s_max = max(positions)
        bound = _sup_bound(problem, s_max)
        tail = math.exp(-problem.lam * self.t) * (
            bound / problem.lam + min(problem.regime.costs)
        )
        return Trajectory(
            times=np.asarray(times),
            edges=np.asarray(edges, dtype=int),
            positions=np.asarray(positions),
            accumulated=np.asarray(running),
            switches=tuple(self.switches),
            cost=self.cost,
            tail_bound=tail,
            schedule=schedule,
            left_domain=self.clamped,
        )


def evaluate_cost(
    problem: Problem,
    x0: NetworkPoint,
    schedule: ControlSchedule,
    substeps: int = 16,
    h_snap: float = DEFAULT_H_SNAP,
) -> Trajectory:
    """Integrate the discounted cost of an explicit control schedule.

    Dynamics are integrated by explicit Euler with duration/substeps per
    piece; the running cost uses the left-endpoint rectangle rule.  A piece
    may only name a different edge than the current one while the state is
    within h_snap of the vertex, otherwise the schedule is rejected.  The
    tail bound exp(-lam*T) * (sup_bound/lam + cheapest switching cost)
    covers the value of any optimal continuation after the horizon plus
    one imminent switch charge.

    Inward velocities at the vertex are projected (the state stays at 0),
    so a substep that overshoots the vertex is priced with O(dt) error;
    a schedule that deliberately parks on an inward control is priced at
    that control's cost even though no admissible trajectory realizes it.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    path = _Path(problem, x0)
    for piece in schedule.pieces:
        if piece.edge != path.edge:
            if path.s > h_snap:
                raise ValueError(
                    f"schedule switches to edge {piece.edge} while at "
                    f"({path.edge}, {path.s:.6g}): switch away from O"
                )
            path.snap()
            path.edge = piece.edge
        if piece.control not in problem.edge(path.edge).controls:
            raise ValueError(
                f"control {piece.control!r} is not in edge {path.edge}'s control list"
            )
        dt = piece.duration / substeps
        path.advance(piece.control, dt, substeps)
    return path.trajectory(schedule)


# ---------------------------------------------------------------------------
# Brute-force MDP with nearest-node snapping
# ---------------------------------------------------------------------------

@dataclass
class OracleSolution:
    """Policy-iteration solution of the snapped MDP.

    values[i][0] holds the common vertex value on every edge (the vertex is
    a single state of the MDP, unlike the per-edge limits of the solver).
    """

    values: tuple[np.ndarray, ...]
    vertex_value: float
    grid: GridParams
    iterations: int  # policy evaluations
    final_change: float  # sup change of one Bellman update of values
    converged: bool


def _snapped_mdp(problem: Problem, grid: GridParams):
    """The snapped MDP's actions, per edge and at the vertex.

    Returns (stage, next_idx, hold_stages, sup).  stage[e] and next_idx[e]
    are (n_nodes, n_controls) arrays of the cost and the successor state of
    each control of edge e at each node; row 0 holds the moves from the
    vertex into edge e, with cost inf for inward controls.  State 0 is the
    vertex and node m >= 1 of edge e is state e * n_intervals + m.
    hold_stages are the vertex's self-loop costs, and sup bounds |f| and
    |ell| on the grid.
    """
    n = grid.n_intervals
    h, dt = grid.h, grid.dt
    entry = problem.regime.kind == "entry"
    costs = problem.regime.costs
    hold_stages = [
        dt * data.zero_min
        for data in vertex_data(problem).edges
        if data.zero_min is not None
    ]

    def gidx(e: int, m: np.ndarray) -> np.ndarray:
        # Global state index: 0 is the vertex, then edge e's nodes 1..n.
        return np.where(m == 0, 0, e * n + m)

    next_idx: list[np.ndarray] = []
    stage: list[np.ndarray] = []
    s_nodes = grid.nodes
    sampled, sup = _sample_edges(problem, s_nodes)
    for e, (f, ell) in enumerate(sampled):
        feet = np.clip(s_nodes[:, None] + dt * f, 0.0, grid.l_max)
        snapped = np.rint(feet / h).astype(int)
        cost_grid = dt * ell
        came_from_inside = s_nodes[:, None] > 0.0
        if entry:
            # Leaving the vertex into this edge charges the entry cost.
            cost_grid = cost_grid + np.where(
                (~came_from_inside) & (snapped >= 1), costs[e], 0.0
            )
        else:
            # Hitting the vertex from inside this edge charges the exit cost.
            cost_grid = cost_grid + np.where(
                came_from_inside & (snapped == 0), costs[e], 0.0
            )
        # At the vertex, inward-pointing controls are infeasible: a state can
        # only remain at O with zero velocity (the hold actions), so an
        # artificial clipped hold at f < 0 must not be offered.
        cost_grid[0, :] = np.where(f[0, :] < 0.0, np.inf, cost_grid[0, :])
        next_idx.append(gidx(e, snapped))
        stage.append(cost_grid)
    return stage, next_idx, hold_stages, sup


def _action_table(stage, next_idx, hold_stages):
    """Stack the per-edge actions into one (n_states, n_actions) table of
    costs and one of successors, padded with inf.  The vertex row holds
    every edge's moves from the vertex, then the hold self-loops."""
    n = stage[0].shape[0] - 1
    n_vertex = sum(c.shape[1] for c in stage) + len(hold_stages)
    width = max(n_vertex, max(c.shape[1] for c in stage))
    cost = np.full((1 + len(stage) * n, width), np.inf)
    succ = np.zeros(cost.shape, dtype=int)
    col = 0
    for e, (c, nx) in enumerate(zip(stage, next_idx)):
        k = c.shape[1]
        cost[1 + e * n : 1 + (e + 1) * n, :k] = c[1:]
        succ[1 + e * n : 1 + (e + 1) * n, :k] = nx[1:]
        cost[0, col : col + k] = c[0]
        succ[0, col : col + k] = nx[0]
        col += k
    cost[0, col : col + len(hold_stages)] = hold_stages
    return cost, succ


def _path_sums(cost: np.ndarray, succ: np.ndarray, beta: float, rounds: int):
    """sum over k < 2**rounds of beta**k * cost[succ^k(s)] for every state s,
    by pointer doubling: each round doubles the summed length of every
    path, so the cost is rounds gathers, not 2**rounds."""
    for _ in range(rounds):
        cost = cost + beta * cost[succ]
        succ = succ[succ]
        beta *= beta
    return cost


def oracle_solve(
    problem: Problem,
    grid: GridParams,
    tol: float = 1e-9,
    max_iters: int | None = None,
) -> OracleSolution:
    """Howard policy iteration on the finite MDP over grid nodes plus the
    vertex.

    Transitions are Euler steps snapped to the nearest node with no
    interpolation.  From the vertex, moving into an edge charges its entry
    cost; reaching the vertex from inside an edge charges that edge's exit
    cost, per the cost regime.  The vertex state additionally carries one
    hold action per edge at that edge's cheapest zero-velocity hull cost:
    the control set is the convex hull of the samples, and without the hull
    point a problem whose stationary controls are all interpolated could
    not park at the vertex at all (entering an edge to chatter would charge
    its switching cost).

    Every action has one successor, so a policy's value is a discounted sum
    along a path, computed by pointer doubling until the unsummed tail is
    below rounding; no linear system is solved.  The first policy is greedy
    for zero values; each next one keeps a state's action unless another is
    strictly better.  It stops when one Bellman update of the evaluated
    values moves them by at most tol * min(1, (1 - beta) / beta), which puts
    them within tol of the fixed point (converged), or when the policy stops
    changing, or after max_iters policy evaluations (iterations).  The
    default cap is the sweep count value iteration would need.
    """
    n = grid.n_intervals
    lam, dt = problem.lam, grid.dt
    beta = math.exp(-lam * dt)
    stage, next_idx, hold_stages, sup = _snapped_mdp(problem, grid)
    cost, succ = _action_table(stage, next_idx, hold_stages)

    if max_iters is None:
        bound = sup / lam + float(sum(problem.regime.costs))
        max_iters = 2 * math.ceil(math.log(max(bound, 2 * tol) / tol) / (lam * dt))
    threshold = tol * min(1.0, (1.0 - beta) / beta)
    # After r rounds the unsummed tail is beta**(2**r) times a value, at most
    # machine epsilon times the value bound once beta**(2**r) <= eps.
    eps = np.finfo(float).eps
    rounds = max(0, math.ceil(math.log2(-math.log(eps) / (lam * dt))))

    states = np.arange(cost.shape[0])
    action = cost.argmin(axis=1)
    values = np.zeros(cost.shape[0])
    iterations = 0
    change = math.inf
    converged = False
    while iterations < max_iters:
        values = _path_sums(cost[states, action], succ[states, action], beta, rounds)
        iterations += 1
        q = cost + beta * values[succ]
        best = q.argmin(axis=1)
        low = q[states, best]
        change = float(np.abs(low - values).max())
        if change <= threshold:
            converged = True
            break
        improved = np.where(q[states, action] <= low, action, best)
        if np.array_equal(improved, action):
            break
        action = improved

    per_edge = []
    for e in range(problem.n_edges):
        u = np.empty(n + 1)
        u[0] = values[0]
        u[1:] = values[e * n + 1 : (e + 1) * n + 1]
        per_edge.append(u)
    return OracleSolution(
        values=tuple(per_edge),
        vertex_value=float(values[0]),
        grid=grid,
        iterations=iterations,
        final_change=change,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

def connect(
    problem: Problem,
    x1: NetworkPoint,
    x2: NetworkPoint,
    h_snap: float = DEFAULT_H_SNAP,
) -> tuple[ControlSchedule, float]:
    """Schedule driving x1 to within h_snap of x2, routed through the vertex
    when the edges differ, and the travel time tau it takes.

    Requires a positive controllability margin; both points must lie in the
    ball of radius margin / (2 * f_lipschitz) around the vertex (the whole
    junction when the dynamics are position-independent), where the fastest
    sampled controls keep speed at least margin/2.
    """
    report = _cached_validate(problem, 101, 4.0)
    if report.margin <= 0:
        raise ValueError("controllability margin is not positive")
    delta = report.margin
    r0 = math.inf if report.f_lipschitz == 0 else delta / (2 * report.f_lipschitz)
    for point in (x1, x2):
        if point.s > r0:
            raise ValueError(
                f"point ({point.edge}, {point.s:.6g}) is outside the "
                f"controllability ball of radius {r0:.6g}"
            )

    if x1 == x2:
        return ControlSchedule(()), 0.0

    speed_cap = max(
        abs(exprlang.evaluate(spec.velocity, 0.0, a))
        for spec in problem.edges
        for a in spec.controls
    )
    dt_int = h_snap / max(speed_cap * 1.5, delta / 2)

    def leg(edge: int, s_from: float, s_to: float) -> tuple[SchedulePiece | None, float]:
        if abs(s_from - s_to) <= h_snap:
            return None, s_from
        spec = problem.edge(edge)
        velocities = [exprlang.evaluate(spec.velocity, 0.0, a) for a in spec.controls]
        if s_to > s_from:
            a = spec.controls[int(np.argmax(velocities))]
        else:
            a = spec.controls[int(np.argmin(velocities))]
        s = s_from
        steps = 0
        while abs(s - s_to) > h_snap:
            s = max(0.0, s + dt_int * exprlang.evaluate(spec.velocity, s, a))
            steps += 1
            if steps * dt_int > 10 * (2 / delta) * (abs(s_from - s_to) + 1):
                raise RuntimeError("connect failed to make progress")
        return SchedulePiece(steps * dt_int, edge, a), s

    pieces = []
    tau = 0.0
    if x1.edge == x2.edge:
        piece, _ = leg(x1.edge, x1.s, x2.s)
        if piece is not None:
            pieces.append(piece)
            tau += piece.duration
    else:
        inward, _ = leg(x1.edge, x1.s, 0.0)
        if inward is not None:
            pieces.append(inward)
            tau += inward.duration
        outward, _ = leg(x2.edge, 0.0, x2.s)
        if outward is not None:
            pieces.append(outward)
            tau += outward.duration
    return ControlSchedule(tuple(pieces)), tau


# ---------------------------------------------------------------------------
# Greedy feedback simulation
# ---------------------------------------------------------------------------

def _interp(u: np.ndarray, grid: GridParams, s: float) -> float:
    pos = min(max(s, 0.0), grid.l_max) / grid.h
    lo = min(int(pos), u.size - 2)
    w = min(max(pos - lo, 0.0), 1.0)
    return float(u[lo] * (1.0 - w) + u[lo + 1] * w)


def simulate(
    problem: Problem,
    x0: NetworkPoint,
    field: ValueField,
    horizon: float,
    dt: float,
    h_snap: float | None = None,
) -> Trajectory:
    """Roll out the greedy one-step policy of a converged field.

    At interior points the control minimizes the one-step Bellman
    right-hand side.  Within h_snap of the vertex the policy compares, in
    this order: switching into each other edge (entry cost plus that edge's
    one-step value), parking at the vertex forever on the cheapest
    stationary control, and continuing into the current edge.  Parking is
    realized by the stationary control itself when one was sampled, else by
    chattering between the two sampled controls that generate the
    stationary hull point.  The greedy policy is a heuristic: it is not
    guaranteed optimal at the vertex, and is validated externally through
    cost dominance against the solved field.

    The rollout simulates the truncated model the field was solved for:
    like the scheme's feet, an Euler step that would pass the field's l_max
    ends at l_max, and Trajectory.left_domain records that this happened.
    The returned schedule then replays the untruncated model (in
    evaluate_cost) only up to the first clamp.  Raises ValueError when the
    field does not have one row per edge of the problem with a value other
    than NaN at every node of its grid (an oracle field has none at the
    per-edge vertex limits).
    """
    if field.values.shape != (problem.n_edges, field.grid.n_intervals + 1):
        n_edges, n_nodes = field.values.shape
        raise ValueError(
            f"field has {n_edges} edges of {n_nodes} nodes; the problem has "
            f"{problem.n_edges} edges and the grid {field.grid.n_intervals + 1} nodes"
        )
    if np.isnan(field.values).any():
        raise ValueError("the field has NaN nodes (an oracle field?)")
    if h_snap is None:
        h_snap = field.grid.h / 2
    lam = problem.lam
    beta = math.exp(-lam * dt)
    vdata = vertex_data(problem)
    stall_value = -vdata.tangential / lam
    entry = problem.regime.kind == "entry"
    costs = problem.regime.costs

    path = _Path(problem, x0, field.grid.l_max)
    segments: list[SchedulePiece] = []

    def record(piece_edge: int, control: float, duration: float):
        if (
            segments
            and segments[-1].edge == piece_edge
            and segments[-1].control == control
        ):
            merged = SchedulePiece(
                segments[-1].duration + duration, piece_edge, control
            )
            segments[-1] = merged
        else:
            segments.append(SchedulePiece(duration, piece_edge, control))

    n_steps = int(round(horizon / dt))
    for _ in range(n_steps):
        edge, s = path.edge, path.s
        spec = problem.edge(edge)
        if s <= h_snap:
            path.snap()
            # Candidate branches at the vertex, ties toward the earliest.
            best_kind = None
            best_value = math.inf
            for j in problem.junction.edge_labels:
                if j == edge:
                    continue
                data = vdata.edge(j)
                switch_cost = costs[j - 1] if entry else costs[edge - 1]
                controls = problem.edge(j).controls
                for a, f, ell in zip(controls, data.velocities, data.costs):
                    if f <= 0.0:
                        continue
                    value = switch_cost + dt * ell + beta * _interp(
                        field.values[j - 1], field.grid, dt * f
                    )
                    if value < best_value:
                        best_value = value
                        best_kind = ("switch", j, a, (f, ell))
            stall_branch = stall_value if entry else costs[edge - 1] + stall_value
            if stall_branch < best_value:
                best_value = stall_branch
                best_kind = ("stall", None, None, None)
            data = vdata.edge(edge)
            for a, f, ell in zip(spec.controls, data.velocities, data.costs):
                if f < 0.0:
                    # Inward controls cannot hold the state at the vertex;
                    # relaxed holds are covered by the stall branch.
                    continue
                value = dt * ell + beta * _interp(
                    field.values[edge - 1], field.grid, dt * f
                )
                if value < best_value:
                    best_value = value
                    # vertex_data snaps |f| <= ZERO_VELOCITY_TOL to 0, so a
                    # zero is evaluated again in the step.
                    best_kind = ("continue", edge, a, (f, ell) if f else None)

            if best_kind is None or best_kind[0] == "stall":
                # Park forever: accumulate the discounted stationary cost up
                # to the horizon and realize it with the generating controls.
                # The exit from the current edge, if one was due, was charged
                # on arrival at the vertex; parking charges nothing further.
                remaining = horizon - path.t
                ell0 = -vdata.tangential
                path.cost += ell0 * (1 - math.exp(-lam * remaining)) / lam * math.exp(
                    -lam * path.t
                )
                stall_edge, generator = _stall_generator(problem, vdata)
                _record_stall(
                    record, problem, stall_edge, generator, remaining, dt
                )
                path.edge, path.s, path.t = stall_edge, 0.0, horizon
                path.sample()
                break

            kind, target, a, first = best_kind
            if kind == "switch":
                # The exit charge, if due, already fell at the arrival time.
                path.edge = target
        else:
            candidates = []
            for a in spec.controls:
                f = exprlang.evaluate(spec.velocity, s, a)
                ell = exprlang.evaluate(spec.running_cost, s, a)
                value = dt * ell + beta * _interp(
                    field.values[edge - 1], field.grid, s + dt * f
                )
                candidates.append((value, a, (f, ell)))
            _, a, first = min(candidates, key=lambda item: item[0])

        record(path.edge, a, dt)
        path.advance(a, dt, first=first)

    return path.trajectory(ControlSchedule(tuple(segments)))


def _stall_generator(problem: Problem, vdata) -> tuple[int, tuple[int, ...]]:
    """Edge label and generating control indices of the cheapest stationary
    hull point (lowest edge label wins ties, sampled generators first)."""
    best = None
    for label in problem.junction.edge_labels:
        data = vdata.edge(label)
        for cost, gen in zip(data.zero_costs, data.zero_generators):
            key = (cost, label, len(gen))
            if best is None or key < best[0]:
                best = (key, label, gen)
    assert best is not None
    return best[1], best[2]


def _record_stall(record, problem: Problem, edge: int, generator, duration, dt):
    spec = problem.edge(edge)
    if len(generator) == 1:
        record(edge, spec.controls[generator[0]], duration)
        return
    # Chatter between the opposite-sign pair with the zero-velocity split.
    k_neg, k_pos = generator
    f_neg = exprlang.evaluate(spec.velocity, 0.0, spec.controls[k_neg])
    f_pos = exprlang.evaluate(spec.velocity, 0.0, spec.controls[k_pos])
    theta = f_pos / (f_pos - f_neg)  # weight on the negative-velocity control
    remaining = duration
    while remaining > 1e-12:
        step = min(dt, remaining)
        record(edge, spec.controls[k_pos], step * (1.0 - theta))
        record(edge, spec.controls[k_neg], step * theta)
        remaining -= step


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory) -> str:
    lines = ["t,edge,s,accumulated_cost"]
    for t, e, s, c in zip(traj.times, traj.edges, traj.positions, traj.accumulated):
        lines.append(
            f"{format(t, '.9g')},{e},{format(s, '.9g')},{format(c, '.9g')}"
        )
    return "\n".join(lines) + "\n"


def switches_to_csv(traj: Trajectory) -> str:
    lines = ["kind,edge,time,charged_cost"]
    for ev in traj.switches:
        lines.append(
            f"{ev.kind},{ev.edge},{format(ev.time, '.9g')},"
            f"{format(ev.charged_cost, '.9g')}"
        )
    return "\n".join(lines) + "\n"
