"""Independent cross-checks: trajectory costs, a brute-force MDP, reachability.

Nothing here shares solution machinery with the solver; from solver it takes
only the GridParams and ValueField containers.  The MDP in oracle_solve
snaps Euler steps to the nearest grid node instead of interpolating and
charges switching costs on the transitions that realize them.  It is solved
by its own policy iteration, which evaluates a policy by summing discounted
costs along its paths (pointer doubling) rather than by the solver's banded
linear solves, so agreement between the two is evidence rather than
tautology.  evaluate_cost replays a schedule, a tuple of SchedulePieces, and
integrates its discounted cost; connect constructs one between two points
near the vertex and certifies its travel time; simulate rolls out the greedy
feedback policy of a solved field.  Both step by _Path.step at the scheme's
rule, hamiltonian.time_step; it also charges the edge entries and exits.

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
from .hamiltonian import ZERO_VELOCITY_TOL, time_step, vertex_data
from .model import NetworkPoint, Problem, _sample_edges, validate
from .solver import GridParams, ValueField

__all__ = [
    "SchedulePiece",
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


def _check_h_snap(h_snap: float):
    if not 0.0 < h_snap < math.inf:
        raise ValueError(f"h_snap must be finite and positive, got {h_snap!r}")


@dataclass(frozen=True)
class SchedulePiece:
    """duration on edge under weight theta on control and 1 - theta on
    partner: control alone when theta = 1 with no partner, or a mix (such as
    a stationary action of hamiltonian.vertex_data) when 0 < theta < 1."""

    duration: float
    edge: int
    control: float
    theta: float = 1.0
    partner: float | None = None

    def __post_init__(self):
        if not 0.0 < self.duration < math.inf:
            raise ValueError(f"piece duration must be finite and positive, got {self.duration}")
        if not (self.theta == 1.0 if self.partner is None else 0.0 < self.theta < 1.0):
            raise ValueError(f"theta = {self.theta} with partner {self.partner!r}: need "
                             "theta = 1 and no partner, or 0 < theta < 1 and a partner")


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
    schedule: tuple[SchedulePiece, ...] | None = None
    # A step of the rollout would have gone beyond the field's l_max and
    # was held there, as the scheme holds its feet.
    left_domain: bool = False


# Problems are immutable and hashable, so reports can be memoized.
_cached_validate = functools.lru_cache(maxsize=64)(validate)


class _Path:
    """A trajectory under integration: its state (edge, s, t), the
    discounted cost so far with its switch charges, and its samples.  step
    is the one Euler step of simulate and evaluate_cost; one that would
    pass l_max ends at l_max, and clamped records that."""

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

    def step(self, f: float, ell: float, dt: float, weight: float):
        """One step of dt at velocity f on the current edge, charging the
        running cost ell at weight, the caller's hamiltonian.time_step weight
        for dt, and the switch charges that fall due: entry on leaving the
        vertex, exit on reaching it from inside."""
        s, t = self.s, self.t
        self.cost += math.exp(-self.problem.lam * t) * ell * weight
        s_new = s + dt * f
        self.t = t = t + dt
        if s_new <= 0.0:
            if s > 0.0 and not self.entry:
                self.cost += self._charge("exit", t)
            s_new = 0.0
        else:
            if s == 0.0 and self.entry:  # left the vertex
                self.cost += self._charge("entry", t)
            if s_new > self.l_max:
                s_new = self.l_max
                self.clamped = True
        self.s = s_new
        self.samples.append((t, self.edge, s_new, self.cost))

    def sample(self):
        """Append the current state: after a move that is not an Euler step."""
        self.samples.append((self.t, self.edge, self.s, self.cost))

    def trajectory(self, schedule: tuple[SchedulePiece, ...]) -> Trajectory:
        """The samples so far, with the tail bound at the current time (from
        the sup on [0, ceil(max(4, s))]); left_domain flags a clamp at l_max."""
        problem = self.problem
        times, edges, positions, running = zip(*self.samples)
        x_max = float(math.ceil(max(4.0, max(positions))))
        bound = _cached_validate(problem, 64, x_max).sup_bound
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
    schedule: tuple[SchedulePiece, ...],
    substeps: int = 16,
    h_snap: float = DEFAULT_H_SNAP,
) -> Trajectory:
    """Integrate the discounted cost of an explicit control schedule.

    Each piece takes substeps steps of duration/substeps by _Path.step, at
    the weight of hamiltonian.time_step.  Every substep evaluates its piece
    at the current s (ell before f, control before partner); a mix weighs the
    two by theta and 1 - theta, and a mixed |f| <= ZERO_VELOCITY_TOL is 0, as
    in vertex_data, so a stationary mix at O stays there and charges nothing.
    A piece naming a control outside its edge's list, or another edge while
    the state is beyond h_snap of the vertex, is rejected, as are substeps
    other than an int >= 1 and h_snap outside (0, inf), before any work is
    done.  The tail bound exp(-lam*T) * (sup_bound/lam + cheapest switching
    cost) covers the value of any optimal continuation after the horizon plus
    one imminent switch charge.

    Inward velocities at the vertex are projected (the state stays at 0),
    so a substep that overshoots the vertex is priced with O(dt) error;
    a schedule that deliberately parks on an inward control is priced at
    that control's cost even though no admissible trajectory realizes it.
    """
    if not isinstance(substeps, (int, np.integer)) or substeps < 1:
        raise ValueError(f"substeps must be an int >= 1, got {substeps!r}")
    _check_h_snap(h_snap)
    evaluate = exprlang.evaluate
    path = _Path(problem, x0)
    for piece in schedule:
        if piece.edge != path.edge:
            if path.s > h_snap:
                raise ValueError(
                    f"schedule switches to edge {piece.edge} while at "
                    f"({path.edge}, {path.s:.6g}): switch away from O"
                )
            path.snap()
            path.edge = piece.edge
        spec = problem.edge(path.edge)
        a, b, theta = piece.control, piece.partner, piece.theta
        for c in (a, b):
            if c is not None and c not in spec.controls:
                raise ValueError(f"control {c!r} is not in edge {path.edge}'s control list")
        dt = piece.duration / substeps
        weight, _ = time_step(problem.lam, dt)
        for _ in range(substeps):
            s = path.s
            ell = evaluate(spec.running_cost, s, a)
            f = evaluate(spec.velocity, s, a)
            if b is not None:
                ell = theta * ell + (1.0 - theta) * evaluate(spec.running_cost, s, b)
                f = theta * f + (1.0 - theta) * evaluate(spec.velocity, s, b)
                f = 0.0 if abs(f) <= ZERO_VELOCITY_TOL else f
            path.step(f, ell, dt, weight)
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
    """The snapped MDP as one table of actions, read off the sample table.

    Returns (cost, succ, sup): the (n_states, n_actions) cost and successor
    state of every action, padded with cost inf, and the bound sup on |f|
    and |ell|.  State 0 is the vertex, with every edge's controls (cost inf
    for inward ones) edge by edge, then the hold self-loops; node m >= 1 of
    edge e is state e * n_intervals + m, with its edge's controls.
    """
    n = grid.n_intervals
    h, dt = grid.h, grid.dt
    s = grid.nodes
    table = _sample_edges(problem, s)
    sup = table.sup()
    snapped = np.rint(np.clip(s[:, None] + dt * table.f, 0.0, grid.l_max) / h).astype(int)
    succ = np.where(snapped == 0, 0, n * np.arange(problem.n_edges)[:, None, None] + snapped)
    costs = np.asarray(problem.regime.costs)[:, None, None]
    came_from_inside = (s > 0.0)[:, None]
    if problem.regime.kind == "entry":
        # Leaving the vertex into an edge charges its entry cost.
        charged = ~came_from_inside & (snapped >= 1)
    else:
        # Hitting the vertex from inside an edge charges its exit cost.
        charged = came_from_inside & (snapped == 0)
    cost = dt * table.ell + np.where(charged, costs, 0.0)
    # At the vertex, inward-pointing controls are infeasible: a state can
    # only remain at O with zero velocity (the hold actions), so an
    # artificial clipped hold at f < 0 must not be offered.
    cost[:, 0] = np.where(table.f[:, 0] < 0.0, np.inf, cost[:, 0])
    holds = [
        dt * min(stationary)
        for actions in vertex_data(problem).edges
        if (stationary := [a.cost for a in actions if a.velocity == 0.0])
    ]

    moves = cost[:, 0][table.real]  # each edge's controls, edge by edge
    n_controls = cost.shape[2]
    out_cost = np.full((1 + n * problem.n_edges, max(moves.size + len(holds), n_controls)), np.inf)
    out_succ = np.zeros(out_cost.shape, dtype=int)
    out_cost[1:, :n_controls] = cost[:, 1:].reshape(-1, n_controls)
    out_succ[1:, :n_controls] = succ[:, 1:].reshape(-1, n_controls)
    out_cost[0, : moves.size + len(holds)] = np.append(moves, holds)
    out_succ[0, : moves.size] = succ[:, 0][table.real]
    return out_cost, out_succ, sup


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
    changing, or, as a safety bound, after twice the sweep count value
    iteration would need.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    n = grid.n_intervals
    lam, dt = problem.lam, grid.dt
    beta = math.exp(-lam * dt)
    cost, succ, sup = _snapped_mdp(problem, grid)

    bound = sup / lam + float(sum(problem.regime.costs))
    cap = 2 * math.ceil(math.log(max(bound, 2 * tol) / tol) / (lam * dt))
    threshold = tol * min(1.0, (1.0 - beta) / beta)
    # After r rounds the unsummed tail is beta**(2**r) times a value, at most
    # machine epsilon times the value bound once beta**(2**r) <= eps.
    eps = np.finfo(float).eps
    rounds = max(0, math.ceil(math.log2(-math.log(eps) / (lam * dt))))

    states = np.arange(cost.shape[0])
    action = cost.argmin(axis=1)
    for iterations in range(1, cap + 1):
        values = _path_sums(cost[states, action], succ[states, action], beta, rounds)
        q = cost + beta * values[succ]
        best = q.argmin(axis=1)
        low = q[states, best]
        change = float(np.abs(low - values).max())
        if change <= threshold:
            break
        improved = np.where(q[states, action] <= low, action, best)
        if np.array_equal(improved, action):
            break
        action = improved

    # The vertex state's value heads every edge's row.
    per_edge = np.insert(values[1:].reshape(problem.n_edges, n), 0, values[0], axis=1)
    return OracleSolution(
        values=tuple(per_edge),
        vertex_value=float(values[0]),
        grid=grid,
        iterations=iterations,
        final_change=change,
        converged=change <= threshold,
    )


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

def connect(
    problem: Problem,
    x1: NetworkPoint,
    x2: NetworkPoint,
    h_snap: float = DEFAULT_H_SNAP,
) -> tuple[tuple[SchedulePiece, ...], float]:
    """Schedule driving x1 to x2, routed through the vertex when the edges
    differ, and the travel time tau it takes.

    Each leg runs the edge's fastest sampled control toward its target (x2,
    or O on the way out of x1's edge) and lasts the travel time
    int ds / |f(s, a)| over the leg, by the trapezoid rule on nodes at most
    h_snap apart: exact for position-independent speeds, O(h_snap^2) off
    otherwise, so the leg lands on its target.  A leg shorter than h_snap
    is skipped.  Requires a positive controllability margin; both points
    must lie in the ball of radius margin / (2 * f_lipschitz) around the
    vertex (the whole junction when the dynamics are position-independent),
    where the fastest sampled controls keep speed at least margin/2.
    A leg's control is the first with the largest speed toward its target
    at O; its speeds come from one exprlang.evaluate_array call on the
    nodes np.linspace would place.  Raises ValueError when h_snap is not in
    (0, inf), and RuntimeError when a sampled speed along a leg is not
    finite or does not point toward the leg's target.
    """
    _check_h_snap(h_snap)
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
        return (), 0.0

    def leg(edge: int, s_from: float, s_to: float) -> SchedulePiece | None:
        length = abs(s_to - s_from)
        if length <= h_snap:
            return None
        spec = problem.edge(edge)
        direction = math.copysign(1.0, s_to - s_from)
        reach = [direction * exprlang.evaluate(spec.velocity, 0.0, b) for b in spec.controls]
        a = spec.controls[reach.index(max(reach))]  # the first fastest, as np.argmax
        intervals = math.ceil(length / h_snap)
        # np.linspace(s_from, s_to, intervals + 1), by its own formula
        nodes = np.arange(intervals + 1.0) * ((s_to - s_from) / intervals) + s_from
        nodes[-1] = s_to
        speed = direction * exprlang.evaluate_array(spec.velocity, nodes, a)
        if not 0.0 < speed.min() <= speed.max() < math.inf:  # nan fails too
            raise RuntimeError(
                f"connect: the speed of control {a!r} on edge {edge} does not "
                f"stay finite and toward s = {s_to:.6g}"
            )
        pace = (1.0 / speed).tolist()
        duration = length / intervals * (math.fsum(pace) - 0.5 * (pace[0] + pace[-1]))
        return SchedulePiece(duration, edge, a)

    if x1.edge == x2.edge:
        legs = [leg(x1.edge, x1.s, x2.s)]
    else:
        legs = [leg(x1.edge, x1.s, 0.0), leg(x2.edge, 0.0, x2.s)]
    pieces = tuple(piece for piece in legs if piece is not None)
    return pieces, math.fsum(piece.duration for piece in pieces)


# ---------------------------------------------------------------------------
# Greedy feedback simulation
# ---------------------------------------------------------------------------

def _interp(u: list[float], h: float, l_max: float, s: float) -> float:
    """Linear interpolation of one field row u, read as Python floats, on the
    grid of step h, at s clipped into [0, l_max] as the scheme clips its
    feet.  At or beyond the last node it takes the last node's value: l_max
    / h may round just above the interval count."""
    s = 0.0 if s < 0.0 else l_max if s > l_max else s
    pos = s / h
    lo = int(pos)
    if lo < len(u) - 1:
        w = pos - lo
    else:
        lo, w = len(u) - 2, 1.0
    return u[lo] * (1.0 - w) + u[lo + 1] * w


def simulate(
    problem: Problem,
    x0: NetworkPoint,
    field: ValueField,
    horizon: float,
    dt: float | None = None,
) -> Trajectory:
    """Roll out the greedy one-step policy of a converged field.

    The rollout steps with the dt the field was solved for, field.grid.dt, by
    the rule of hamiltonian.time_step.  At interior points the control is the
    first that minimizes the Bellman right-hand side
    weight*ell + beta*u(s + dt*f): the field is read once per rollout as
    Python floats and interpolated linearly at the foot clipped into
    [0, l_max], as the scheme's feet are.  f and ell of every control come
    from one call of the edge's compiled kernel (EdgeSpec.kernel, built once
    per edge); where that call raises or gives a value that is not finite, the
    step evaluates control by control, f before ell, and raises evaluate's
    EvalError.  Within h/2 of the vertex (h the field's grid step) the state
    snaps onto O and takes the first cheapest branch of vertex_data's v(O)
    list, chosen once: a move into an edge, the current one included, priced
    at its charge plus the step's cost and the discounted field value after
    it; or parking forever, priced at its charge and recorded as one schedule
    piece (a sampled control, or a pair and theta as one relaxed piece), which
    evaluate_cost replays.  Every step hands the chosen control's (f, ell) or
    the vertex action's (velocity, cost) to _Path.step, as replays do.

    The rollout simulates the truncated model the field was solved for:
    like the scheme's feet, an Euler step that would pass the field's l_max
    ends at l_max, and Trajectory.left_domain records that this happened.
    The returned schedule then replays the untruncated model (in
    evaluate_cost) only up to the first clamp.  Raises ValueError when the
    field does not fit the problem (ValueField.check_problem: a row count
    other than the problem's edges, another problem's digest, or NaN nodes,
    as in an oracle field), dt is given and is not the field's dt, the
    horizon is negative or so long that exp(-lam * horizon) underflows to
    0 (no cost accrues past it), or x0 lies off the field's domain (an
    edge label outside 1..N or s beyond l_max).
    """
    field.check_problem(problem)
    grid = field.grid
    if dt is not None and dt != grid.dt:
        raise ValueError(f"dt = {dt} is not the field's dt = {grid.dt}")
    dt = grid.dt
    if not 0.0 <= horizon < math.inf or math.exp(-problem.lam * horizon) == 0.0:
        raise ValueError(f"need a horizon >= 0 at which exp(-lam * horizon) > 0, got {horizon}")
    if x0.edge not in problem.junction.edge_labels or x0.s > grid.l_max:
        raise ValueError(
            f"x0 ({x0.edge}, {x0.s:.6g}) is off the field's domain: edges "
            f"1..{problem.n_edges}, s <= l_max = {grid.l_max:.6g}"
        )
    lam = problem.lam
    weight, beta = time_step(lam, dt)
    vdata = vertex_data(problem)
    path = _Path(problem, x0, grid.l_max)
    runs: list[list] = []  # [(edge, control, theta[, partner]), duration]

    def record(duration: float, *key):
        # A piece that continues the last one's relaxed control merges into it.
        if runs and runs[-1][0] == key:
            runs[-1][1] += duration
        else:
            runs.append([key, duration])

    values = field.values.tolist()
    h, l_max = grid.h, grid.l_max

    def vertex_value(branch):
        """The value of a branch of v(O) on the field."""
        if branch.kind == "park":
            return branch.charge
        act = vdata.edge(branch.edge)[branch.action]
        u = values[branch.edge - 1]
        return branch.charge + (weight * act.cost + beta * _interp(u, h, l_max, dt * act.velocity))

    # The branches do not depend on the state, so the first cheapest is the
    # vertex choice of every step: a move's control, or a park's pair.
    choice = min(vdata.value_branches, key=vertex_value)
    act = vdata.edge(choice.edge)[choice.action]
    a_vertex, *partner = (problem.edge(choice.edge).controls[k] for k in act.controls)

    evaluate = exprlang.evaluate
    rows = [(spec, spec.kernel, u) for spec, u in zip(problem.edges, values)]
    h_snap = h / 2
    n_steps = int(round(horizon / dt))
    for _ in range(n_steps):
        edge, s = path.edge, path.s
        if s <= h_snap:
            path.snap()
            if choice.kind == "park":
                # Park forever: accumulate the stationary action's discounted
                # cost up to the horizon and record it as one relaxed piece.
                # The exit from the current edge, if one was due, was charged
                # on arrival at the vertex.
                remaining = horizon - path.t
                path.cost += (
                    act.cost * (1 - math.exp(-lam * remaining)) / lam * math.exp(-lam * path.t)
                )
                record(remaining, choice.edge, a_vertex, act.theta, *partner)
                path.edge, path.s, path.t = choice.edge, 0.0, horizon
                path.sample()
                break
            edge, a, move = choice.edge, a_vertex, (act.velocity, act.cost)
        else:
            # The first control with the least one-step Bellman value, from
            # f and ell of every control in one kernel call; where that
            # raises or sums to a value that is not finite, the controls go
            # through evaluate, which raises its EvalError where one fails.
            spec, kernel, u = rows[edge - 1]
            try:
                pairs = kernel(s)
            except (ArithmeticError, ValueError):
                pairs = (math.nan,)
            if not math.isfinite(sum(pairs)):
                pairs = [evaluate(tree, s, b) for b in spec.controls
                         for tree in (spec.velocity, spec.running_cost)]
            best, pair = None, iter(pairs)
            for b, f, ell in zip(spec.controls, pair, pair):
                value = weight * ell + beta * _interp(u, h, l_max, s + dt * f)
                if best is None or value < best:
                    best, a, move = value, b, (f, ell)

        path.edge = edge
        record(dt, edge, a, 1.0)
        path.step(*move, dt, weight)

    return path.trajectory(tuple(SchedulePiece(duration, *key) for key, duration in runs))


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory) -> str:
    lines = ["t,edge,s,accumulated_cost"]
    columns = (traj.times, traj.edges, traj.positions, traj.accumulated)
    for t, e, s, c in zip(*(column.tolist() for column in columns)):
        lines.append(f"{t:.9g},{e},{s:.9g},{c:.9g}")
    return "\n".join(lines) + "\n"


def switches_to_csv(traj: Trajectory) -> str:
    lines = ["kind,edge,time,charged_cost"]
    for ev in traj.switches:
        lines.append(
            f"{ev.kind},{ev.edge},{format(ev.time, '.9g')},"
            f"{format(ev.charged_cost, '.9g')}"
        )
    return "\n".join(lines) + "\n"
