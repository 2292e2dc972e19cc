"""Semi-Lagrangian scheme for the junction Hamilton-Jacobi systems, solved
by Howard's policy iteration on a coarse-to-fine ladder of grids.

Each edge is truncated to [0, l_max] and discretized with mesh h.  The
unknown per edge i is the continuous extension u_i of the value function's
restriction to that edge, with u_i[0] holding the one-sided limit at the
vertex; the value AT the vertex itself is reconstructed after convergence
(entry costs make it smaller than the edge limits in general).

The scheme is the fixed point of the synchronous update (sweep)

    interior s:  u_i(s) <- min over controls a of
                 dt*ell_i(s,a) + exp(-lam*dt) * Interp(u_i, s + dt*f_i(s,a))

with feet clipped to [0, l_max] (clipping at the far end acts as constant
extrapolation of the value beyond the truncation, which keeps the
truncation error O(|u'(l_max)|/lam) instead of polluting the whole edge
with an artificial state constraint).  At the vertex, with

    B3_j = min over nonnegative-velocity pairs (v, ell) of edge j of
           dt*ell + exp(-lam*dt) * Interp(u_j, dt*v)

the update takes the cheapest of: parking at the vertex forever, moving
into the own edge, or switching to another edge and immediately moving
there:

    entry costs:  u_i(0) <- min( stall,  B3_i,  min_{j != i} c_j + B3_j )
    exit costs:   u_i(0) <- min( d_i + stall,  B3_i,  min_{j != i} d_i + B3_j )

where stall = -H_tangential/lam.  Every branch is either constant or
passes through exp(-lam*dt) times a convex combination of old values, so a
sweep contracts the sup norm by beta = exp(-lam*dt) and is monotone; the
fixed point is unique.  Zero switching costs need no special casing: with
c_j = 0 the switch branch makes the vertex limits of all zero-cost edges
agree, which is the continuous shared component of the mixed regime, and
with all costs zero the update collapses to the classical junction
condition min(stall, min_j B3_j).

The update is a min over a finite set of actions (a control per node, a
branch per vertex limit) of affine beta-contractions, so solve() reaches
its fixed point by Howard's policy iteration in finitely many steps:
evaluate the current policy exactly by solving the linear system
u = c + beta * P u, then switch every node to its greedy action
(policy()).  On each edge the policy's rows form a strictly diagonally
dominant banded system (a foot lies within dt*sup/h + 1 nodes), solved
for all edges at once by block cyclic reduction in ceil(log2(n/b))
vectorized levels for block size b, with the vertex limit kept as a
second right-hand side; an N x N solve then couples the vertex limits.
To keep the number of policy evaluations small as h shrinks, it runs on
a ladder of grids, each coarser one doubling h and dt (when n_intervals
is even and the coarser grid is admissible); each finer grid starts from
the greedy policy of one sweep of the coarser result interpolated onto
it.  It stops once one sweep moves the field by at most tol*(1-beta),
which puts the field within tol of the fixed point.  SolveReport.iterations
counts policy evaluations over all grids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import VertexData, vertex_data
from .model import Problem, _sample_edges

__all__ = [
    "GridParams",
    "ValueField",
    "SolveReport",
    "DiscreteSystem",
    "build_system",
    "constant_field",
    "sweep",
    "Policy",
    "policy",
    "solve",
    "residual",
    "field_to_csv",
    "field_from_csv",
    "field_to_json",
    "field_from_json",
]


@dataclass(frozen=True)
class GridParams:
    """Mesh size h, per-edge truncation length l_max, and time step dt."""

    h: float
    l_max: float
    dt: float

    def __post_init__(self):
        if self.h <= 0 or self.dt <= 0:
            raise ValueError("h and dt must be positive")
        if self.l_max < 10 * self.h:
            raise ValueError("l_max must be at least 10 * h")
        n = self.l_max / self.h
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ValueError("l_max must be an integer multiple of h")

    @property
    def n_intervals(self) -> int:
        return round(self.l_max / self.h)

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_intervals + 1) * self.h


@dataclass
class ValueField:
    """Per-edge node values; values[i][0] is edge i's limit at the vertex."""

    values: tuple[np.ndarray, ...]
    grid: GridParams
    vertex_reconstruction: float | None = None

    def copy(self) -> "ValueField":
        return ValueField(
            values=tuple(u.copy() for u in self.values),
            grid=self.grid,
            vertex_reconstruction=self.vertex_reconstruction,
        )

    def sup_distance(self, other: "ValueField") -> float:
        return max(
            float(np.abs(u - v).max()) for u, v in zip(self.values, other.values)
        )


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_change: float
    max_residual: float
    converged: bool
    # With some zero switching cost only: did the converged vertex limits
    # satisfy the shared-component inequality for the positive-cost edges?
    mixed_vertex_check: bool | None = None
    # Policy evaluations on each grid of the coarse-to-fine ladder, coarsest
    # first; they sum to iterations.
    level_iterations: tuple[int, ...] = ()


class DiscreteSystem:
    """Precomputed semi-Lagrangian data for one problem on one grid."""

    # Every update runs in the calling thread; perfbench/run.py reports this.
    workers = 1

    def __init__(self, problem: Problem, grid: GridParams):
        self._build(problem, grid, vertex_data(problem))

    def _coarser(self) -> "DiscreteSystem":
        """The system on the grid with h and dt doubled.  It shares this
        system's vertex data, which does not depend on the grid."""
        grid = GridParams(h=2 * self.grid.h, l_max=self.grid.l_max, dt=2 * self.grid.dt)
        coarse = DiscreteSystem.__new__(DiscreteSystem)
        coarse._build(self.problem, grid, self.vertex)
        return coarse

    def _build(self, problem: Problem, grid: GridParams, vertex: VertexData):
        self.problem = problem
        self.grid = grid
        self.beta = math.exp(-problem.lam * grid.dt)
        self.vertex = vertex
        self.stall_value = -self.vertex.tangential / problem.lam

        n = grid.n_intervals
        s = grid.nodes
        self.n_nodes = n + 1
        self.foot_lo: list[np.ndarray] = []
        self.foot_w: list[np.ndarray] = []
        self.stage: list[np.ndarray] = []
        self.vertex_lo: list[np.ndarray] = []
        self.vertex_w: list[np.ndarray] = []
        self.vertex_stage: list[np.ndarray] = []

        sampled, sup = _sample_edges(problem, s)
        for label, (f, ell) in enumerate(sampled, start=1):
            lo, w = self._foot_weights(s[:, None] + grid.dt * f)
            self.foot_lo.append(lo)
            self.foot_w.append(w)
            self.stage.append(grid.dt * ell)

            pairs = self.vertex.edge(label).plus_pairs
            v = np.asarray([p[0] for p in pairs])
            pell = np.asarray([p[1] for p in pairs])
            vlo, vw = self._foot_weights(grid.dt * v)
            self.vertex_lo.append(vlo)
            self.vertex_w.append(vw)
            self.vertex_stage.append(grid.dt * pell)

        self.sup_bound = sup
        max_speed = grid.dt * sup
        if max_speed > grid.l_max / 4:
            raise ValueError(
                f"dt too large: dt * bound = {max_speed:g} exceeds l_max/4"
            )
        self.value_bound = sup / problem.lam + float(sum(problem.regime.costs))

        # Vertex branches of edge e as (target edge, pair index), in the
        # order ties resolve toward: switch to each other edge j, park at
        # the vertex (target -1), continue into edge e.  vertex_const[e]
        # holds each branch's switch cost, the parking value, or 0.
        costs = problem.regime.costs
        entry = problem.regime.kind == "entry"
        self.vertex_branches: list[list[tuple[int, int]]] = []
        self.vertex_const: list[np.ndarray] = []
        for e in range(problem.n_edges):
            branches, const = [], []
            for j in range(problem.n_edges):
                if j != e:
                    n_pairs = self.vertex_stage[j].size
                    branches += [(j, q) for q in range(n_pairs)]
                    const += [costs[j] if entry else costs[e]] * n_pairs
            park = self.stall_value if entry else costs[e] + self.stall_value
            n_pairs = self.vertex_stage[e].size
            branches += [(-1, 0)] + [(e, q) for q in range(n_pairs)]
            const += [park] + [0.0] * n_pairs
            self.vertex_branches.append(branches)
            self.vertex_const.append(np.asarray(const))

    def _foot_weights(self, feet: np.ndarray):
        """Clip feet to the grid and split into (lower index, upper weight)."""
        n = self.grid.n_intervals
        feet = np.clip(feet, 0.0, self.grid.l_max)
        pos = feet / self.grid.h
        lo = np.minimum(pos.astype(int), n - 1)
        w = np.clip(pos - lo, 0.0, 1.0)
        return lo, w

    def check_field(self, field: ValueField):
        if len(field.values) != self.problem.n_edges:
            raise ValueError("field edge count does not match the system")
        for u in field.values:
            if u.shape != (self.n_nodes,):
                raise ValueError("field node count does not match the system")

    def default_max_iters(self, tol: float) -> int:
        """Sweeps value iteration would need from the a-priori bound; a
        generous cap on policy evaluations, which need far fewer."""
        lam_dt = self.problem.lam * self.grid.dt
        return 2 * math.ceil(math.log(max(self.value_bound, tol * 2) / tol) / lam_dt)


def build_system(problem: Problem, grid: GridParams) -> DiscreteSystem:
    """Precompute feet, interpolation weights, stage costs, and vertex data."""
    return DiscreteSystem(problem, grid)


def constant_field(system: DiscreteSystem, value: float) -> ValueField:
    return ValueField(
        values=tuple(
            np.full(system.n_nodes, float(value)) for _ in range(system.problem.n_edges)
        ),
        grid=system.grid,
    )


def _candidates(field: ValueField, system: DiscreteSystem):
    """Right-hand side of the update for every action: per edge, an
    (n_nodes, n_controls) array for the interior and one value per entry of
    system.vertex_branches[e] for the vertex limit."""
    system.check_field(field)
    n_edges = system.problem.n_edges
    u = field.values

    def one_step(values, lo, w, stage):
        return stage + system.beta * (values[lo] * (1.0 - w) + values[lo + 1] * w)

    interiors = [
        one_step(u[e], system.foot_lo[e], system.foot_w[e], system.stage[e])
        for e in range(n_edges)
    ]
    # One-step values of moving from the vertex into each edge, per pair.
    steps = [
        one_step(u[j], system.vertex_lo[j], system.vertex_w[j], system.vertex_stage[j])
        for j in range(n_edges)
    ]

    park = np.zeros(1)
    vertex = []
    for e in range(n_edges):
        pieces = [steps[j] for j in range(n_edges) if j != e] + [park, steps[e]]
        vertex.append(system.vertex_const[e] + np.concatenate(pieces))
    return interiors, vertex


def sweep(field: ValueField, system: DiscreteSystem) -> tuple[ValueField, float]:
    """One synchronous update of all nodes; returns the new field and the
    sup-norm change."""
    return _minimize(field, system, *_candidates(field, system))


def _minimize(field, system, interiors, vertex) -> tuple[ValueField, float]:
    """sweep() from the candidates of field."""
    new_values = []
    change = 0.0
    for u, interior, branches in zip(field.values, interiors, vertex):
        new_u = interior.min(axis=1)
        new_u[0] = branches.min()
        change = max(change, float(np.abs(new_u - u).max()))
        new_values.append(new_u)
    return ValueField(tuple(new_values), system.grid, None), change


@dataclass(frozen=True, eq=False)
class Policy:
    """One action per node: controls[e][k] indexes edge e's controls at node
    k (unused at k = 0), vertex[e] indexes system.vertex_branches[e]."""

    controls: tuple[np.ndarray, ...]
    vertex: tuple[int, ...]

    def same_as(self, other: "Policy") -> bool:
        return self.vertex == other.vertex and all(
            np.array_equal(a, b) for a, b in zip(self.controls, other.controls)
        )


def _argmin(candidates: np.ndarray, current: np.ndarray | None) -> np.ndarray:
    """Argmin over the last axis, ties toward the lowest index; where
    current is given, its action is kept unless another is strictly
    better."""
    best = candidates.argmin(axis=-1)
    if current is None:
        return best
    kept = np.take_along_axis(candidates, current[..., None], axis=-1)[..., 0]
    low = np.take_along_axis(candidates, best[..., None], axis=-1)[..., 0]
    return np.where(kept <= low, current, best)


def policy(
    field: ValueField, system: DiscreteSystem, current: Policy | None = None
) -> Policy:
    """Greedy policy of a field: the argmin of the candidates whose min is
    sweep().  With current given, its actions are kept where no other
    action is strictly better."""
    return _greedy(*_candidates(field, system), current)


def _greedy(interiors, vertex, current: Policy | None) -> Policy:
    """policy() from the candidates of a field."""
    controls = tuple(
        _argmin(c, None if current is None else current.controls[e])
        for e, c in enumerate(interiors)
    )
    branches = tuple(
        int(_argmin(c, None if current is None else np.asarray(current.vertex[e])))
        for e, c in enumerate(vertex)
    )
    return Policy(controls, branches)


def _banded_solve(band: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray:
    """Solve a batch of strictly row diagonally dominant banded systems by
    block cyclic reduction.

    band[s, r, p + d] is the coefficient of unknown r + d in row r of
    system s (p bands below the diagonal, q = width - 1 - p above; entries
    that point outside 0..n-1 must be zero), and rhs[s, r] holds the
    right-hand sides of row r.  With block size b = max(p, q, 1) each
    system is block tridiagonal; n is padded to a multiple of b with
    identity rows, then _cyclic_reduction solves all systems at once.

    No pivoting is needed across blocks: odd-even reduction is Gaussian
    elimination of a symmetrically permuted matrix, which keeps the
    diagonal on the diagonal, and every Schur complement of a strictly
    row diagonally dominant matrix is again strictly row diagonally
    dominant, so every diagonal block a level inverts is nonsingular and
    no row exchanges between blocks are needed.
    """
    n_sys, n, width = band.shape
    q = width - 1 - p
    b = max(p, q, 1)
    m = -(-n // b)
    rows = np.arange(m * b)
    cols = (rows % b)[:, None] + np.arange(-p, q + 1) + b
    # wide[s, r, c]: coefficient of unknown r - r % b - b + c in row r, so
    # columns [0, b), [b, 2b) and [2b, 3b) hold the lower, diagonal and
    # upper blocks of row block r // b.
    wide = np.zeros((n_sys, m * b, 3 * b))
    wide[:, rows[:n, None], cols[:n]] = band
    wide[:, rows[n:], rows[n:] % b + b] = 1.0
    wide = wide.reshape(n_sys, m, b, 3 * b)
    padded = np.zeros((n_sys, m * b, rhs.shape[2]))
    padded[:, :n] = rhs
    x = _cyclic_reduction(
        wide[..., :b],
        wide[..., b : 2 * b],
        wide[..., 2 * b :],
        padded.reshape(n_sys, m, b, -1),
    )
    return x.reshape(n_sys, m * b, -1)[:, :n]


def _cyclic_reduction(lower, diag, upper, rhs):
    """Solve lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i] over
    the block axis (axis 1) for every system at once; lower[:, 0] and
    upper[:, -1] are ignored.  Each level eliminates the odd blocks with
    one batched solve and recurses on the even ones, so a system of m
    blocks takes ceil(log2 m) levels."""
    m, b = diag.shape[1], diag.shape[2]
    if m == 1:
        return np.linalg.solve(diag, rhs)
    # odd[k] = diag^-1 [lower | upper | rhs] of block 2k+1, so that
    # x[2k+1] = odd[k][:, 2b:] - odd[k][:, :b] x[2k] - odd[k][:, b:2b] x[2k+2].
    odd = np.linalg.solve(
        diag[:, 1::2], np.concatenate((lower[:, 1::2], upper[:, 1::2], rhs[:, 1::2]), -1)
    )
    # Even block 2k reads odd blocks 2k-1 and 2k+1: pad so both exist.
    zero = np.zeros_like(odd[:, :1])
    odd = np.concatenate([zero, odd] + [zero] * (m % 2), axis=1)
    left = lower[:, ::2] @ odd[:, :-1]
    right = upper[:, ::2] @ odd[:, 1:]
    x_even = _cyclic_reduction(
        -left[..., :b],
        diag[:, ::2] - left[..., b : 2 * b] - right[..., :b],
        -right[..., b : 2 * b],
        rhs[:, ::2] - left[..., 2 * b :] - right[..., 2 * b :],
    )
    x = np.empty_like(rhs)
    x[:, ::2] = x_even
    # Odd block 2k+1 reads even blocks 2k and 2k+2: pad so both exist.
    zero = np.zeros_like(x_even[:, :1])
    x_even = np.concatenate([x_even] + [zero] * (1 - m % 2), axis=1)
    odd = odd[:, 1 : 1 + m // 2]
    x[:, 1::2] = (
        odd[..., 2 * b :]
        - odd[..., :b] @ x_even[:, :-1]
        - odd[..., b : 2 * b] @ x_even[:, 1:]
    )
    return x


def _evaluate(pol: Policy, system: DiscreteSystem) -> ValueField:
    """Exact value of a fixed policy: the solution of u = c + beta * P u.

    On each edge the rows of nodes 1..n form a banded system in which the
    vertex limit u[0] appears only on the right-hand side, so its solution
    is u[1:] = y + z * u[0] for two right-hand sides y and z.  The chosen
    vertex branches then give an N x N system for the vertex limits.
    """
    n = system.n_nodes - 1
    n_edges = system.problem.n_edges
    beta = system.beta
    k = np.arange(1, n + 1)
    lo = np.stack([system.foot_lo[e][k, pol.controls[e][1:]] for e in range(n_edges)])
    w = np.stack([system.foot_w[e][k, pol.controls[e][1:]] for e in range(n_edges)])
    stage = np.stack([system.stage[e][k, pol.controls[e][1:]] for e in range(n_edges)])

    # Row k reads node lo with weight beta*(1-w) and node lo+1 with beta*w;
    # node m > 0 is unknown m-1 of the edge's system.
    interior = lo >= 1
    p = int(max(0, (k - lo - 1).max(), (k - lo)[interior].max(initial=0)))
    q = int(max(0, (lo + 1 - k).max()))
    band = np.zeros((n_edges, n, p + q + 1))
    band[:, :, p] = 1.0
    rows = np.broadcast_to(np.arange(n), lo.shape)
    edges = np.broadcast_to(np.arange(n_edges)[:, None], lo.shape)
    band[edges, rows, lo + 1 - k + p] -= beta * w
    band[edges, rows, np.where(interior, lo - k + p, p)] -= np.where(
        interior, beta * (1.0 - w), 0.0
    )
    rhs = np.stack([stage, np.where(interior, 0.0, beta * (1.0 - w))], axis=-1)
    solution = _banded_solve(band, rhs, p)
    # u_j[m] = y[j, m] + z[j, m] * u_j[0] at every node m, the vertex included.
    y = np.concatenate((np.zeros((n_edges, 1)), solution[..., 0]), axis=1)
    z = np.concatenate((np.ones((n_edges, 1)), solution[..., 1]), axis=1)

    matrix = np.eye(n_edges)
    const = np.zeros(n_edges)
    for e in range(n_edges):
        index = pol.vertex[e]
        target, pair = system.vertex_branches[e][index]
        const[e] = system.vertex_const[e][index]
        if target < 0:
            continue
        const[e] += system.vertex_stage[target][pair]
        vlo = int(system.vertex_lo[target][pair])
        vw = float(system.vertex_w[target][pair])
        for m, weight in ((vlo, beta * (1.0 - vw)), (vlo + 1, beta * vw)):
            const[e] += weight * y[target, m]
            matrix[e, target] -= weight * z[target, m]
    limits = np.linalg.solve(matrix, const)
    values = tuple(y[e] + z[e] * limits[e] for e in range(n_edges))
    return ValueField(values, system.grid, None)


def _reconstruct_vertex(field: ValueField, system: DiscreteSystem) -> float:
    limits = [float(u[0]) for u in field.values]
    costs = system.problem.regime.costs
    if system.problem.regime.kind == "entry":
        best = min(v + c for v, c in zip(limits, costs))
    else:
        best = min(limits)
    return min(best, system.stall_value)


def residual(field: ValueField, system: DiscreteSystem):
    """|u - update(u)| per node and its max over all nodes."""
    updated, _ = sweep(field, system)
    per_edge = tuple(
        np.abs(u - v) for u, v in zip(field.values, updated.values)
    )
    return per_edge, max(float(r.max()) for r in per_edge)


def _ladder(system: DiscreteSystem) -> list[DiscreteSystem]:
    """Systems on successively coarser grids, h and dt doubled at each step
    (which keeps dt/h fixed), coarsest first and ending with system."""
    levels = [system]
    while levels[0].grid.n_intervals % 2 == 0:
        try:
            levels.insert(0, levels[0]._coarser())
        except ValueError:
            break
    return levels


def _iterate(
    system: DiscreteSystem,
    tol: float,
    max_iters: int | None,
    init: ValueField | None,
) -> tuple[ValueField, SolveReport]:
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters is None:
        max_iters = system.default_max_iters(tol)
    levels = _ladder(system)
    coarsest = levels[0]
    if init is None:
        field = constant_field(coarsest, system.sup_bound / system.problem.lam)
    else:
        system.check_field(init)
        stride = system.grid.n_intervals // coarsest.grid.n_intervals
        field = ValueField(
            tuple(u[::stride].copy() for u in init.values), coarsest.grid
        )

    # Howard's policy iteration on each level.  A finer level starts from
    # the greedy policy of one sweep of the coarser field interpolated onto
    # its nodes: with dt > h the interpolated field alone seeds policies
    # whose flaws take one evaluation per node to undo (entry-basic at
    # dt = 2h: 91 evaluations instead of 6).  A level ends when one sweep
    # moves its field by at most tol*(1-beta), which puts the field within
    # tol of the level's fixed point, or when the policy stops changing.
    budget = max_iters
    counts = []
    for level in levels:
        change = None
        if level is not coarsest:
            nodes = level.grid.nodes
            field = ValueField(
                tuple(np.interp(nodes, field.grid.nodes, u) for u in field.values),
                level.grid,
            )
            if budget > 0:
                field, _ = sweep(field, level)
        count = 0
        current = policy(field, level) if budget > 0 else None
        while count < budget:
            field = _evaluate(current, level)
            count += 1
            candidates = _candidates(field, level)
            _, change = _minimize(field, level, *candidates)
            if change <= tol * (1.0 - level.beta):
                break
            improved = _greedy(*candidates, current)
            if improved.same_as(current):
                break
            current = improved
        budget -= count
        counts.append(count)

    field.vertex_reconstruction = _reconstruct_vertex(field, system)
    if change is None:
        # The budget ran out before the requested grid evaluated a policy.
        _, change = residual(field, system)

    bound = system.value_bound + 10 * tol
    for u in field.values:
        if not np.isfinite(u).all() or float(np.abs(u).max()) > bound:
            raise RuntimeError("converged field violates the a-priori value bound")

    report = SolveReport(
        iterations=sum(counts),
        final_change=change,
        max_residual=change,
        converged=change <= tol * (1.0 - system.beta),
        level_iterations=tuple(counts),
    )
    return field, report


def solve(
    problem: Problem,
    grid: GridParams,
    tol: float = 1e-9,
    max_iters: int | None = None,
    init: ValueField | None = None,
) -> tuple[ValueField, SolveReport]:
    """Solve for the fixed point of sweep() and reconstruct the vertex value.

    max_iters caps the policy evaluations summed over the grid ladder; when
    it runs out on a coarse grid, that grid's field is interpolated onto
    the requested one and the report says not converged.  init only seeds
    the first policy.

    Zero switching costs need no other scheme: the vertex update makes the
    limits of all zero-cost edges agree (their shared value is the
    continuous component).  When some cost is zero, the report's
    mixed_vertex_check says whether the converged limits satisfy the
    shared-component inequality to within 10*tol: with entry costs the
    shared value dominates every positive-cost edge limit, with exit costs
    (a mirrored construction) it is dominated by them.  With every cost
    positive it is None.
    """
    system = build_system(problem, grid)
    field, report = _iterate(system, tol, max_iters, init)
    zero = problem.regime.zero_cost_edges
    if not zero:
        return field, report
    shared = max(float(field.values[i - 1][0]) for i in zero)
    slack = 10 * tol
    limits = [
        float(field.values[label - 1][0])
        for label in problem.junction.edge_labels
        if label not in zero
    ]
    if problem.regime.kind == "entry":
        ok = all(shared >= limit - slack for limit in limits)
    else:
        ok = all(shared <= limit + slack for limit in limits)
    return field, replace(report, mixed_vertex_check=ok)


# ---------------------------------------------------------------------------
# Field import/export
# ---------------------------------------------------------------------------

def _fmt_csv(x: float) -> str:
    return format(float(x), ".9g")


def field_to_csv(field: ValueField) -> str:
    """Rows edge,s,value (edge then s ascending), a row with edge 0 carrying
    the vertex reconstruction, then a comment line with the exact grid."""
    lines = ["edge,s,value"]
    s = field.grid.nodes
    for e, u in enumerate(field.values, start=1):
        for k in range(u.size):
            lines.append(f"{e},{_fmt_csv(s[k])},{_fmt_csv(u[k])}")
    recon = field.vertex_reconstruction
    lines.append(f"0,0,{_fmt_csv(recon)}" if recon is not None else "0,0,nan")
    g = field.grid
    lines.append(f"# grid h={g.h:.17g} l_max={g.l_max:.17g} dt={g.dt:.17g}")
    return "\n".join(lines) + "\n"


def _parse_grid_line(line: str) -> GridParams:
    """Read the '# grid h=... l_max=... dt=...' line of field_to_csv."""
    words = line[1:].split()
    if not words or words[0] != "grid":
        raise ValueError(f"bad comment line {line!r}")
    try:
        values = {k: float(v) for k, v in (w.split("=", 1) for w in words[1:])}
        return GridParams(h=values["h"], l_max=values["l_max"], dt=values["dt"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad grid line {line!r}: {exc}") from None


def field_from_csv(text: str) -> ValueField:
    """Inverse of field_to_csv.  Files without the grid line (written before
    it existed) are read with dt = h."""
    rows: dict[int, list[tuple[float, float]]] = {}
    recon = None
    stated = None
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != "edge,s,value":
        raise ValueError("expected header 'edge,s,value'")
    for line in lines[1:]:
        if line.startswith("#"):
            stated = _parse_grid_line(line)
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"bad field row {line!r}")
        edge, s, value = int(parts[0]), float(parts[1]), float(parts[2])
        if edge == 0:
            recon = value if math.isfinite(value) else None
        else:
            rows.setdefault(edge, []).append((s, value))
    if not rows:
        raise ValueError("no edge rows in field file")
    labels = sorted(rows)
    if labels != list(range(1, len(labels) + 1)):
        raise ValueError(f"edge labels must be 1..N, got {labels}")
    values = []
    grids = set()
    for label in labels:
        pairs = sorted(rows[label])
        s = np.asarray([p[0] for p in pairs])
        if len(s) < 2:
            raise ValueError(f"edge {label}: need at least 2 nodes")
        h = s[1] - s[0]
        if not np.allclose(np.diff(s), h):
            raise ValueError(f"edge {label}: nodes are not uniformly spaced")
        grids.add((round(float(h), 12), round(float(s[-1]), 12), len(s)))
        values.append(np.asarray([p[1] for p in pairs]))
    if len(grids) != 1:
        raise ValueError("edges carry inconsistent grids")
    h, l_max, n_nodes = next(iter(grids))
    if stated is None:
        return ValueField(tuple(values), GridParams(h=h, l_max=l_max, dt=h), recon)
    if n_nodes != stated.n_intervals + 1 or not math.isclose(
        h, stated.h, rel_tol=1e-6
    ):
        raise ValueError("the rows do not match the file's grid line")
    return ValueField(tuple(values), stated, recon)


def field_to_json(field: ValueField, report: SolveReport | None = None) -> str:
    """Deterministic JSON; floats are written by repr, so they read back
    exactly."""
    g = field.grid
    s = g.nodes.tolist()
    recon = field.vertex_reconstruction
    obj = {
        "grid": {"h": float(g.h), "l_max": float(g.l_max), "dt": float(g.dt)},
        "vertex_reconstruction": None if recon is None else float(recon),
        "edges": [
            {"edge": e, "s": s, "values": u.tolist()}
            for e, u in enumerate(field.values, start=1)
        ],
    }
    if report is not None:
        obj["report"] = {
            "iterations": report.iterations,
            "final_change": float(report.final_change),
            "max_residual": float(report.max_residual),
            "converged": bool(report.converged),
            "mixed_vertex_check": report.mixed_vertex_check,
            "level_iterations": list(report.level_iterations),
        }
    return json.dumps(obj) + "\n"


def field_from_json(text: str) -> ValueField:
    obj = json.loads(text)
    grid = GridParams(
        h=float(obj["grid"]["h"]),
        l_max=float(obj["grid"]["l_max"]),
        dt=float(obj["grid"]["dt"]),
    )
    edges = sorted(obj["edges"], key=lambda item: item["edge"])
    values = tuple(np.asarray(item["values"], dtype=float) for item in edges)
    recon = obj.get("vertex_reconstruction")
    return ValueField(values, grid, None if recon is None else float(recon))
