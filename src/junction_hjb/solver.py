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

    B3_j = min over the vertex actions (v >= 0, ell) of edge j of
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

A field is one (N, n+1) array, row i for edge i+1.  The system stacks its
data alike: the interior data as (N, n+1, K) arrays over K controls (short
control lists padded with an infinite stage cost), every edge's vertex
actions in one flat list, and vertex_data's branch lists in one (N, branches)
table, so a sweep is a few array expressions with no loop over edges.

The update is a min over a finite set of actions (a control per node, a
branch per vertex limit) of affine beta-contractions, so solve() reaches
its fixed point by Howard's policy iteration in finitely many steps:
evaluate the current policy exactly by solving the linear system
u = c + beta * P u, then switch every node to its greedy action: one
pass over the candidates gives the argmin (policy()) and the min
(sweep()).  On each edge the policy's rows form a strictly diagonally
dominant banded system (a foot lies within dt*sup/h + 1 nodes), written
as a block tridiagonal one with the vertex limit as a second right-hand
side and solved for all edges at once by block cyclic reduction, whose
vectorized levels end in one dense solve of DENSE_UNKNOWNS unknowns; an
N x N solve then couples the vertex limits.
To keep the number of policy evaluations small as h shrinks, it runs on
a ladder of grids, each coarser one every other node of the one before
(h and dt doubled, the last node dropped when n_intervals is odd), for
as long as the coarser grid is admissible; each finer grid starts from
the greedy policy of one sweep of the coarser result interpolated onto
it.  It stops once one sweep moves the field by at most tol*(1-beta),
which puts the field within tol of the fixed point.  SolveReport.iterations
counts policy evaluations over all grids.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import VertexData, vertex_data
from .model import EdgeSamples, Problem, _sample_edges, format_problem

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
    "problem_digest",
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
        if not all(0.0 < x < math.inf for x in (self.h, self.l_max, self.dt)):
            raise ValueError("h, l_max and dt must be positive and finite")
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
    """Node values as one (N, n+1) array: values[i] holds edge i+1's nodes,
    values[i, 0] its limit at the vertex.  Any sequence of N rows of the
    grid's n+1 nodes is accepted and stacked, other values raise ValueError.
    digest is the problem_digest of the problem the field was solved for."""

    values: np.ndarray
    grid: GridParams
    vertex_reconstruction: float | None = None
    digest: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        nodes = self.grid.n_intervals + 1
        if self.values.shape[1:] != (nodes,):
            raise ValueError(f"values of shape {self.values.shape} are not rows of {nodes} nodes")

    def check_problem(self, problem: Problem):
        """Raise ValueError unless the field has one row per edge of
        problem, names no digest or problem's, and has no NaN node (an
        oracle field has none at the per-edge vertex limits)."""
        if len(self.values) != problem.n_edges:
            raise ValueError(f"the field has {len(self.values)} edges, the problem {problem.n_edges}")
        if self.digest is not None and self.digest != (digest := problem_digest(problem)):
            raise ValueError(f"the field was solved for another problem (digest "
                             f"{self.digest}, this problem's is {digest})")
        if np.isnan(self.values).any():
            raise ValueError("the field has NaN nodes (an oracle field?)")

    def sup_distance(self, other: "ValueField") -> float:
        return float(np.abs(self.values - other.values).max())


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_change: float
    converged: bool
    # Policy evaluations on each grid of the coarse-to-fine ladder, coarsest
    # first; they sum to iterations.
    level_iterations: tuple[int, ...] = ()


class DiscreteSystem:
    """Precomputed semi-Lagrangian data for one problem on one grid, from
    the problem's vertex data and its sample table at the grid's nodes,
    whose padding gives an infinite stage cost.  Raises ValueError when dt
    times the table's sup exceeds l_max/4."""

    # Every update runs in the calling thread; perfbench/run.py reports this.
    workers = 1

    def __init__(self, problem: Problem, grid: GridParams, vertex: VertexData, samples: EdgeSamples):
        self.problem = problem
        self.vertex = vertex
        # Vertex branches as (N, branches) tables, row e in the order of
        # vertex.limit_branches[e]: the edge and action each moves along, and
        # its charge.  A park takes no step (branch_moves False, cost 0).
        rows = vertex.limit_branches
        acts = [[vertex.edges[b.edge - 1][b.action] for b in row] for row in rows]
        self.branch_moves = np.array([[b.kind != "park" for b in row] for row in rows])
        self.branch_edge = np.array([[b.edge - 1 for b in row] for row in rows])
        self.branch_const = np.array([[b.charge for b in row] for row in rows], dtype=float)
        self.branch_v = np.array([[a.velocity for a in row] for row in acts], dtype=float)
        self.branch_ell = np.where(self.branch_moves, [[a.cost for a in row] for row in acts], 0.0)
        self._set_grid(grid, samples)

    def _set_grid(self, grid: GridParams, samples: EdgeSamples):
        self.grid = grid
        self.beta = math.exp(-self.problem.lam * grid.dt)
        self.n_nodes = grid.n_intervals + 1
        self.samples = samples
        sup = samples.sup()
        if grid.dt * sup > grid.l_max / 4:
            raise ValueError(f"dt too large: dt * bound = {grid.dt * sup:g} exceeds l_max/4")
        self.sup_bound = sup
        self.value_bound = sup / self.problem.lam + float(sum(self.problem.regime.costs))

        # Interior data as (N, n+1, K) arrays, one column per control.
        s = grid.nodes
        self.interior_lo, self.interior_w = self._foot_weights(s[:, None] + grid.dt * samples.f)
        self.interior_stage = grid.dt * samples.ell
        # The same lower nodes as indices into field.values.ravel().
        offsets = self.n_nodes * np.arange(self.problem.n_edges)
        self.interior_at = self.interior_lo + offsets[:, None, None]
        # Each branch's one step from the vertex, alike.
        lo, self.branch_w = self._foot_weights(grid.dt * self.branch_v)
        self.branch_at = lo + offsets[self.branch_edge]
        self.branch_stage = grid.dt * self.branch_ell

    # Per-edge views, unused here; kept, as workers is, because
    # perfbench/run.py --trace 1 concatenates them to count sweep bytes.
    foot_lo = property(lambda self: self._by_edge(self.interior_lo))
    foot_w = property(lambda self: self._by_edge(self.interior_w))
    stage = property(lambda self: self._by_edge(self.interior_stage))
    vertex_lo = property(lambda self: list(self.branch_at))
    vertex_w = property(lambda self: list(self.branch_w))
    vertex_stage = property(lambda self: list(self.branch_stage))

    def _by_edge(self, a):
        return [a[e, :, :k] for e, k in enumerate(self.samples.real.sum(axis=1))]

    def _foot_weights(self, feet: np.ndarray):
        """Clip feet to the grid and split into (lower index, upper weight)."""
        n = self.grid.n_intervals
        feet = np.clip(feet, 0.0, self.grid.l_max)
        pos = feet / self.grid.h
        lo = np.minimum(pos.astype(int), n - 1)
        w = np.clip(pos - lo, 0.0, 1.0)
        return lo, w

    def check_field(self, field: ValueField):
        """Raise ValueError unless field has one row per edge and lies on the
        system's grid, dt included, not only on as many nodes."""
        if field.grid != self.grid or len(field.values) != self.problem.n_edges:
            raise ValueError(f"a field of {len(field.values)} edges on {field.grid} does "
                             f"not fit the system's {self.problem.n_edges} on {self.grid}")

    def default_max_iters(self, tol: float) -> int:
        """Sweeps value iteration would need from the a-priori bound; a
        generous cap on policy evaluations, which need far fewer."""
        lam_dt = self.problem.lam * self.grid.dt
        return 2 * math.ceil(math.log(max(self.value_bound, tol * 2) / tol) / lam_dt)


def build_system(problem: Problem, grid: GridParams) -> DiscreteSystem:
    """Precompute feet, interpolation weights, stage costs, and vertex data."""
    return DiscreteSystem(problem, grid, vertex_data(problem), _sample_edges(problem, grid.nodes))


def constant_field(system: DiscreteSystem, value: float) -> ValueField:
    return ValueField(
        np.full((system.problem.n_edges, system.n_nodes), float(value)), system.grid
    )


def _candidates(field: ValueField, system: DiscreteSystem):
    """Right-hand side of the update for every action: an (N, n_nodes, K)
    array for the interior and an (N, branches) array, in the order of
    the system's branch tables, for the vertex limits."""
    system.check_field(field)
    u = field.values.ravel()

    def one_step(at, w, stage):
        return stage + system.beta * (u[at] * (1.0 - w) + u[at + 1] * w)

    interior = one_step(system.interior_at, system.interior_w, system.interior_stage)
    steps = one_step(system.branch_at, system.branch_w, system.branch_stage)
    vertex = system.branch_const + np.where(system.branch_moves, steps, 0.0)
    return interior, vertex


def sweep(field: ValueField, system: DiscreteSystem) -> tuple[ValueField, float]:
    """One synchronous update of all nodes: the min that policy() takes the
    argmin of.  Returns the new field and the sup-norm change."""
    _, new = _greedy(*_candidates(field, system), None)
    return ValueField(new, system.grid), float(np.abs(new - field.values).max())


@dataclass(frozen=True, eq=False)
class Policy:
    """One action per node: controls[e, k] indexes edge e's controls at
    node k (unused at k = 0), vertex[e] indexes row e of the system's branch
    tables."""

    controls: np.ndarray
    vertex: np.ndarray

    def same_as(self, other: "Policy") -> bool:
        return np.array_equal(self.vertex, other.vertex) and np.array_equal(
            self.controls, other.controls
        )


def _argmin(candidates: np.ndarray, current: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Argmin over the last axis, ties toward the lowest index, and the min
    it picks, NaN where a NaN candidate is; where current is given, its
    action is kept unless another is strictly better."""
    best = candidates.argmin(axis=-1)
    flat = candidates.ravel()  # gathers from the flat array beat 2-d fancy indexing
    row = np.arange(0, flat.size, candidates.shape[-1]).reshape(best.shape)
    if current is not None:
        best = np.where(flat[row + current] <= flat[row + best], current, best)
    return best, flat[row + best]


def policy(
    field: ValueField, system: DiscreteSystem, current: Policy | None = None
) -> Policy:
    """Greedy policy of a field: the argmin of the candidates whose min is
    sweep().  With current given, its actions are kept where no other
    action is strictly better."""
    return _greedy(*_candidates(field, system), current)[0]


def _greedy(interior, vertex, current: Policy | None) -> tuple[Policy, np.ndarray]:
    """The greedy Policy of a field's candidates and the updated field
    values it picks, an (N, n+1) array whose column 0 holds the vertex
    limits' mins."""
    controls, values = _argmin(interior, current and current.controls)
    branches, values[:, 0] = _argmin(vertex, current and current.vertex)
    return Policy(controls, branches), values


# Cyclic reduction ends in one dense solve at this many unknowns.  On a 2-core
# VM a dense solve beats one more level up to 56-72 unknowns (block sizes 2, 3),
# but at 64 the dense LU's rounding flipped ties in seed policies: 35 more
# evaluations on 360 solves (dt/h up to 8), against 8 at 48 at the same speed.
DENSE_UNKNOWNS = 48


def _cyclic_reduction(a: np.ndarray) -> np.ndarray:
    """Solve a batch of block tridiagonal systems, a[s, i] block row i of
    system s as b rows [lower | diag | upper | rhs]: the b x b blocks of
    x[i-1], x[i] and x[i+1] (zero where those do not exist), then the
    right-hand sides; a is overwritten.  Returns x as (systems, blocks, b,
    right-hand sides).

    Each level eliminates the odd blocks and recurses on the even ones,
    until one block or DENSE_UNKNOWNS unknowns are left.  The systems must
    be strictly row diagonally dominant: odd-even reduction is Gaussian
    elimination of a symmetrically permuted matrix, which keeps the
    diagonal on the diagonal, and every Schur complement and diagonal
    block of such a matrix is again strictly row diagonally dominant, so
    Gauss-Jordan elimination inverts the diagonal blocks without pivoting.
    """
    n_sys, m, b, width = a.shape
    if m == 1 or m * b <= DENSE_UNKNOWNS:
        # Block row i sits in columns (i-1)b .. (i+2)b of the matrix with b
        # zero columns added on either side.
        row = np.arange(m * b)[:, None]
        at = row * ((m + 2) * b + 1) - row % b + np.arange(3 * b)
        dense = np.zeros((n_sys, m * b, (m + 2) * b))
        dense.reshape(n_sys, -1)[:, at.ravel()] = a[..., : 3 * b].reshape(n_sys, -1)
        x = np.linalg.solve(dense[..., b:-b], a[..., 3 * b :].reshape(n_sys, m * b, -1))
        return x.reshape(n_sys, m, b, -1)

    # In place, each odd block row 2k+1 becomes diag^-1 times itself, so
    # that x[2k+1] = rhs - lower x[2k] - upper x[2k+2] in its columns.
    odd, even = a[:, 1::2], a[:, ::2]
    half = odd.shape[1]
    for c in range(b):
        pivot = odd[..., c : c + 1, :] / odd[..., c : c + 1, b + c : b + c + 1]
        odd -= odd[..., b + c : b + c + 1] * pivot
        odd[..., c : c + 1, :] = pivot
    # Then the even blocks, which read their odd neighbours (below for all
    # but block 0, above for the first half), become the reduced system.
    below, above = even[:, 1:], even[:, :half]
    left = below[..., :b] @ odd[:, : m - half - 1]
    right = above[..., 2 * b : 3 * b] @ odd
    below[..., b : 2 * b] -= left[..., 2 * b : 3 * b]
    below[..., 3 * b :] -= left[..., 3 * b :]
    np.negative(left[..., :b], out=below[..., :b])
    above[..., b : 2 * b] -= right[..., :b]
    above[..., 3 * b :] -= right[..., 3 * b :]
    np.negative(right[..., 2 * b : 3 * b], out=above[..., 2 * b : 3 * b])

    # x gets a zero block m, which the last odd block reads when m is even.
    x = np.zeros((n_sys, m + 1, b, width - 3 * b))
    x[:, :m:2] = _cyclic_reduction(even)
    x[:, 1:m:2] = (
        odd[..., 3 * b :]
        - odd[..., :b] @ x[:, : m - 1 : 2]
        - odd[..., 2 * b : 3 * b] @ x[:, 2 : m + 1 : 2]
    )
    return x[:, :m]


def _evaluate(pol: Policy, system: DiscreteSystem) -> ValueField:
    """Exact value of a fixed policy: the solution of u = c + beta * P u.

    On each edge the rows of nodes 1..n form a banded system in which the
    vertex limit u[0] appears only on the right-hand side, so its solution
    is u[1:] = y + z * u[0] for two right-hand sides y and z.  The chosen
    vertex branches then give an N x N system for the vertex limits.
    """
    n_edges, n_nodes, n_controls = system.interior_lo.shape
    n = n_nodes - 1
    beta = system.beta
    k = np.arange(1, n + 1)
    # Node k's chosen control as an index into the ravelled interior arrays.
    chosen = (n_nodes * np.arange(n_edges)[:, None] + k) * n_controls + pol.controls[:, 1:]
    lo, w, stage = (
        a.ravel()[chosen]
        for a in (system.interior_lo, system.interior_w, system.interior_stage)
    )

    # Row k reads node lo with weight beta*(1-w) and node lo+1 with beta*w,
    # node j > 0 being unknown j-1 and u[0] moving to z.  For b the rows'
    # reach, blocks of b rows (identity rows pad the last) are block
    # tridiagonal; in the flat array row k starts at row[k], and its entry
    # for node j sits at at[k] + j.
    interior = lo >= 1
    reach = k - lo
    b = max(1, int((reach - ~interior).max()), 1 - int(reach.min()))
    m = -(-n // b)
    width = 3 * b + 2
    a = np.zeros((n_edges, m, b, width))
    a[..., b : 2 * b] = np.eye(b)
    row = (np.arange(n_edges)[:, None] * m * b + k - 1) * width
    at = row + (k - 1) % b + b - k
    flat = a.reshape(-1)
    flat[row + 3 * b] = stage
    flat[at + lo + 1] -= beta * w
    lower = beta * (1.0 - w)
    flat[np.where(interior, at + lo, row + 3 * b + 1)] -= np.where(interior, lower, -lower)
    solution = _cyclic_reduction(a).reshape(n_edges, m * b, 2)
    # u_j[m] = y[j, m] + z[j, m] * u_j[0] at every node m, the vertex included.
    yz = np.empty((2, n_edges, n_nodes))
    yz[:, :, 0] = [[0.0], [1.0]]
    yz[:, :, 1:] = solution[:, :n].transpose(2, 0, 1)
    y, z = yz.reshape(2, -1)

    # Vertex rows: edge e's chosen branch moves into edge target and reads
    # nodes foot and foot + 1 of the flat field with weights w0 and w1, both
    # 0 for a park, at its charge plus its stage cost.
    e, v = np.arange(n_edges), pol.vertex
    foot, target, w = system.branch_at[e, v], system.branch_edge[e, v], system.branch_w[e, v]
    scale = np.where(system.branch_moves[e, v], beta, 0.0)
    w0, w1 = scale * (1.0 - w), scale * w
    const = system.branch_const[e, v] + system.branch_stage[e, v]
    matrix = np.eye(n_edges)
    matrix[e, target] -= w0 * z[foot] + w1 * z[foot + 1]
    limits = np.linalg.solve(matrix, const + w0 * y[foot] + w1 * y[foot + 1])
    return ValueField(yz[0] + yz[1] * limits[:, None], system.grid)


def _reconstruct_vertex(field: ValueField, system: DiscreteSystem) -> float:
    """v(O): the least of vertex.value_branches on the field, a move into
    edge j at its charge plus u_j(O), the park at its charge alone."""
    limits = field.values[:, 0].tolist()
    return min(
        b.charge if b.kind == "park" else b.charge + limits[b.edge - 1]
        for b in system.vertex.value_branches
    )


def residual(field: ValueField, system: DiscreteSystem):
    """|u - update(u)| per node, as an (N, n+1) array, and its max over all
    nodes.  Raises ValueError for a field that does not fit the system's
    problem (ValueField.check_problem, which refuses NaN nodes, as in an
    oracle field) or its grid, dt included (DiscreteSystem.check_field)."""
    field.check_problem(system.problem)
    updated, _ = sweep(field, system)
    per_node = np.abs(field.values - updated.values)
    return per_node, float(per_node.max())


def _ladder(system: DiscreteSystem) -> list[DiscreteSystem]:
    """Systems on successively coarser grids, coarsest first and ending
    with system.  Each coarser grid is every other node of the one before:
    h and dt doubled (which keeps dt/h fixed), and with an odd number of
    intervals the last node dropped, so l_max shrinks by h.  Every level
    is a copy of the finer one that shares its vertex data and branch
    tables, which do not depend on the grid, and takes its rows of the
    finer sample table: node k of the coarse grid is node 2k of the finer
    one, the same double.  The ladder stops at the first grid that
    GridParams or the dt check rejects."""
    levels = [system]
    while True:
        fine = levels[0]
        g, t = fine.grid, fine.samples
        odd = g.n_intervals % 2
        rows = slice(0, fine.n_nodes - odd, 2)
        try:
            grid = GridParams(h=2 * g.h, l_max=g.l_max - odd * g.h, dt=2 * g.dt)
            coarse = copy.copy(fine)
            coarse._set_grid(grid, replace(t, f=t.f[:, rows], ell=t.ell[:, rows]))
            levels.insert(0, coarse)
        except ValueError:
            return levels


def solve(
    problem: Problem,
    grid: GridParams,
    tol: float = 1e-9,
    init: ValueField | None = None,
) -> tuple[ValueField, SolveReport]:
    """Solve for the fixed point of sweep() and reconstruct the vertex value.

    The report says not converged when the last policy is stable but one
    sweep still moves the field by more than tol*(1-beta), as it does for a
    tol below float resolution, or when the requested grid reaches its
    default_max_iters.  init only seeds the first policy, and must lie on
    grid (DiscreteSystem.check_field).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    system = build_system(problem, grid)
    levels = _ladder(system)
    coarsest = levels[0]
    if init is None:
        field = constant_field(coarsest, system.sup_bound / problem.lam)
    else:
        system.check_field(init)
        # Node j of the coarsest grid is node j * 2^k of the requested one.
        stride = 2 ** (len(levels) - 1)
        values = init.values[:, : stride * coarsest.n_nodes : stride].copy()
        field = ValueField(values, coarsest.grid)

    # Howard's policy iteration on each level.  A finer level starts from
    # the greedy policy of one sweep of the coarser field interpolated onto
    # its nodes (held constant past a truncated coarser grid's l_max): with
    # dt > h the interpolated field alone seeds policies whose flaws take
    # one evaluation per node to undo (entry-basic at dt = 2h: 91
    # evaluations instead of 6).  A level ends when one sweep moves its
    # field by at most tol*(1-beta), which puts the field within tol of the
    # level's fixed point, when the policy stops changing, or at the
    # level's default_max_iters, a safety bound.
    counts = []
    for level in levels:
        if level is not coarsest:
            old, nodes = field.grid.nodes, level.grid.nodes
            field = ValueField([np.interp(nodes, old, u) for u in field.values], level.grid)
            field, _ = sweep(field, level)
        current = policy(field, level)
        for count in range(1, level.default_max_iters(tol) + 1):
            field = _evaluate(current, level)
            improved, values = _greedy(*_candidates(field, level), current)
            change = float(np.abs(values - field.values).max())
            if change <= tol * (1.0 - level.beta) or improved.same_as(current):
                break
            current = improved
        counts.append(count)

    field.vertex_reconstruction = _reconstruct_vertex(field, system)
    bound = system.value_bound + 10 * tol
    if not np.isfinite(field.values).all() or float(np.abs(field.values).max()) > bound:
        raise RuntimeError("converged field violates the a-priori value bound")
    field.digest = problem_digest(problem)

    report = SolveReport(
        iterations=sum(counts),
        final_change=change,
        converged=change <= tol * (1.0 - system.beta),
        level_iterations=tuple(counts),
    )
    return field, report


# ---------------------------------------------------------------------------
# Field import/export
# ---------------------------------------------------------------------------

def problem_digest(problem: Problem) -> str:
    """Short digest of the canonical problem text; field files carry it."""
    # Imported here: loading OpenSSL would add about 4 ms to every import
    # of the package, including CLI commands that write no field file.
    import hashlib

    return hashlib.sha256(format_problem(problem).encode()).hexdigest()[:16]


# A field file holds one table: the grid, the problem digest, v(O) and the
# node values of each edge.  A NaN node has no row, and every float is
# written by repr, so CSV and JSON carry the same exact numbers.

_CSV_HEADER = "# edge,s,value"


def _edge_rows(field: ValueField):
    """(edge label, s, values) per edge as lists, NaN nodes left out."""
    s = field.grid.nodes
    for e, u in enumerate(field.values, start=1):
        keep = ~np.isnan(u)
        yield e, s[keep].tolist(), u[keep].tolist()


def field_to_csv(field: ValueField) -> str:
    """A first line '# edge,s,value h=... l_max=... dt=... [problem=...]'
    naming the columns, the grid and the problem digest, then rows
    edge,s,value (edge then s ascending) and, when there is v(O), one row
    0,0,v(O)."""
    g = field.grid
    words = [f"h={float(g.h)!r}", f"l_max={float(g.l_max)!r}", f"dt={float(g.dt)!r}"]
    if field.digest is not None:
        words.append(f"problem={field.digest}")
    lines = [" ".join([_CSV_HEADER, *words])]
    for e, s, u in _edge_rows(field):
        lines += [f"{e},{x!r},{y!r}" for x, y in zip(s, u)]
    if field.vertex_reconstruction is not None:
        lines.append(f"0,0,{float(field.vertex_reconstruction)!r}")
    return "\n".join(lines) + "\n"


def field_to_json(field: ValueField, report: SolveReport | None = None) -> str:
    """The table of field_to_csv as deterministic JSON, with the report
    attached when one is given."""
    g = field.grid
    recon = field.vertex_reconstruction
    obj = {
        "grid": {"h": float(g.h), "l_max": float(g.l_max), "dt": float(g.dt)},
        "problem": field.digest,
        "vertex_reconstruction": None if recon is None else float(recon),
        "edges": [
            {"edge": e, "s": s, "values": u} for e, s, u in _edge_rows(field)
        ],
    }
    if report is not None:
        obj["report"] = {
            "iterations": report.iterations,
            "final_change": float(report.final_change),
            "converged": bool(report.converged),
            "level_iterations": list(report.level_iterations),
        }
    return json.dumps(obj) + "\n"


def _field_from_table(edges, grid, recon, digest) -> ValueField:
    """The field of a parsed table on the file's stated grid.  edges maps
    each label to its (s, values) arrays.  Every edge must hold its rows in
    ascending s at every node of the grid, or at every node but s = 0,
    which then reads as NaN."""
    labels = sorted(edges)
    if not labels or labels != list(range(1, len(labels) + 1)):
        raise ValueError(f"edge labels must be 1..N, got {labels}")
    nodes = grid.nodes
    values = []
    for label in labels:
        s, u = edges[label]
        if s.size == u.size == nodes.size - 1:
            s = np.concatenate(([0.0], s))
            u = np.concatenate(([np.nan], u))
        if not (s.size == u.size == nodes.size and np.allclose(s, nodes)):
            raise ValueError(
                f"edge {label}: {s.size} rows do not fit the grid's {nodes.size} nodes"
            )
        values.append(u)
    return ValueField(values, grid, recon, digest)


def field_from_csv(text: str) -> ValueField:
    """Inverse of field_to_csv.  Raises ValueError for a file whose first
    line does not state the grid or names a key other than h, l_max, dt and
    problem or one twice, a row that is not three numbers, and edge-0 rows
    other than a single 0,0,v(O)."""
    lines = text.strip().splitlines()
    words = lines[0].split() if lines else []
    if " ".join(words[:2]) != _CSV_HEADER:
        raise ValueError(f"expected a first line '{_CSV_HEADER} h=... l_max=... dt=...'")
    stated: dict[str, str] = {}
    for key, _, value in (w.partition("=") for w in words[2:]):
        if key not in ("h", "l_max", "dt", "problem") or key in stated:
            what = "repeated" if key in stated else "unknown"
            raise ValueError(f"bad first line {lines[0]!r}: {what} key {key!r}")
        stated[key] = value
    try:
        grid = GridParams(**{key: float(stated[key]) for key in ("h", "l_max", "dt")})
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad first line {lines[0]!r}: {exc}") from None
    rows = [line.split(",") for line in lines[1:]]
    try:
        edge, s, u = np.array(rows, dtype=float).reshape(len(rows), 3).T
    except ValueError:
        raise ValueError("field rows must be three numbers edge,s,value") from None
    recon = u[edge == 0]
    if recon.size > 1 or s[edge == 0].any():
        raise ValueError("v(O) takes at most one row, 0,0,value")
    recon = float(recon[0]) if recon.size and not np.isnan(recon[0]) else None
    edges = {e: (s[edge == e], u[edge == e]) for e in set(edge.tolist()) - {0.0}}
    return _field_from_table(edges, grid, recon, stated.get("problem"))


def field_from_json(text: str) -> ValueField:
    """Inverse of field_to_json.  Raises ValueError for text that is not an
    object with grid (h, l_max, dt) and edges (edge, s, values)."""
    obj = json.loads(text)
    try:
        g = obj["grid"]
        grid = GridParams(h=float(g["h"]), l_max=float(g["l_max"]), dt=float(g["dt"]))
        edges = {
            item["edge"]: (
                np.asarray(item["s"], dtype=float),
                np.asarray(item["values"], dtype=float),
            )
            for item in obj["edges"]
        }
        recon = obj.get("vertex_reconstruction")
        return _field_from_table(
            edges, grid, None if recon is None else float(recon), obj.get("problem")
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a field file: {type(exc).__name__} {exc}") from None
