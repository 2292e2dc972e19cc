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
u = c + beta * P u, then switch every node to its greedy action
(policy()).  On each edge the policy's rows form a strictly diagonally
dominant banded system (a foot lies within dt*sup/h + 1 nodes), solved
for all edges at once by block cyclic reduction in ceil(log2(n/b))
vectorized levels for block size b, with the vertex limit kept as a
second right-hand side; an N x N solve then couples the vertex limits.
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
    values[i, 0] its limit at the vertex.  Any sequence of N equal-length
    rows is accepted and stacked.  digest is the problem_digest of the
    problem the field was solved for."""

    values: np.ndarray
    grid: GridParams
    vertex_reconstruction: float | None = None
    digest: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("field values must be N rows of equal length")

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
        self.grid = grid
        self.beta = math.exp(-problem.lam * grid.dt)
        self.vertex = vertex
        self.n_nodes = grid.n_intervals + 1
        n_edges = problem.n_edges

        self.samples = samples
        sup = samples.sup()
        if grid.dt * sup > grid.l_max / 4:
            raise ValueError(f"dt too large: dt * bound = {grid.dt * sup:g} exceeds l_max/4")
        self.sup_bound = sup
        self.value_bound = sup / problem.lam + float(sum(problem.regime.costs))

        # Interior data as (N, n+1, K) arrays, one column per control.
        s = grid.nodes
        self.interior_lo, self.interior_w = self._foot_weights(s[:, None] + grid.dt * samples.f)
        self.interior_stage = grid.dt * samples.ell
        # The same lower nodes as indices into field.values.ravel().
        offsets = self.n_nodes * np.arange(n_edges)
        self.interior_at = self.interior_lo + offsets[:, None, None]

        # Vertex data: every edge's vertex actions as (v >= 0, ell) pairs in
        # one flat list, edge by edge, with the edge index of each pair.
        pairs = [(e, a.velocity, a.cost) for e, acts in enumerate(vertex.edges) for a in acts]
        edge, v, pell = np.array(pairs, dtype=float).reshape(-1, 3).T
        self.pair_edge = edge.astype(int)
        self.pair_lo, self.pair_w = self._foot_weights(grid.dt * v)
        self.pair_stage = grid.dt * pell
        self.pair_at = self.pair_lo + offsets[self.pair_edge]

        # Edge e's vertex branches as vertex.limit_branches[e] lists them:
        # branch_pair their pair indices (len(pairs) parks), branch_const their charges.
        start = np.cumsum([0] + [len(acts) for acts in vertex.edges]).tolist()
        rows = vertex.limit_branches
        self.branch_pair = np.array([
            [len(pairs) if b.kind == "park" else start[b.edge - 1] + b.action for b in row]
            for row in rows
        ])
        self.branch_const = np.array([[b.charge for b in row] for row in rows], dtype=float)

        # Per-edge views, unused here; kept, as workers is, because
        # perfbench/run.py --trace 1 concatenates them to count sweep bytes.
        self.foot_lo, self.foot_w, self.stage = (
            [a[e, :, :k] for e, k in enumerate(samples.real.sum(axis=1))]
            for a in (self.interior_lo, self.interior_w, self.interior_stage)
        )
        cut = np.searchsorted(self.pair_edge, np.arange(1, n_edges))
        self.vertex_lo, self.vertex_w, self.vertex_stage = (
            np.split(a, cut) for a in (self.pair_lo, self.pair_w, self.pair_stage)
        )

    def _foot_weights(self, feet: np.ndarray):
        """Clip feet to the grid and split into (lower index, upper weight)."""
        n = self.grid.n_intervals
        feet = np.clip(feet, 0.0, self.grid.l_max)
        pos = feet / self.grid.h
        lo = np.minimum(pos.astype(int), n - 1)
        w = np.clip(pos - lo, 0.0, 1.0)
        return lo, w

    def check_field(self, field: ValueField):
        shape = (self.problem.n_edges, self.n_nodes)
        if field.values.shape != shape:
            raise ValueError(f"field shape {field.values.shape} is not the system's {shape}")

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
    system.branch_pair, for the vertex limits."""
    system.check_field(field)
    u = field.values.ravel()

    def one_step(at, w, stage):
        return stage + system.beta * (u[at] * (1.0 - w) + u[at + 1] * w)

    interior = one_step(system.interior_at, system.interior_w, system.interior_stage)
    # One-step values of leaving the vertex along each pair, then parking.
    steps = one_step(system.pair_at, system.pair_w, system.pair_stage)
    vertex = system.branch_const + np.append(steps, 0.0)[system.branch_pair]
    return interior, vertex


def sweep(field: ValueField, system: DiscreteSystem) -> tuple[ValueField, float]:
    """One synchronous update of all nodes; returns the new field and the
    sup-norm change."""
    return _minimize(field, system, *_candidates(field, system))


def _minimize(field, system, interior, vertex) -> tuple[ValueField, float]:
    """sweep() from the candidates of field."""
    new = interior.min(axis=-1)
    new[:, 0] = vertex.min(axis=-1)
    return ValueField(new, system.grid), float(np.abs(new - field.values).max())


@dataclass(frozen=True, eq=False)
class Policy:
    """One action per node: controls[e, k] indexes edge e's controls at
    node k (unused at k = 0), vertex[e] indexes system.branch_pair[e]."""

    controls: np.ndarray
    vertex: np.ndarray

    def same_as(self, other: "Policy") -> bool:
        return np.array_equal(self.vertex, other.vertex) and np.array_equal(
            self.controls, other.controls
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


def _greedy(interior, vertex, current: Policy | None) -> Policy:
    """policy() from the candidates of a field."""
    if current is None:
        return Policy(_argmin(interior, None), _argmin(vertex, None))
    return Policy(_argmin(interior, current.controls), _argmin(vertex, current.vertex))


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

    # Vertex rows: the chosen branch of each edge in movers moves along a
    # pair into edge target and reads its nodes vlo and vlo + 1; parking
    # reads none.
    all_edges = np.arange(n_edges)
    pair = system.branch_pair[all_edges, pol.vertex]
    const = system.branch_const[all_edges, pol.vertex]
    movers = all_edges[pair < system.pair_edge.size]
    pair = pair[movers]
    target = system.pair_edge[pair]
    vlo, vw = system.pair_lo[pair], system.pair_w[pair]
    matrix = np.eye(n_edges)
    const[movers] += system.pair_stage[pair]
    for m, weight in ((vlo, beta * (1.0 - vw)), (vlo + 1, beta * vw)):
        const[movers] += weight * y[target, m]
        matrix[movers, target] -= weight * z[target, m]
    limits = np.linalg.solve(matrix, const)
    return ValueField(y + z * limits[:, None], system.grid)


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
    nodes.  Raises ValueError for a field with NaN nodes, such as an oracle
    field, which has no per-edge vertex limits."""
    if np.isnan(field.values).any():
        raise ValueError("the field has NaN nodes (an oracle field?)")
    updated, _ = sweep(field, system)
    per_node = np.abs(field.values - updated.values)
    return per_node, float(per_node.max())


def _ladder(system: DiscreteSystem) -> list[DiscreteSystem]:
    """Systems on successively coarser grids, coarsest first and ending
    with system.  Each coarser grid is every other node of the one before:
    h and dt doubled (which keeps dt/h fixed), and with an odd number of
    intervals the last node dropped, so l_max shrinks by h.  Every level
    shares the vertex data, which does not depend on the grid, and takes
    its rows of the finer sample table: node k of the coarse grid is node
    2k of the finer one, the same double.  The ladder stops at the first
    grid that GridParams or the dt check rejects."""
    levels = [system]
    while True:
        fine = levels[0]
        g, t = fine.grid, fine.samples
        odd = g.n_intervals % 2
        rows = slice(0, fine.n_nodes - odd, 2)
        try:
            grid = GridParams(h=2 * g.h, l_max=g.l_max - odd * g.h, dt=2 * g.dt)
            samples = replace(t, f=t.f[:, rows], ell=t.ell[:, rows])
            levels.insert(0, DiscreteSystem(fine.problem, grid, fine.vertex, samples))
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
    default_max_iters.  init only seeds the first policy.
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
            candidates = _candidates(field, level)
            _, change = _minimize(field, level, *candidates)
            if change <= tol * (1.0 - level.beta):
                break
            improved = _greedy(*candidates, current)
            if improved.same_as(current):
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

def _edge_rows(field: ValueField):
    """(edge label, s, values) per edge as lists, NaN nodes left out."""
    s = field.grid.nodes
    for e, u in enumerate(field.values, start=1):
        keep = ~np.isnan(u)
        yield e, s[keep].tolist(), u[keep].tolist()


def field_to_csv(field: ValueField, *, grid_line: bool = True) -> str:
    """Rows edge,s,value (edge then s ascending), a row with edge 0
    carrying v(O) when there is one, then a comment line with the grid and
    the problem digest (left out with grid_line=False)."""
    lines = ["edge,s,value"]
    for e, s, u in _edge_rows(field):
        lines += [f"{e},{x!r},{y!r}" for x, y in zip(s, u)]
    if field.vertex_reconstruction is not None:
        lines.append(f"0,0,{float(field.vertex_reconstruction)!r}")
    if grid_line:
        g = field.grid
        words = [f"h={float(g.h)!r}", f"l_max={float(g.l_max)!r}", f"dt={float(g.dt)!r}"]
        if field.digest is not None:
            words.append(f"problem={field.digest}")
        lines.append("# grid " + " ".join(words))
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
    """The field of a parsed table.  edges maps each label to its (s,
    values) arrays; grid is the file's stated grid, or None for a CSV file
    without the grid line, whose grid is then read off edge 1's rows with
    dt = h.  Every edge must hold its rows in ascending s at every node of
    the grid, or at every node but s = 0, which then reads as NaN."""
    labels = sorted(edges)
    if not labels or labels != list(range(1, len(labels) + 1)):
        raise ValueError(f"edge labels must be 1..N, got {labels}")
    if grid is None:
        s = edges[1][0]
        if s.size < 2:
            raise ValueError("edge 1: need at least 2 nodes")
        h = round(float(s[1] - s[0]), 12)
        grid = GridParams(h=h, l_max=round(float(s[-1]), 12), dt=h)
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


def _parse_grid_line(line: str) -> tuple[GridParams, str | None]:
    """Read the '# grid h=... l_max=... dt=... [problem=...]' line."""
    words = line[1:].split()
    if not words or words[0] != "grid":
        raise ValueError(f"bad comment line {line!r}")
    try:
        values = dict(w.split("=", 1) for w in words[1:])
        grid = GridParams(
            h=float(values["h"]), l_max=float(values["l_max"]), dt=float(values["dt"])
        )
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad grid line {line!r}: {exc}") from None
    return grid, values.get("problem")


def field_from_csv(text: str) -> ValueField:
    """Inverse of field_to_csv."""
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != "edge,s,value":
        raise ValueError("expected header 'edge,s,value'")
    grid = digest = None
    for line in lines[1:]:
        if line.startswith("#"):
            grid, digest = _parse_grid_line(line)
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    try:
        edge, s, u = np.array(rows, dtype=float).reshape(len(rows), 3).T
    except ValueError:
        raise ValueError("field rows must be three numbers edge,s,value") from None
    recon = u[edge == 0]
    recon = float(recon[-1]) if recon.size and not np.isnan(recon[-1]) else None
    edges = {e: (s[edge == e], u[edge == e]) for e in set(edge.tolist()) - {0.0}}
    return _field_from_table(edges, grid, recon, digest)


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
