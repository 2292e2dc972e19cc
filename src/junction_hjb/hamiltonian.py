"""Edge and vertex Hamiltonians built from sampled controls.

The edge Hamiltonian is H_i(x, p) = max over controls a of
-p * f_i(x, a) - ell_i(x, a).  Because the objective is linear in the
(velocity, cost) pair, maximizing over the finitely sampled controls is
exact on their convex hull, so the finite sample stands in for a compact
convex control set.

At the vertex the relevant control data per edge are:

* the nonnegative-velocity pairs: every sampled control with
  f_i(O, a) >= 0, plus every zero-velocity hull point obtained by the
  convex combination of two sampled controls with opposite-sign
  velocities (theta = f2 / (f2 - f1) cancels the velocity exactly and
  costs theta * ell1 + (1 - theta) * ell2);
* the zero-velocity costs: the costs of all such exactly-stationary hull
  points.

The tangential Hamiltonian at the vertex is minus the cheapest stationary
cost over all edges; divided by the discount rate it is the cost of
parking at the vertex forever.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exprlang
from .model import Problem

__all__ = [
    "ZERO_VELOCITY_TOL",
    "EdgeVertexData",
    "VertexData",
    "NoStationaryControlError",
    "vertex_data",
    "hamiltonian",
    "tangential_hamiltonian",
]

# Sampled controls count as stationary when |f(O, a)| is below this; the
# interpolated pair points are exactly stationary by construction.
ZERO_VELOCITY_TOL = 1e-12


class NoStationaryControlError(ValueError):
    """No edge admits a zero-velocity control at O (the H4 margin fails)."""


@dataclass(frozen=True)
class EdgeVertexData:
    """Vertex-side control data of one edge.

    velocities / costs    f(O, a) and ell(O, a) per sampled control, with
                          |f| <= ZERO_VELOCITY_TOL snapped to exactly 0
    plus_pairs            (velocity >= 0, cost) pairs: nonnegative-velocity
                          samples plus interpolated zero-velocity points
    zero_costs            costs attainable with velocity exactly 0
    zero_generators       per zero cost, the sampled-control indices that
                          generate it: (k,) for a stationary sample,
                          (k_neg, k_pos) for an interpolated pair
    """

    velocities: tuple[float, ...]
    costs: tuple[float, ...]
    plus_pairs: tuple[tuple[float, float], ...]
    zero_costs: tuple[float, ...]
    zero_generators: tuple[tuple[int, ...], ...]

    @property
    def zero_min(self) -> float | None:
        return min(self.zero_costs) if self.zero_costs else None


@dataclass(frozen=True)
class VertexData:
    """Per-edge vertex control data plus the tangential Hamiltonian."""

    edges: tuple[EdgeVertexData, ...]
    tangential: float  # -min over edges of the cheapest stationary cost

    def edge(self, label: int) -> EdgeVertexData:
        return self.edges[label - 1]


def _edge_vertex_data(problem: Problem, label: int) -> EdgeVertexData:
    spec = problem.edge(label)
    velocities = []
    costs = []
    for a in spec.controls:
        f = exprlang.evaluate(spec.velocity, 0.0, a)
        ell = exprlang.evaluate(spec.running_cost, 0.0, a)
        if abs(f) <= ZERO_VELOCITY_TOL:
            f = 0.0
        velocities.append(f)
        costs.append(ell)

    plus_pairs = [
        (f, ell) for f, ell in zip(velocities, costs) if f >= 0.0
    ]
    zero_costs = []
    zero_generators = []
    for k, (f, ell) in enumerate(zip(velocities, costs)):
        if f == 0.0:
            zero_costs.append(ell)
            zero_generators.append((k,))
    # All opposite-sign pairs, not only adjacent ones: the cheapest
    # stationary hull point may mix non-adjacent samples.
    for k1, f1 in enumerate(velocities):
        if f1 >= 0.0:
            continue
        for k2, f2 in enumerate(velocities):
            if f2 <= 0.0:
                continue
            theta = f2 / (f2 - f1)
            cost = theta * costs[k1] + (1.0 - theta) * costs[k2]
            zero_costs.append(cost)
            zero_generators.append((k1, k2))
            plus_pairs.append((0.0, cost))

    return EdgeVertexData(
        velocities=tuple(velocities),
        costs=tuple(costs),
        plus_pairs=tuple(plus_pairs),
        zero_costs=tuple(zero_costs),
        zero_generators=tuple(zero_generators),
    )


def vertex_data(problem: Problem) -> VertexData:
    """Compute all vertex control data once; raises if no edge can park at O."""
    edges = tuple(
        _edge_vertex_data(problem, label) for label in problem.junction.edge_labels
    )
    stationary = [e.zero_min for e in edges if e.zero_costs]
    if not stationary:
        raise NoStationaryControlError("[H4] violated: no stationary control at O")
    return VertexData(edges=edges, tangential=-min(stationary))


def hamiltonian(problem: Problem, edge: int, x: float, p: float) -> float:
    """H_i(x, p): max over sampled controls of -p * f - ell."""
    if x < 0:
        raise ValueError(f"arclength must be >= 0, got {x}")
    spec = problem.edge(edge)
    best = None
    for a in spec.controls:
        f = exprlang.evaluate(spec.velocity, x, a)
        ell = exprlang.evaluate(spec.running_cost, x, a)
        value = -p * f - ell
        if best is None or value > best:
            best = value
    return best


def tangential_hamiltonian(problem: Problem) -> float:
    """Minus the cheapest stationary cost at the vertex over all edges."""
    return vertex_data(problem).tangential
