"""The step rule (time_step) and the relaxed control set at the vertex.

At the vertex O each edge offers a list of actions, the controls that do
not point into O, each with its velocity v >= 0 and its cost:

* every sampled control with f_i(O, a) >= 0;
* every stationary mix of two sampled controls with opposite-sign
  velocities: weight theta = f2 / (f2 - f1) on the negative one cancels
  the velocity exactly and costs theta * ell1 + (1 - theta) * ell2.

Because every objective over the actions is linear in the (velocity,
cost) pair, the finite list stands in for the convex hull of the samples.
The actions with v = 0 are the stationary ones; the tangential
Hamiltonian at the vertex is minus the cheapest stationary cost over all
edges, and divided by the discount rate it is the cost of parking at the
vertex forever.  The oracle's hold actions read these lists.

vertex_data also lists the vertex branches, the options of the solver's
vertex update, in its tie order and each with its constant charge: per
edge, u_i(O)'s switches to every other edge, park and continue; and
v(O)'s moves with v > 0 into every edge, then park (holding at O to leave
later never beats leaving now or parking).  The solver's vertex update
reads the former and the rollout's vertex choice the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import exprlang
from .model import Problem

__all__ = ["ZERO_VELOCITY_TOL", "VertexAction", "VertexBranch", "VertexData",
           "NoStationaryControlError", "vertex_data", "time_step"]

# Sampled controls count as stationary when |f(O, a)| is below this; the
# interpolated pair points are exactly stationary by construction.
ZERO_VELOCITY_TOL = 1e-12


class NoStationaryControlError(ValueError):
    """No edge admits a zero-velocity control at O (the H4 margin fails)."""


@dataclass(frozen=True)
class VertexAction:
    """A control at O with velocity >= 0 and its cost.

    controls holds sampled-control indices of the edge: (k,) for a sampled
    control, whose |f| <= ZERO_VELOCITY_TOL is snapped to exactly 0, or
    (k_neg, k_pos) for the stationary mix of an opposite-sign pair, which
    puts weight theta on k_neg.
    """

    velocity: float
    cost: float
    controls: tuple[int, ...]
    theta: float = 1.0


@dataclass(frozen=True)
class VertexBranch:
    """An option at O, taken along one vertex action of an edge, at a
    constant charge on top of that action's step."""

    kind: str  # "switch" into edge, "park" at O, or "continue" on the own edge
    edge: int
    action: int  # index into the edge's vertex actions; a park's held one
    charge: float  # a switching cost, the stall value with or without one, or 0


@dataclass(frozen=True)
class VertexData:
    """Each edge's vertex actions, sampled controls first and mixes after,
    the tangential Hamiltonian, and the vertex branches in tie order: one
    list per edge for its limit u_i(O), and one for v(O)."""

    edges: tuple[tuple[VertexAction, ...], ...]
    tangential: float  # -min over edges of the cheapest stationary cost
    limit_branches: tuple[tuple[VertexBranch, ...], ...]
    value_branches: tuple[VertexBranch, ...]

    def edge(self, label: int) -> tuple[VertexAction, ...]:
        return self.edges[label - 1]


def _edge_actions(problem: Problem, label: int) -> tuple[VertexAction, ...]:
    spec = problem.edge(label)
    samples = []
    for a in spec.controls:
        f = exprlang.evaluate(spec.velocity, 0.0, a)
        ell = exprlang.evaluate(spec.running_cost, 0.0, a)
        samples.append((0.0 if abs(f) <= ZERO_VELOCITY_TOL else f, ell))

    actions = [
        VertexAction(f, ell, (k,)) for k, (f, ell) in enumerate(samples) if f >= 0.0
    ]
    # All opposite-sign pairs, not only adjacent ones: the cheapest
    # stationary hull point may mix non-adjacent samples.
    for k1, (f1, ell1) in enumerate(samples):
        if f1 >= 0.0:
            continue
        for k2, (f2, ell2) in enumerate(samples):
            if f2 <= 0.0:
                continue
            theta = f2 / (f2 - f1)
            cost = theta * ell1 + (1.0 - theta) * ell2
            actions.append(VertexAction(0.0, cost, (k1, k2), theta))
    return tuple(actions)


def vertex_data(problem: Problem) -> VertexData:
    """All vertex actions and branches; raises if no edge can park at O.
    Parking holds the first cheapest stationary action, edge by edge."""
    labels = problem.junction.edge_labels
    edges = tuple(_edge_actions(problem, label) for label in labels)
    stationary = [(a.cost, label, k) for label, actions in zip(labels, edges)
                  for k, a in enumerate(actions) if a.velocity == 0.0]
    if not stationary:
        raise NoStationaryControlError("[H4] violated: no stationary control at O")
    cheapest, *held = min(stationary)
    stall = cheapest / problem.lam
    costs, entry = problem.regime.costs, problem.regime.kind == "entry"

    def along(kind, j, charge, moving=False):
        """Branches into edge j along each of its actions (v > 0 if moving)."""
        return [VertexBranch(kind, j, k, charge) for k, a in enumerate(edges[j - 1])
                if a.velocity > 0.0 or not moving]

    limits = []
    for i in labels:
        d_i = costs[i - 1]
        switches = [b for j in labels if j != i
                    for b in along("switch", j, costs[j - 1] if entry else d_i)]
        park = VertexBranch("park", *held, stall if entry else d_i + stall)
        limits.append((*switches, park, *along("continue", i, 0.0)))
    moves = [b for j in labels
             for b in along("switch", j, costs[j - 1] if entry else 0.0, moving=True)]
    park = VertexBranch("park", *held, stall)
    return VertexData(edges, -cheapest, tuple(limits), (*moves, park))


def time_step(lam: float, dt: float) -> tuple[float, float]:
    """The step rule of the scheme, the rollout and the replay: a step of dt
    from s at velocity f ends at s + dt*f, charges weight*ell and discounts
    what follows by beta.  Returns (weight, beta) = (dt, exp(-lam*dt))."""
    return dt, math.exp(-lam * dt)
