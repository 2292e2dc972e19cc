"""Junction geometry, control problem data, and problem file handling.

A junction is a network with a single vertex O and N half-line edges glued
at O; every edge is parameterized by arclength s >= 0 measured from O.  A
problem couples the junction with per-edge controlled dynamics f(x, a) and
running costs ell(x, a), a discount rate lambda > 0, and a switching cost
regime: either a fixed entry cost per edge (charged whenever a trajectory
moves from O into that edge) or a fixed exit cost per edge (charged
whenever a trajectory leaves that edge at O).

Problem files are flat, line-oriented UTF-8 text with ``#`` comments::

    lambda = 1.0
    regime = entry            # or: exit
    costs = 10.0, 0.5         # N entries, order = edge order
    [edge]
    controls = -1, 0, 1
    f = a
    ell = 1
    [edge]
    controls = -1, 0, 1
    f = a
    ell = 1 - a

The number of ``[edge]`` blocks fixes N and must match the length of
``costs``.

``validate`` samples the problem data on a grid and reports empirical
stand-ins for the standing hypotheses the solver relies on:

    [H1] dynamics bounded and Lipschitz in x,
    [H2] running costs bounded with a modulus in x,
    [H3] convex velocity/cost sets (realized here by taking the convex
         hull of the finitely sampled pairs),
    [H4] strong controllability at O: the sampled velocities on every
         edge straddle zero with a positive margin delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .exprlang import Expression, format_expr, format_number

__all__ = [
    "Junction",
    "NetworkPoint",
    "EdgeSpec",
    "CostRegime",
    "Problem",
    "AssumptionReport",
    "SpecError",
    "load_problem",
    "parse_problem",
    "format_problem",
    "geodesic_distance",
    "validate",
]


class SpecError(ValueError):
    """Problem file rejected: syntax or semantic error, with a line number."""


@dataclass(frozen=True)
class Junction:
    """N half-line edges, labelled 1..N, glued at the shared vertex O."""

    n_edges: int

    def __post_init__(self):
        if self.n_edges < 2:
            raise ValueError("a junction needs at least 2 edges")

    @property
    def edge_labels(self) -> range:
        return range(1, self.n_edges + 1)


class NetworkPoint:
    """A point (edge label, arclength s >= 0); s = 0 is the vertex O.

    All points with s = 0 are the same point regardless of edge label;
    equality and hashing respect that identification.
    """

    __slots__ = ("edge", "s")

    def __init__(self, edge: int, s: float):
        if s < 0:
            raise ValueError(f"arclength must be >= 0, got {s}")
        object.__setattr__(self, "edge", int(edge))
        object.__setattr__(self, "s", float(s))

    def __setattr__(self, name, value):
        raise AttributeError("NetworkPoint is immutable")

    def __eq__(self, other):
        if not isinstance(other, NetworkPoint):
            return NotImplemented
        if self.s == 0.0 and other.s == 0.0:
            return True
        return self.edge == other.edge and self.s == other.s

    def __hash__(self):
        if self.s == 0.0:
            return hash((0, 0.0))
        return hash((self.edge, self.s))

    def __repr__(self):
        return f"NetworkPoint(edge={self.edge}, s={self.s})"


@dataclass(frozen=True)
class EdgeSpec:
    """One edge: sampled control values, velocity f(x, a), running cost ell(x, a)."""

    controls: tuple[float, ...]
    velocity: Expression
    running_cost: Expression

    def __post_init__(self):
        if not self.controls:
            raise ValueError("control list must be nonempty")
        if any(b <= a for a, b in zip(self.controls, self.controls[1:])):
            raise ValueError("controls must be strictly increasing with no duplicates")


@dataclass(frozen=True)
class CostRegime:
    """Switching costs: kind is 'entry' or 'exit', one cost per edge, all >= 0."""

    kind: str
    costs: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("entry", "exit"):
            raise ValueError(f"regime must be 'entry' or 'exit', got {self.kind!r}")
        for c in self.costs:
            if not math.isfinite(c) or c < 0:
                raise ValueError(f"costs must be finite and >= 0, got {c}")

    @classmethod
    def entry(cls, costs) -> "CostRegime":
        return cls("entry", tuple(float(c) for c in costs))

    @classmethod
    def exit(cls, costs) -> "CostRegime":
        return cls("exit", tuple(float(c) for c in costs))


@dataclass(frozen=True)
class Problem:
    """Full data of a discounted control problem on a junction."""

    junction: Junction
    edges: tuple[EdgeSpec, ...]
    lam: float
    regime: CostRegime

    def __post_init__(self):
        if self.lam <= 0 or not math.isfinite(self.lam):
            raise ValueError("lambda must be positive")
        if len(self.edges) != self.junction.n_edges:
            raise ValueError("edge list length must equal the junction's edge count")
        if len(self.regime.costs) != self.junction.n_edges:
            raise ValueError("cost list length must equal the junction's edge count")

    @property
    def n_edges(self) -> int:
        return self.junction.n_edges

    def edge(self, label: int) -> EdgeSpec:
        """Edge spec for a 1-based edge label."""
        if not 1 <= label <= self.n_edges:
            raise ValueError(f"edge label {label} out of range 1..{self.n_edges}")
        return self.edges[label - 1]


@dataclass(frozen=True)
class AssumptionReport:
    """Empirical validation of the standing hypotheses on a sample grid.

    sup_bound     largest |f| and |ell| seen over the sampled domain (H1/H2)
    f_lipschitz   largest adjacent-sample slope of f in x (H1)
    ell_slope     largest adjacent-sample slope of ell in x (H2)
    margin        controllability margin delta: min over edges of
                  min(max_a f(O,a), -min_a f(O,a)); positive iff the sampled
                  velocities at O straddle zero on every edge (H4)
    hull_vertices per-edge convex hull of the (f(O,a), ell(O,a)) pairs (H3)
    violations    human-readable failures, empty when all hypotheses hold
    """

    sup_bound: float
    f_lipschitz: float
    ell_slope: float
    margin: float
    hull_vertices: tuple[tuple[tuple[float, float], ...], ...]
    violations: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def geodesic_distance(x: NetworkPoint, y: NetworkPoint) -> float:
    """Shortest path length between two points of the junction.

    Same edge: |s_x - s_y|; different edges: s_x + s_y (the path runs
    through the vertex).  Consistent with the O-identification: points
    with s = 0 are at distance s from any (i, s).
    """
    if x.edge == y.edge:
        return abs(x.s - y.s)
    return x.s + y.s


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def load_problem(path) -> Problem:
    """Load and fully parse a problem file; raises SpecError or OSError."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_problem(text)


def _parse_floats(value: str, lineno: int, what: str) -> tuple[float, ...]:
    items = [item.strip() for item in value.split(",")]
    if items == [""]:
        raise SpecError(f"line {lineno}: empty {what} list")
    out = []
    for item in items:
        try:
            out.append(float(item))
        except ValueError:
            raise SpecError(f"line {lineno}: bad number {item!r} in {what}") from None
    return tuple(out)


def _parse_expression(value: str, lineno: int, what: str) -> Expression:
    try:
        return exprlang.parse(value)
    except exprlang.ExprError as exc:
        raise SpecError(f"line {lineno}: bad {what} expression: {exc}") from None


def parse_problem(text: str) -> Problem:
    """Parse problem file text (see the module docstring for the format)."""
    header: dict[str, tuple[str, int]] = {}
    edge_blocks: list[dict[str, tuple[str, int]]] = []
    current: dict[str, tuple[str, int]] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[edge]":
            current = {}
            edge_blocks.append(current)
            continue
        if line.startswith("["):
            raise SpecError(f"line {lineno}: unknown section {line!r}")
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        target = header if current is None else current
        scope = "header" if current is None else "edge block"
        allowed = ("lambda", "regime", "costs") if current is None else ("controls", "f", "ell")
        if key not in allowed:
            raise SpecError(f"line {lineno}: unknown {scope} key {key!r}")
        if key in target:
            raise SpecError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise SpecError(f"line {lineno}: empty value for {key!r}")
        target[key] = (value, lineno)

    for key in ("lambda", "regime", "costs"):
        if key not in header:
            raise SpecError(f"missing {key!r} line")
    lam_text, lam_line = header["lambda"]
    try:
        lam = float(lam_text)
    except ValueError:
        raise SpecError(f"line {lam_line}: bad number {lam_text!r} for lambda") from None
    if lam <= 0:
        raise SpecError(f"line {lam_line}: lambda must be positive")

    regime_text, regime_line = header["regime"]
    if regime_text not in ("entry", "exit"):
        raise SpecError(f"line {regime_line}: regime must be 'entry' or 'exit'")
    costs_text, costs_line = header["costs"]
    costs = _parse_floats(costs_text, costs_line, "costs")
    for c in costs:
        if c < 0 or not math.isfinite(c):
            raise SpecError(f"line {costs_line}: costs must be finite and >= 0")

    if len(edge_blocks) < 2:
        raise SpecError(f"need at least 2 [edge] blocks, found {len(edge_blocks)}")
    if len(costs) != len(edge_blocks):
        raise SpecError(
            f"line {costs_line}: {len(costs)} costs for {len(edge_blocks)} edge blocks"
        )

    edges = []
    for index, block in enumerate(edge_blocks, start=1):
        for key in ("controls", "f", "ell"):
            if key not in block:
                raise SpecError(f"edge {index}: missing {key!r} line")
        controls_text, controls_line = block["controls"]
        controls = _parse_floats(controls_text, controls_line, "controls")
        if any(b <= a for a, b in zip(controls, controls[1:])):
            raise SpecError(
                f"line {controls_line}: controls must be strictly increasing"
            )
        f_text, f_line = block["f"]
        ell_text, ell_line = block["ell"]
        edges.append(
            EdgeSpec(
                controls=controls,
                velocity=_parse_expression(f_text, f_line, "f"),
                running_cost=_parse_expression(ell_text, ell_line, "ell"),
            )
        )

    return Problem(
        junction=Junction(len(edges)),
        edges=tuple(edges),
        lam=lam,
        regime=CostRegime(regime_text, costs),
    )


def format_problem(problem: Problem) -> str:
    """Canonical problem file text; parse_problem(format_problem(p)) round-trips."""
    lines = [
        f"lambda = {format_number(problem.lam)}",
        f"regime = {problem.regime.kind}",
        "costs = " + ", ".join(format_number(c) for c in problem.regime.costs),
    ]
    for spec in problem.edges:
        lines.append("[edge]")
        lines.append("controls = " + ", ".join(format_number(c) for c in spec.controls))
        lines.append(f"f = {format_expr(spec.velocity)}")
        lines.append(f"ell = {format_expr(spec.running_cost)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Assumption validation
# ---------------------------------------------------------------------------

def _convex_hull(points: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Monotone-chain 2-D convex hull; tolerates duplicates and collinearity."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def _sample_edges(problem: Problem, s: np.ndarray):
    """f and ell of every edge at the points s for each control, as
    (len(s), n_controls) pairs, and the sup of |f| and |ell| over all of
    them.  Raises EvalError when a value is not finite."""
    sampled = []
    sup = 0.0
    for label, spec in enumerate(problem.edges, start=1):
        controls = np.asarray(spec.controls)
        f = exprlang.evaluate_array(spec.velocity, s[:, None], controls[None, :])
        ell = exprlang.evaluate_array(spec.running_cost, s[:, None], controls[None, :])
        if not (np.isfinite(f).all() and np.isfinite(ell).all()):
            raise exprlang.EvalError(
                f"edge {label}: non-finite dynamics or cost on the grid"
            )
        sup = max(sup, float(np.abs(f).max()), float(np.abs(ell).max()))
        sampled.append((f, ell))
    return sampled, sup


def validate(problem: Problem, samples: int = 101, x_max: float = 4.0) -> AssumptionReport:
    """Estimate bounds, slopes, and the controllability margin by sampling.

    ``samples`` points span x in [0, x_max] on every edge; refining the grid
    (keeping the old nodes as a subset) never decreases the reported bounds.
    Expression evaluation failures are reported as violations, not raised.
    """
    if samples < 2:
        raise ValueError("need at least 2 sample points")
    xs = np.linspace(0.0, x_max, samples)
    dx = xs[1] - xs[0]

    sup_bound = 0.0
    f_lipschitz = 0.0
    ell_slope = 0.0
    margins = []
    hulls = []
    violations: list[str] = []

    for label, spec in enumerate(problem.edges, start=1):
        controls = np.asarray(spec.controls)
        f_vals = exprlang.evaluate_array(spec.velocity, xs[:, None], controls[None, :])
        ell_vals = exprlang.evaluate_array(spec.running_cost, xs[:, None], controls[None, :])

        f_ok = np.isfinite(f_vals).all()
        ell_ok = np.isfinite(ell_vals).all()
        if not f_ok:
            violations.append(f"[H1]: non-finite dynamics f on edge {label}")
        if not ell_ok:
            violations.append(f"[H2]: non-finite running cost ell on edge {label}")

        with np.errstate(all="ignore"):
            if f_ok:
                sup_bound = max(sup_bound, float(np.abs(f_vals).max()))
                f_lipschitz = max(
                    f_lipschitz, float(np.abs(np.diff(f_vals, axis=0)).max() / dx)
                )
            if ell_ok:
                sup_bound = max(sup_bound, float(np.abs(ell_vals).max()))
                ell_slope = max(
                    ell_slope, float(np.abs(np.diff(ell_vals, axis=0)).max() / dx)
                )

        if f_ok and ell_ok:
            f_origin = f_vals[0]
            ell_origin = ell_vals[0]
            margin_i = float(min(f_origin.max(), -f_origin.min()))
            margins.append(margin_i)
            hulls.append(_convex_hull(list(zip(f_origin.tolist(), ell_origin.tolist()))))
            if margin_i <= 0:
                violations.append(f"[H4]: delta <= 0 on edge {label}")
        else:
            margins.append(float("-inf"))
            hulls.append(())

    return AssumptionReport(
        sup_bound=sup_bound,
        f_lipschitz=f_lipschitz,
        ell_slope=ell_slope,
        margin=float(min(margins)),
        hull_vertices=tuple(hulls),
        violations=tuple(violations),
    )
