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
    [H3] convex velocity/cost sets (not sampled: the scheme realizes the
         convex hull of the finitely sampled pairs itself),
    [H4] strong controllability at O: the sampled velocities on every
         edge straddle zero with a positive margin delta.
"""

from __future__ import annotations

import functools
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
    """A point (edge label, finite arclength s >= 0); s = 0 is the vertex O.

    All points with s = 0 are the same point regardless of edge label;
    equality and hashing respect that identification.
    """

    __slots__ = ("edge", "s")

    def __init__(self, edge: int, s: float):
        if not 0.0 <= s < math.inf:
            raise ValueError(f"arclength must be finite and >= 0, got {s}")
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

    @functools.cached_property
    def kernel(self):
        """exprlang.kernel of this edge, compiled on first use."""
        return exprlang.kernel(self.velocity, self.running_cost, self.controls)

    def __getstate__(self):  # the kernel does not pickle; it is rebuilt on use
        return {k: v for k, v in vars(self).items() if k != "kernel"}


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

    # The dataclass field hash walks every expression tree; a Problem is
    # frozen, so it is computed once per instance and kept in its __dict__.
    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.junction, self.edges, self.lam, self.regime))

    def __hash__(self):
        return self._hash

    def __getstate__(self):  # string hashes differ between processes
        return {k: v for k, v in vars(self).items() if k != "_hash"}

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
    violations    human-readable failures, empty when all hypotheses hold
    """

    sup_bound: float
    f_lipschitz: float
    ell_slope: float
    margin: float
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

    # The values are checked by the constructors; the parser adds the line.
    regime_text, regime_line = header["regime"]
    costs_text, costs_line = header["costs"]
    _construct(regime_line, CostRegime, regime_text, ())  # the kind alone
    costs = _parse_floats(costs_text, costs_line, "costs")
    regime = _construct(costs_line, CostRegime, regime_text, costs)
    junction = _construct(None, Junction, len(edge_blocks))
    if len(costs) != junction.n_edges:  # as Problem does, in the file's terms
        raise SpecError(f"line {costs_line}: {len(costs)} costs for {junction.n_edges} edge blocks")

    edges = []
    for index, block in enumerate(edge_blocks, start=1):
        for key in ("controls", "f", "ell"):
            if key not in block:
                raise SpecError(f"edge {index}: missing {key!r} line")
        controls_text, controls_line = block["controls"]
        f_text, f_line = block["f"]
        ell_text, ell_line = block["ell"]
        controls = _parse_floats(controls_text, controls_line, "controls")
        velocity = _parse_expression(f_text, f_line, "f")
        running_cost = _parse_expression(ell_text, ell_line, "ell")
        edges.append(_construct(controls_line, EdgeSpec, controls, velocity, running_cost))
    return _construct(lam_line, Problem, junction, tuple(edges), lam, regime)


def _construct(lineno: int | None, make, *args):
    """make(*args), its ValueError re-raised as a SpecError naming the line."""
    try:
        return make(*args)
    except ValueError as exc:
        where = "" if lineno is None else f"line {lineno}: "
        raise SpecError(f"{where}{exc}") from None


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

@dataclass(frozen=True)
class EdgeSamples:
    """f and ell of every edge at a set of points s, for each of its
    controls, as (N, len(s), K) arrays for K the most controls of any edge.
    The (N, K) mask real marks the columns that hold a control, each edge's
    first ones; the rest is padding with f = 0 and ell = inf, so no minimum
    over the columns picks it."""

    f: np.ndarray
    ell: np.ndarray
    real: np.ndarray

    def sup(self) -> float:
        """The sup of |f| and |ell| over the controls; raises EvalError
        naming the first edge with a value that is not finite."""
        ell = np.where(self.real[:, None], self.ell, 0.0)
        finite = np.isfinite(self.f).all(axis=(1, 2)) & np.isfinite(ell).all(axis=(1, 2))
        if not finite.all():
            raise exprlang.EvalError(
                f"edge {int(finite.argmin()) + 1}: non-finite dynamics or cost on the grid"
            )
        return float(max(np.abs(self.f).max(), np.abs(ell).max()))


def _sample_edges(problem: Problem, s: np.ndarray) -> EdgeSamples:
    """The sample table of f and ell at the points s: the only evaluation
    of the problem data over a set of points, which the solver's scheme,
    the oracle's MDP and validate all read.  Values that are not finite
    stay in the table, for the reader to judge."""
    counts = [len(spec.controls) for spec in problem.edges]
    f = np.zeros((problem.n_edges, len(s), max(counts)))
    ell = np.full(f.shape, np.inf)
    for e, spec in enumerate(problem.edges):
        controls = np.asarray(spec.controls)[None, :]
        f[e, :, : counts[e]] = exprlang.evaluate_array(spec.velocity, s[:, None], controls)
        ell[e, :, : counts[e]] = exprlang.evaluate_array(spec.running_cost, s[:, None], controls)
    return EdgeSamples(f, ell, np.arange(f.shape[2]) < np.array(counts)[:, None])


def validate(problem: Problem, samples: int = 101, x_max: float = 4.0) -> AssumptionReport:
    """Estimate bounds, slopes, and the controllability margin by sampling.

    ``samples`` points span x in [0, x_max] on every edge; refining the grid
    (keeping the old nodes as a subset) never decreases the reported bounds.
    Expression evaluation failures are reported as violations, not raised.
    """
    if samples < 2:
        raise ValueError("need at least 2 sample points")
    xs = np.linspace(0.0, x_max, samples)
    dx = float(xs[1] - xs[0])
    table = _sample_edges(problem, xs)
    # Padding reads as f = ell = 0 here, which no sup or slope picks.
    f, ell = table.f, np.where(table.real[:, None], table.ell, 0.0)
    f_ok, ell_ok = (np.isfinite(a).all(axis=(1, 2)) for a in (f, ell))

    def largest(values, ok) -> float:
        """max |values| over the edges that are ok; 0 when none is."""
        return float(np.abs(values).max(initial=0.0, where=ok[:, None, None]))

    with np.errstate(all="ignore"):
        sup_bound = max(largest(f, f_ok), largest(ell, ell_ok))
        f_lipschitz = largest(np.diff(f, axis=1), f_ok) / dx
        ell_slope = largest(np.diff(ell, axis=1), ell_ok) / dx

    margins = []
    violations: list[str] = []
    for e in range(problem.n_edges):
        if not f_ok[e]:
            violations.append(f"[H1]: non-finite dynamics f on edge {e + 1}")
        if not ell_ok[e]:
            violations.append(f"[H2]: non-finite running cost ell on edge {e + 1}")
        if not (f_ok[e] and ell_ok[e]):
            margins.append(float("-inf"))
            continue
        # The edge's own controls only: a padded f = 0 would pull a
        # one-sided edge's margin to 0.
        f_origin = f[e, 0, table.real[e]]
        margins.append(float(min(f_origin.max(), -f_origin.min())))
        if margins[-1] <= 0:
            violations.append(f"[H4]: delta <= 0 on edge {e + 1}")

    return AssumptionReport(
        sup_bound=sup_bound,
        f_lipschitz=f_lipschitz,
        ell_slope=ell_slope,
        margin=float(min(margins)),
        violations=tuple(violations),
    )
