import ast
import copy
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

import junction_hjb as jh
from junction_hjb.model import (
    CostRegime,
    EdgeSpec,
    Junction,
    NetworkPoint,
    Problem,
    SpecError,
    format_problem,
    geodesic_distance,
    parse_problem,
    validate,
)

BASIC = """\
lambda = 1.0
regime = entry
costs = 10.0, 0.5
[edge]
controls = -1, 0, 1
f = a
ell = 1
[edge]
controls = -1, 0, 1
f = a
ell = 1 - a
"""


def test_load_benchmark_problem(tmp_path):
    path = tmp_path / "basic.spec"
    path.write_text(BASIC)
    p = jh.load_problem(path)
    assert p.n_edges == 2
    assert p.lam == 1.0
    assert p.regime == CostRegime.entry((10.0, 0.5))
    assert p.edges[0].controls == (-1.0, 0.0, 1.0)


def test_lambda_must_be_positive():
    with pytest.raises(SpecError, match="lambda must be positive"):
        parse_problem(BASIC.replace("lambda = 1.0", "lambda = 0"))
    # Non-finite rates too, as a SpecError naming the line, so that
    # load_problem raises only SpecError or OSError.
    for text in ("inf", "nan", "-1"):
        with pytest.raises(SpecError, match="^line 1: lambda must be positive"):
            parse_problem(BASIC.replace("lambda = 1.0", f"lambda = {text}"))


@pytest.mark.parametrize(
    "mutation, message",
    [
        (("costs = 10.0, 0.5", "costs = 10.0, -0.5"), ">= 0"),
        (("costs = 10.0, 0.5", "costs = 10.0"), "1 costs for 2 edge blocks"),
        (("controls = -1, 0, 1\nf = a\nell = 1\n[edge]", "controls = -1, 0, 0, 1\nf = a\nell = 1\n[edge]"), "strictly increasing"),
        (("regime = entry", "regime = both"), "regime must be"),
        (("f = a", "f = q"), "unknown identifier"),
        (("lambda = 1.0\n", ""), "missing 'lambda'"),
    ],
)
def test_spec_errors(mutation, message):
    old, new = mutation
    with pytest.raises(SpecError, match=message):
        parse_problem(BASIC.replace(old, new, 1))


def test_missing_file():
    with pytest.raises(OSError):
        jh.load_problem("/nonexistent/never.spec")


def test_dump_round_trip():
    text = (
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n"
    )
    p = parse_problem(text)
    dumped = format_problem(p)
    assert format_problem(parse_problem(dumped)) == dumped


def test_problem_hash_is_the_field_hash_kept_per_instance():
    # Equal problems built apart hash equal, with the dataclass field hash;
    # a pickled copy leaves the kept hash behind and computes its own.
    one, two = parse_problem(BASIC), parse_problem(BASIC)
    assert one is not two and one == two
    assert hash(one) == hash(two) == hash((one.junction, one.edges, one.lam, one.regime))
    copy = pickle.loads(pickle.dumps(one))
    assert "_hash" in vars(one) and "_hash" not in vars(copy)
    assert copy == one and hash(copy) == hash(one)
    assert parse_problem(BASIC.replace("0.5", "0.25")) != one


def test_junction_needs_two_edges():
    with pytest.raises(ValueError):
        Junction(1)
    with pytest.raises(SpecError, match="at least 2"):
        parse_problem(
            "lambda = 1\nregime = entry\ncosts = 1\n"
            "[edge]\ncontrols = 0, 1\nf = a\nell = 1\n"
        )


def test_network_point_pickles_and_copies():
    # Restoring must go through __init__, since __setattr__ is blocked.
    for point in (NetworkPoint(2, 0.75), NetworkPoint(3, 0.0)):
        for back in (pickle.loads(pickle.dumps(point)), copy.copy(point), copy.deepcopy(point)):
            assert type(back) is NetworkPoint and (back.edge, back.s) == (point.edge, point.s)
            assert back == point and hash(back) == hash(point)
            with pytest.raises(AttributeError, match="immutable"):
                back.s = 1.0
    # A copied vertex point is still every s = 0 point.
    vertex = copy.deepcopy(NetworkPoint(3, 0.0))
    assert vertex == NetworkPoint(1, 0.0) and hash(vertex) == hash(NetworkPoint(1, 0.0))


def test_vertex_identification():
    assert NetworkPoint(1, 0.0) == NetworkPoint(2, 0.0)
    assert hash(NetworkPoint(1, 0.0)) == hash(NetworkPoint(3, 0.0))
    assert NetworkPoint(1, 0.5) != NetworkPoint(2, 0.5)
    assert NetworkPoint(1, 0.5) == NetworkPoint(1, 0.5)
    for s in (-0.1, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="arclength"):
            NetworkPoint(1, s)


def test_geodesic_examples():
    assert geodesic_distance(NetworkPoint(1, 0.3), NetworkPoint(1, 0.5)) == pytest.approx(0.2)
    assert geodesic_distance(NetworkPoint(1, 0.3), NetworkPoint(2, 0.5)) == pytest.approx(0.8)
    assert geodesic_distance(NetworkPoint(1, 0.0), NetworkPoint(2, 0.0)) == 0.0


def test_geodesic_is_a_metric():
    rng = np.random.default_rng(7)
    for _ in range(500):
        pts = [
            NetworkPoint(int(rng.integers(1, 4)), float(rng.uniform(0, 3)))
            for _ in range(3)
        ]
        x, y, z = pts
        assert geodesic_distance(x, y) == geodesic_distance(y, x)
        assert (geodesic_distance(x, y) == 0) == (x == y)
        assert geodesic_distance(x, z) <= geodesic_distance(x, y) + geodesic_distance(
            y, z
        ) + 1e-12


def test_validate_benchmark_problem():
    p = parse_problem(BASIC)
    report = validate(p)
    assert report.margin == pytest.approx(1.0)
    assert report.sup_bound >= 2.0  # ell_2 reaches 2 at a = -1
    assert report.violations == ()
    assert report.ok


def test_validate_one_sided_controls():
    text = (
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = 1\nf = a\nell = 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n"
    )
    report = validate(parse_problem(text))
    assert any("[H4]" in v and "edge 1" in v for v in report.violations)
    assert report.margin == -1.0


def test_validate_degenerate_velocity_at_origin():
    text = (
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = -1, 1\nf = x * a\nell = 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n"
    )
    report = validate(parse_problem(text))
    assert report.margin == pytest.approx(0.0)
    assert any("[H4]" in v for v in report.violations)


def test_validate_nonfinite_reported_not_raised():
    text = (
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1 / x\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = 1\n"
    )
    report = validate(parse_problem(text))
    assert any("[H2]" in v for v in report.violations)


def test_validate_monotone_under_refinement():
    text = (
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a * (1 + sin(x))\nell = cos(3 * x) + a^2\n"
        "[edge]\ncontrols = -1, 0, 1\nf = a\nell = x^2 / 10\n"
    )
    p = parse_problem(text)
    coarse = validate(p, samples=51)
    fine = validate(p, samples=101)  # nested: every coarse node is a fine node
    assert fine.sup_bound >= coarse.sup_bound - 1e-12
    assert fine.f_lipschitz >= coarse.f_lipschitz - 1e-12
    assert fine.ell_slope >= coarse.ell_slope - 1e-12


def _scalar_report(problem, samples=101, x_max=4.0):
    """sup_bound, f_lipschitz, ell_slope and margin of validate, edge by
    edge and point by point with the scalar evaluator."""
    from junction_hjb import exprlang

    xs = np.linspace(0.0, x_max, samples)
    sup = lipschitz = slope = 0.0
    margin = math.inf
    for spec in problem.edges:
        f, ell = (
            np.array([[exprlang.evaluate(expr, x, a) for a in spec.controls] for x in xs])
            for expr in (spec.velocity, spec.running_cost)
        )
        sup = max(sup, np.abs(f).max(), np.abs(ell).max())
        lipschitz = max(lipschitz, np.abs(np.diff(f, axis=0)).max() / (xs[1] - xs[0]))
        slope = max(slope, np.abs(np.diff(ell, axis=0)).max() / (xs[1] - xs[0]))
        margin = min(margin, f[0].max(), -f[0].min())
    return sup, lipschitz, slope, margin


def test_validate_margin_formula():
    rng = np.random.default_rng(3)
    from conftest import make_random_problem

    problems = [make_random_problem(rng) for _ in range(5)]
    # Edges of 1 to 5 controls, one of them one-sided, so that the sample
    # table pads the shorter edges and the margin is negative.
    for _ in range(5):
        base = make_random_problem(rng)
        edges = []
        for e, spec in enumerate(base.edges):
            pool = [-1.0, -0.8, -0.6, 0.0, 0.7, 0.9, 1.0]
            controls = rng.choice(pool, rng.integers(1, 6), replace=False)
            if e == 0:
                controls = np.abs(controls) + 0.5
            controls = tuple(sorted(set(controls.tolist())))
            edges.append(EdgeSpec(controls, spec.velocity, spec.running_cost))
        problems.append(Problem(base.junction, tuple(edges), base.lam, base.regime))

    for p in problems:
        report = validate(p)
        expected = _scalar_report(p)
        got = (report.sup_bound, report.f_lipschitz, report.ell_slope, report.margin)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert min(p.margin for p in map(validate, problems[5:])) < 0


def test_only_the_sample_table_evaluates_over_arrays():
    # f and ell are evaluated over a set of points in one place, model's
    # sample table, which the solver, the oracle's MDP and validate read.
    # connect's leg quadrature is the one exception: it evaluates at points
    # it picks per leg.
    package = Path(jh.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        if path.stem == "exprlang":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                name = getattr(node, "attr", None) or getattr(node, "id", None)
                if isinstance(node, ast.alias):
                    name = node.name
                if name == "evaluate_array":
                    callers.add((path.stem, getattr(top, "name", None)))
    assert callers == {("model", "_sample_edges"), ("oracle", "connect")}
