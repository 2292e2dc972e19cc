import numpy as np
import pytest

import junction_hjb as jh
from junction_hjb.model import (
    CostRegime,
    Junction,
    NetworkPoint,
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


def test_junction_needs_two_edges():
    with pytest.raises(ValueError):
        Junction(1)
    with pytest.raises(SpecError, match="at least 2"):
        parse_problem(
            "lambda = 1\nregime = entry\ncosts = 1\n"
            "[edge]\ncontrols = 0, 1\nf = a\nell = 1\n"
        )


def test_vertex_identification():
    assert NetworkPoint(1, 0.0) == NetworkPoint(2, 0.0)
    assert hash(NetworkPoint(1, 0.0)) == hash(NetworkPoint(3, 0.0))
    assert NetworkPoint(1, 0.5) != NetworkPoint(2, 0.5)
    assert NetworkPoint(1, 0.5) == NetworkPoint(1, 0.5)
    with pytest.raises(ValueError):
        NetworkPoint(1, -0.1)


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


def test_validate_margin_formula():
    rng = np.random.default_rng(3)
    from conftest import make_random_problem
    from junction_hjb import exprlang

    for _ in range(5):
        p = make_random_problem(rng)
        report = validate(p)
        expected = min(
            min(
                max(exprlang.evaluate(spec.velocity, 0.0, a) for a in spec.controls),
                -min(exprlang.evaluate(spec.velocity, 0.0, a) for a in spec.controls),
            )
            for spec in p.edges
        )
        assert report.margin == pytest.approx(expected)
