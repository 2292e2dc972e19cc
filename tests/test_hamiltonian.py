import numpy as np
import pytest

import junction_hjb as jh
from junction_hjb import exprlang
from junction_hjb.hamiltonian import (
    NoStationaryControlError,
    hamiltonian,
    tangential_hamiltonian,
    vertex_data,
)
from junction_hjb.model import parse_problem


def _plus_pairs(problem, edge):
    return vertex_data(problem).edge(edge).plus_pairs


def hamiltonian_plus(problem, edge, p):
    """H_i(O, p) restricted to the nonnegative-velocity pairs that the
    solver's vertex update and simulate use."""
    return max(-p * f - ell for f, ell in _plus_pairs(problem, edge))


def _zero_costs(problem, edge):
    return list(vertex_data(problem).edge(edge).zero_costs)


def _two_edge(controls1, f1, ell1, controls2="-1, 0, 1", f2="a", ell2="1"):
    return parse_problem(
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        f"[edge]\ncontrols = {controls1}\nf = {f1}\nell = {ell1}\n"
        f"[edge]\ncontrols = {controls2}\nf = {f2}\nell = {ell2}\n"
    )


def test_hamiltonian_dense_controls():
    dense = ", ".join(format(a, "g") for a in np.linspace(-1, 1, 201))
    p = _two_edge(dense, "a", "1")
    assert hamiltonian(p, 1, 0.0, 2.0) == pytest.approx(1.0)  # |p| - 1


def test_hamiltonian_benchmark_edge_at_zero_slope():
    p = jh.builtin_problem("entry-basic")
    # Edge 2 (ell = 1 - a): max over a of (a - 1) = 0 at a = 1.
    assert hamiltonian(p, 2, 0.0, 0.0) == pytest.approx(0.0)


def test_hamiltonian_singleton_control():
    p = _two_edge("0.7", "a * (1 + x)", "2 + x")
    x, p_slope, a = 1.3, -0.4, 0.7
    f = a * (1 + x)
    ell = 2 + x
    assert hamiltonian(p, 1, x, p_slope) == pytest.approx(-p_slope * f - ell)


def test_hamiltonian_plus_enumeration():
    p = _two_edge("-1, 0, 1", "a", "1")
    # Samples a = 0 and a = 1, then the stationary (-1, 1) pair.
    assert _plus_pairs(p, 1) == ((0.0, 1.0), (1.0, 1.0), (0.0, 1.0))
    assert hamiltonian_plus(p, 1, 3.0) == pytest.approx(-1.0)
    assert hamiltonian_plus(p, 1, -3.0) == pytest.approx(2.0)


def test_hamiltonian_plus_interpolated_point_dominated():
    p = _two_edge("-1, 1", "a", "1 - a")
    # At p = 0 the sampled a = 1 gives 0; the interpolated stationary point
    # costs 1 and is dominated.
    assert hamiltonian_plus(p, 1, 0.0) == pytest.approx(0.0)


def test_hamiltonian_plus_empty():
    p = _two_edge("-1, -0.5", "a", "1")
    assert _plus_pairs(p, 1) == ()


def test_zero_velocity_controls_examples():
    p = _two_edge("-1, 0, 1", "a", "1")
    costs = _zero_costs(p, 1)
    assert costs.count(1.0) == 2  # sampled a=0 and the (-1, 1) pair

    p2 = _two_edge("-1, 1", "a", "1 - a")
    assert _zero_costs(p2, 1) == [pytest.approx(1.0)]

    p3 = _two_edge("0, 1", "1 + a", "1")
    assert _zero_costs(p3, 1) == []


def test_tangential_hamiltonian_benchmark():
    p = jh.builtin_problem("entry-basic")
    assert tangential_hamiltonian(p) == pytest.approx(-1.0)


def test_tangential_hamiltonian_constant_cost():
    p = _two_edge("-1, 0, 1", "a", "3", ell2="3")
    assert tangential_hamiltonian(p) == pytest.approx(-3.0)


def test_tangential_hamiltonian_min_over_edges():
    p = _two_edge("-1, 0, 1", "a", "3", controls2="-1, 0, 1", f2="a", ell2="2")
    assert tangential_hamiltonian(p) == pytest.approx(-2.0)


def test_tangential_hamiltonian_requires_stationary_control():
    p = _two_edge("0.5, 1", "1 + a", "1", controls2="0.5, 1", f2="1 + a", ell2="1")
    with pytest.raises(NoStationaryControlError):
        tangential_hamiltonian(p)


def test_hull_exactness_random_convex_combinations():
    rng = np.random.default_rng(11)
    p = _two_edge("-1, -0.4, 0.2, 1", "a * (1 + 0.1 * x)", "1 + a^2 + 0.3 * a")
    spec = p.edges[0]
    for _ in range(50):
        slope = float(rng.normal(scale=3))
        x = float(rng.uniform(0, 2))
        base = hamiltonian(p, 1, x, slope)
        fs = np.array([exprlang.evaluate(spec.velocity, x, a) for a in spec.controls])
        ells = np.array(
            [exprlang.evaluate(spec.running_cost, x, a) for a in spec.controls]
        )
        weights = rng.dirichlet(np.ones(len(fs)), size=20)
        mixed = -slope * (weights @ fs) - (weights @ ells)
        assert mixed.max() <= base + 1e-12


def test_hamiltonian_convex_in_slope():
    p = _two_edge("-1, -0.4, 0.2, 1", "a * (1 + 0.1 * x)", "1 + a^2 + 0.3 * a")
    rng = np.random.default_rng(17)
    for _ in range(100):
        slope_a, slope_b = rng.normal(scale=5, size=2)
        x = float(rng.uniform(0, 2))
        mid = hamiltonian(p, 1, x, (slope_a + slope_b) / 2)
        avg = 0.5 * (hamiltonian(p, 1, x, slope_a) + hamiltonian(p, 1, x, slope_b))
        assert mid <= avg + 1e-12


def test_coercivity_with_positive_margin():
    p = jh.builtin_problem("entry-basic")
    report = jh.validate(p)
    rng = np.random.default_rng(5)
    for _ in range(100):
        slope = float(rng.normal(scale=10))
        value = hamiltonian(p, 1, 0.0, slope)
        assert value >= report.margin * abs(slope) - report.sup_bound - 1e-12


def test_plus_below_full_hamiltonian():
    p = _two_edge("-1, -0.3, 0.4, 1", "a", "1 + a + a^2")
    rng = np.random.default_rng(9)
    for _ in range(100):
        slope = float(rng.normal(scale=5))
        assert hamiltonian_plus(p, 1, slope) <= hamiltonian(p, 1, 0.0, slope) + 1e-12


def test_max_over_nonnegative_equals_sup_over_positive():
    # With a strictly positive sampled velocity, the max including the
    # stationary hull points equals the sup over strictly positive
    # velocities along interpolations toward them.
    p = _two_edge("-1, 1", "a", "1 - a")
    data = vertex_data(p).edge(1)
    positive = [(f, ell) for f, ell in data.plus_pairs if f > 0]
    stationary = [(f, ell) for f, ell in data.plus_pairs if f == 0]
    assert positive and stationary
    for slope in (-2.0, -0.5, 0.0, 0.7, 3.0):
        full = hamiltonian_plus(p, 1, slope)
        candidates = [-slope * f - ell for f, ell in positive]
        for f0, ell0 in stationary:
            for fp, ellp in positive:
                for t in np.geomspace(1e-9, 1.0, 40):
                    f = (1 - t) * f0 + t * fp
                    ell = (1 - t) * ell0 + t * ellp
                    candidates.append(-slope * f - ell)
        sup_positive = max(candidates)
        assert sup_positive == pytest.approx(full, abs=1e-7)


def test_vertex_data_stores_generators():
    p = _two_edge("-1, 0, 1", "a", "1 - a")
    data = vertex_data(p).edge(1)
    assert data.zero_min == pytest.approx(1.0)
    kinds = {len(gen) for gen in data.zero_generators}
    assert kinds == {1, 2}
