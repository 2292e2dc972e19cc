import ast
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import junction_hjb as jh
from junction_hjb import exprlang, oracle, solver
from junction_hjb.hamiltonian import (
    ZERO_VELOCITY_TOL,
    NoStationaryControlError,
    VertexAction,
    VertexBranch,
    vertex_data,
)
from junction_hjb.model import CostRegime, Problem, parse_problem


def _plus_pairs(problem, edge):
    return tuple((a.velocity, a.cost) for a in vertex_data(problem).edge(edge))


def hamiltonian_plus(problem, edge, p):
    """H_i(O, p) restricted to the nonnegative-velocity pairs that the
    solver's vertex update and simulate use."""
    return max(-p * f - ell for f, ell in _plus_pairs(problem, edge))


def _zero_costs(problem, edge):
    return [a.cost for a in vertex_data(problem).edge(edge) if a.velocity == 0.0]


def _two_edge(controls1, f1, ell1, controls2="-1, 0, 1", f2="a", ell2="1"):
    return parse_problem(
        "lambda = 1\nregime = entry\ncosts = 1, 1\n"
        f"[edge]\ncontrols = {controls1}\nf = {f1}\nell = {ell1}\n"
        f"[edge]\ncontrols = {controls2}\nf = {f2}\nell = {ell2}\n"
    )


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
    assert vertex_data(p).tangential == pytest.approx(-1.0)


def test_tangential_hamiltonian_constant_cost():
    p = _two_edge("-1, 0, 1", "a", "3", ell2="3")
    assert vertex_data(p).tangential == pytest.approx(-3.0)


def test_tangential_hamiltonian_min_over_edges():
    p = _two_edge("-1, 0, 1", "a", "3", controls2="-1, 0, 1", f2="a", ell2="2")
    assert vertex_data(p).tangential == pytest.approx(-2.0)


def test_tangential_hamiltonian_requires_stationary_control():
    p = _two_edge("0.5, 1", "1 + a", "1", controls2="0.5, 1", f2="1 + a", ell2="1")
    with pytest.raises(NoStationaryControlError):
        vertex_data(p)


def test_plus_below_full_hamiltonian():
    p = _two_edge("-1, -0.3, 0.4, 1", "a", "1 + a + a^2")
    spec = p.edge(1)
    fs = [exprlang.evaluate(spec.velocity, 0.0, a) for a in spec.controls]
    ells = [exprlang.evaluate(spec.running_cost, 0.0, a) for a in spec.controls]
    rng = np.random.default_rng(9)
    for _ in range(100):
        slope = float(rng.normal(scale=5))
        # H_1(O, p) over every sampled control, inward ones included.
        full = max(-slope * f - ell for f, ell in zip(fs, ells))
        assert hamiltonian_plus(p, 1, slope) <= full + 1e-12


def test_max_over_nonnegative_equals_sup_over_positive():
    # With a strictly positive sampled velocity, the max including the
    # stationary hull points equals the sup over strictly positive
    # velocities along interpolations toward them.
    p = _two_edge("-1, 1", "a", "1 - a")
    pairs = _plus_pairs(p, 1)
    positive = [(f, ell) for f, ell in pairs if f > 0]
    stationary = [(f, ell) for f, ell in pairs if f == 0]
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
    stationary = [a for a in vertex_data(p).edge(1) if a.velocity == 0.0]
    assert min(a.cost for a in stationary) == pytest.approx(1.0)
    kinds = {len(a.controls) for a in stationary}
    assert kinds == {1, 2}


# Random edges: controls on a 0.1 grid, velocities with exact zeros
# ("a - 0.5" at 0.5, "1 + a" at -1), a zero up to rounding ("3 * a - 0.3"
# is 5.6e-17 at 0.1), or none at all ("1 + a" on a grid above -1).
_edge = st.tuples(
    st.lists(st.integers(-10, 10), min_size=1, max_size=6, unique=True).map(
        lambda ks: ", ".join(format(k / 10, "g") for k in sorted(ks))
    ),
    st.sampled_from(["a", "3 * a - 0.3", "a - 0.5", "1 + a", "a^3 - 0.2 * a"]),
    st.sampled_from(["1", "1 + a^2", "2 - a", "0.5 + 0.3 * a + a^2"]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_edge, _edge)
@example(("-1, 0.1, 1", "3 * a - 0.3", "1 + a^2"), ("-1, 1", "a", "2 - a"))
@example(("0.5, 1", "1 + a", "1"), ("0.5, 1", "1 + a", "1"))
def test_vertex_actions_are_the_relaxed_control_set(edge1, edge2):
    """Each edge's actions are its samples with f(O, a) >= 0, then the
    stationary mix of every opposite-sign pair; the tangential Hamiltonian
    is minus the cheapest stationary cost."""
    problem = _two_edge(*edge1, *edge2)
    expected, stationary = [], []
    for spec in problem.edges:
        raw = [exprlang.evaluate(spec.velocity, 0.0, a) for a in spec.controls]
        fs = [0.0 if abs(f) <= ZERO_VELOCITY_TOL else f for f in raw]
        ells = [exprlang.evaluate(spec.running_cost, 0.0, a) for a in spec.controls]
        samples = [
            VertexAction(f, ell, (k,)) for k, (f, ell) in enumerate(zip(fs, ells)) if f >= 0
        ]
        mixes = [
            (k_neg, k_pos)
            for k_neg, f_neg in enumerate(fs)
            if f_neg < 0
            for k_pos, f_pos in enumerate(fs)
            if f_pos > 0
        ]
        expected.append((samples, mixes, fs, ells))
        stationary += [a.cost for a in samples if a.velocity == 0.0]
    if not stationary and not any(mixes for _, mixes, _, _ in expected):
        with pytest.raises(NoStationaryControlError):
            vertex_data(problem)
        return

    data = vertex_data(problem)
    for actions, (samples, mixes, fs, ells) in zip(data.edges, expected):
        assert list(actions[: len(samples)]) == samples
        tail = actions[len(samples) :]
        assert [a.controls for a in tail] == mixes
        scale = max(abs(f) for f in fs)
        for a in tail:
            k_neg, k_pos = a.controls
            assert a.velocity == 0.0 and 0.0 < a.theta < 1.0
            drift = a.theta * fs[k_neg] + (1.0 - a.theta) * fs[k_pos]
            assert abs(drift) <= 1e-12 * scale
            mixed = a.theta * ells[k_neg] + (1.0 - a.theta) * ells[k_pos]
            assert a.cost == pytest.approx(mixed, rel=1e-12, abs=1e-12)
            stationary.append(a.cost)
    assert data.tangential == -min(stationary)


# ---------------------------------------------------------------------------
# Vertex branches
# ---------------------------------------------------------------------------

def _branches(kind, edge, actions, charge):
    return [VertexBranch(kind, edge, k, charge) for k in actions]


def test_entry_basic_branch_lists():
    # Each edge's actions: a = 0 (v = 0), a = 1 (v = 1), the (-1, 1) mix
    # (v = 0).  Every stationary action costs 1, so the park holds edge 1's
    # a = 0 and the stall value is 1.
    data = vertex_data(jh.builtin_problem("entry-basic"))  # c = (10, 0.5)
    park = VertexBranch("park", 1, 0, 1.0)
    assert list(data.limit_branches[0]) == (
        _branches("switch", 2, range(3), 0.5) + [park] + _branches("continue", 1, range(3), 0.0)
    )
    assert list(data.limit_branches[1]) == (
        _branches("switch", 1, range(3), 10.0) + [park] + _branches("continue", 2, range(3), 0.0)
    )
    # v(O): moves with v > 0 into edge 1 at c_1 and edge 2 at c_2, then park.
    assert data.value_branches == (
        VertexBranch("switch", 1, 1, 10.0), VertexBranch("switch", 2, 1, 0.5), park
    )


def test_exit_basic_branch_lists():
    # With exit costs d = (0, 0.5), a switch from edge i charges d_i, the
    # park d_i plus the stall value, and v(O)'s moves nothing: the exit was
    # charged on arrival at O.
    data = vertex_data(jh.builtin_problem("exit-basic"))
    for (i, j), d in zip(((1, 2), (2, 1)), (0.0, 0.5)):
        assert list(data.limit_branches[i - 1]) == (
            _branches("switch", j, range(3), d)
            + [VertexBranch("park", 1, 0, d + 1.0)]
            + _branches("continue", i, range(3), 0.0)
        )
    assert data.value_branches == (
        VertexBranch("switch", 1, 1, 0.0), VertexBranch("switch", 2, 1, 0.0),
        VertexBranch("park", 1, 0, 1.0),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    _edge, _edge,
    st.sampled_from(["entry", "exit"]),
    st.tuples(st.sampled_from([0.0, 0.3, 2.0]), st.sampled_from([0.0, 0.7])),
)
@example(("-1, 0, 1", "a", "1"), ("-1, 0, 1", "a", "1"), "entry", (0.3, 0.7))
def test_branch_lists_follow_the_scheme_tie_order(edge1, edge2, kind, costs):
    """Each u_i(O) list is every other edge's actions as switches, then one
    park, then edge i's actions as continues: (total vertex actions + 1)
    branches.  v(O)'s list is every action with v > 0 as a switch, then the
    park.  The park holds the first cheapest stationary action, edge by
    edge, and charges are the regime's."""
    base = _two_edge(*edge1, *edge2)
    problem = Problem(base.junction, base.edges, base.lam, CostRegime(kind, costs))
    try:
        data = vertex_data(problem)
    except NoStationaryControlError:
        return
    actions = [(label, k, a) for label in (1, 2) for k, a in enumerate(data.edge(label))]
    held = None
    for label, k, a in actions:
        if a.velocity == 0.0 and (held is None or a.cost < held[2].cost):
            held = (label, k, a)
    stall = held[2].cost / problem.lam
    entry = kind == "entry"
    for i, row in zip((1, 2), data.limit_branches):
        d_i = costs[i - 1]
        assert len(row) == len(actions) + 1
        (park,) = [b for b in row if b.kind == "park"]
        assert (park.edge, park.action) == held[:2]
        assert park.charge == (stall if entry else d_i + stall)
        switches = [b for b in row if b.kind == "switch"]
        assert row == (*switches, park, *[b for b in row if b.kind == "continue"])
        assert [(b.edge, b.action) for b in switches] == [
            (label, k) for label, k, _ in actions if label != i
        ]
        assert all(b.charge == (costs[b.edge - 1] if entry else d_i) for b in switches)
        assert [(b.edge, b.action, b.charge) for b in row[len(switches) + 1 :]] == [
            (label, k, 0.0) for label, k, _ in actions if label == i
        ]
    assert data.value_branches == (
        *[VertexBranch("switch", label, k, costs[label - 1] if entry else 0.0)
          for label, k, a in actions if a.velocity > 0.0],
        VertexBranch("park", *held[:2], stall),
    )


@pytest.mark.parametrize(
    "function", [solver.DiscreteSystem.__init__, solver._reconstruct_vertex, oracle.simulate]
)
def test_branch_readers_do_not_read_the_regime_kind(function):
    # The solver's vertex update, its v(O) and the rollout's vertex choice
    # take the regime's charge rule from vertex_data's branch lists, not by
    # branching on the regime themselves.
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    for node in ast.walk(tree):
        assert not (
            isinstance(node, ast.Attribute) and node.attr == "kind"
            and ast.unparse(node.value).endswith("regime")
        ), ast.unparse(node)
