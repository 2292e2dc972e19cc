"""The solver against exact value functions, at two mesh sizes.

Each problem below has its value function in closed form.  At h = dt the
scheme converges at first order, so the sup error over the nodes in
[0, 3] of every edge, and at v(O), must be at most C * h, and halving h
must halve it: the observed order lies in [0.9, 1.1].  C is the measured
error constant rounded up: 0.476 to 0.5, 0.280 to 0.3, 1.411 to 1.5 (the
faster edge with ell = 1 + x) and 1.603 to 1.7 (the exit hold, whose u_2
and v(O) come out exact).
"""

import math

import numpy as np
import pytest

import junction_hjb as jh

# entry-basic with a faster edge 1, f = a * (1 + x): reaching O from s
# takes ln(1 + s), then entering edge 2 costs 0.5 and edge 2 is free.
FASTER_EDGE = """\
lambda = 1
regime = entry
costs = 10, 0.5
[edge]
controls = -1, 0, 1
f = a * (1 + x)
ell = 1
[edge]
controls = -1, 0, 1
f = a
ell = 1 - a
"""


def _to_o_then_free(s):
    # Run to O at unit speed paying ell = 1, then switch into edge 2 for free.
    return 1.0 - np.exp(-s)


CASES = {
    # Free switching into edge 2: with exit costs d_1 = 0, with entry
    # costs c_2 = 0.
    "exit-basic": (jh.builtin_problem("exit-basic"), _to_o_then_free, 0.0, 0.5),
    "entry-free": (jh.builtin_problem("entry-free"), _to_o_then_free, 0.0, 0.5),
    "entry-mixed": (jh.builtin_problem("entry-mixed"), _to_o_then_free, 0.0, 0.5),
    "faster-edge": (
        jh.parse_problem(FASTER_EDGE), lambda s: 1.0 - 0.5 / (1.0 + s), 0.5, 0.3
    ),
    # The faster edge with ell = 1 + x on edge 1: running to O costs
    # (1 + s)/2 - 0.5/(1 + s), and the discounted entry into edge 2 the rest.
    "faster-edge-sloped-cost": (
        jh.parse_problem(FASTER_EDGE.replace("ell = 1\n", "ell = 1 + x\n", 1)),
        lambda s: (1.0 + s) / 2.0, 0.5, 1.5,
    ),
    # The exit hold: edge 1 runs toward O and hovers just off it, where
    # ell = 0.2 + x and no exit cost is paid, so u_1(0+) = 0.2 while
    # v(O) = 0 (from O, edge 2 is free).
    "exit-hold": (jh.builtin_problem("exit-hold"), lambda s: s - 0.8 + np.exp(-s), 0.0, 1.7),
}


def _sup_error(problem, u_1, v_o, h):
    grid = jh.GridParams(h=h, l_max=4.0, dt=h)
    field, report = jh.solve(problem, grid)
    assert report.converged
    s = grid.nodes
    near = s <= 3.0 + 1e-12
    exact = [u_1(s[near]), np.zeros(near.sum())]  # u_2 = 0
    errors = [float(np.abs(u[near] - e).max()) for u, e in zip(field.values, exact)]
    return max(*errors, abs(field.vertex_reconstruction - v_o))


@pytest.mark.parametrize("name", CASES)
def test_solver_converges_at_first_order_to_the_closed_form(name):
    problem, u_1, v_o, constant = CASES[name]
    errors = [_sup_error(problem, u_1, v_o, h) for h in (0.01, 0.005)]
    for h, error in zip((0.01, 0.005), errors):
        assert error <= constant * h
    order = math.log2(errors[0] / errors[1])
    assert 0.9 <= order <= 1.1
    print(f"\n{name}: sup error {errors[0]:.3g} -> {errors[1]:.3g}, order {order:.3f}")
