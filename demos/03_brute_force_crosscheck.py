"""Cross-validate the semi-Lagrangian solver against a brute-force MDP.

The oracle discretizes the same control problem differently on purpose:
Euler steps snapped to the nearest grid node (no interpolation), switching
costs charged on the transitions that realize them.  It also solves its MDP
by its own means: policy iteration whose policy values are discounted sums
along paths (pointer doubling), not the solver's banded linear solves.
Agreement between the two is evidence that both discretize the same
value function rather than a shared-code tautology.

The oracle treats the vertex as a single state, so the comparable
quantities are the interior node values and the value at the vertex; the
per-edge one-sided limits are a solver-only object.
"""

import numpy as np

import junction_hjb as jh

grid = jh.GridParams(h=0.01, l_max=4.0, dt=0.01)

print("benchmark junction, h = dt = 0.01")
problem = jh.builtin_problem("entry-basic")
field, _ = jh.solve(problem, grid, tol=1e-9)
oracle = jh.oracle_solve(problem, grid, tol=1e-9)
s = grid.nodes
mask = (s > 0) & (s <= 3.0)
sup = max(
    float(np.abs(field.values[e][mask] - oracle.values[e][mask]).max())
    for e in range(problem.n_edges)
)
print(f"  interior sup |solver - oracle| on (0, 3]: {sup:.2e}")
print(f"  vertex: solver {field.vertex_reconstruction:.6f} "
      f"vs oracle {oracle.vertex_value:.6f}")
print()

print("a rougher junction: three edges, position-dependent speeds")
text = """lambda = 1
regime = entry
costs = 0.4, 1.2, 0.8
[edge]
controls = -1, -0.8, 0.9, 1
f = a * (1 + 0.02 * x)
ell = 0.9 + 0.3 * a + 0.1 * x
[edge]
controls = -1, 0.75, 1
f = a * (0.9 - 0.01 * x)
ell = 0.5 - 0.4 * a + 0.2 * a^2
[edge]
controls = -1, -0.9, 0.8, 1
f = a * (1.1 + 0.01 * x^2)
ell = 1.2 - 0.1 * x + 0.02 * x^2
"""
problem = jh.parse_problem(text)
assert jh.validate(problem).ok
field, _ = jh.solve(problem, grid, tol=1e-9)
# A larger oracle time step keeps the snapped velocities representable:
# each step covers several mesh cells, so rounding distorts speeds by at
# most h / (2 dt) instead of rounding them to whole cells per step.
oracle = jh.oracle_solve(problem, jh.GridParams(h=0.01, l_max=4.0, dt=0.03), tol=1e-9)
sup = max(
    float(np.abs(field.values[e][mask] - oracle.values[e][mask]).max())
    for e in range(problem.n_edges)
)
print(f"  interior sup |solver - oracle| on (0, 3]: {sup:.4f}")
print(f"  vertex: solver {field.vertex_reconstruction:.6f} "
      f"vs oracle {oracle.vertex_value:.6f}")
print()

system = jh.build_system(problem, grid)
_, max_res = jh.residual(field, system)
print(f"solver fixed-point residual: {max_res:.2e}")
