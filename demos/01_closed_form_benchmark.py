"""Solve the benchmark junction and compare against its closed-form value.

Two half-lines meet at a vertex.  Motion follows ds/dt = a with controls
{-1, 0, 1}; staying on edge 1 costs 1 per unit time, edge 2 costs 1 - a
(so running outward at full speed is free).  Entering edge 2 at the vertex
costs c2 = 0.5, entering edge 1 costs 10.  With discount rate 1 the value
on edge 1 is

    v(s) = 1 - 0.5 * exp(-s),

reached by driving to the vertex at unit speed and paying the entry cost,
while edge 2 is worth exactly 0.  The value at the vertex itself is 0.5,
strictly below the edge-1 limit: the entry cost makes the value function
discontinuous there.
"""

import numpy as np

import junction_hjb as jh

problem = jh.builtin_problem("entry-basic")
print("problem file:")
print(jh.format_problem(problem))

report = jh.validate(problem)
print(f"validated: bound={report.sup_bound:g}, controllability margin={report.margin:g}")
vertex = jh.vertex_data(problem)
print(f"tangential Hamiltonian at the vertex: {vertex.tangential:g}")
for label, actions in enumerate(vertex.edges, start=1):
    pairs = ", ".join(f"(v={a.velocity:g}, ell={a.cost:g})" for a in actions)
    print(f"  vertex actions of edge {label}: {pairs}")
print()

grid = jh.GridParams(h=0.01, l_max=4.0, dt=0.01)
field, solve_report = jh.solve(problem, grid, tol=1e-9)
print(
    f"solved in {solve_report.iterations} policy evaluations "
    f"(per grid, coarsest first: {solve_report.level_iterations}), "
    f"final change {solve_report.final_change:.2e}"
)
print(f"edge limits at the vertex: u_1(O)={field.values[0][0]:.6f}, "
      f"u_2(O)={field.values[1][0]:.6f}")
print(f"value AT the vertex:       v(O)  ={field.vertex_reconstruction:.6f}")
print()

s = grid.nodes
exact = 1 - 0.5 * np.exp(-s)
print("  s      computed   closed form   error")
for x in (0.0, 0.25, 0.5, 1.0, 2.0, 3.0):
    k = round(x / grid.h)
    u = field.values[0][k]
    print(f"  {x:4.2f}   {u:.6f}   {exact[k]:.6f}    {abs(u - exact[k]):.2e}")
mask = s <= 3.0
print(f"\nsup error on [0, 3]: edge 1 {np.abs(field.values[0] - exact)[mask].max():.2e}, "
      f"edge 2 {np.abs(field.values[1])[mask].max():.2e}")

print("\nthe field as a CSV file (first lines):")
print("\n".join(jh.field_to_csv(field).splitlines()[:6]))
