"""Entry costs, exit costs, and zero-cost edges on the same junction.

The switching regime changes the coupling at the vertex:

* entry costs charge c_j whenever the state moves off the vertex into
  edge j, so each edge keeps its own one-sided limit there and the value
  at the vertex is min(min_j(u_j(O) + c_j), parking value);
* exit costs charge d_i for leaving edge i, mirroring the structure;
* a zero entry cost removes the barrier into that edge, and all zero-cost
  edges share one continuous vertex value (the mixed regime);
* with every cost zero the classical continuous junction problem
  reappears and all edge limits coincide.
"""

import junction_hjb as jh

grid = jh.GridParams(h=0.01, l_max=4.0, dt=0.01)

for name in ("entry-basic", "entry-expensive", "entry-mixed", "entry-free", "exit-basic"):
    problem = jh.builtin_problem(name)
    field, _ = jh.solve(problem, grid, tol=1e-9)
    limits = ", ".join(f"u_{e + 1}(O)={u[0]:+.6f}" for e, u in enumerate(field.values))
    print(f"{name:16s} [{problem.regime.kind}, costs={problem.regime.costs}]")
    print(f"    {limits}")
    print(f"    v(O) = {field.vertex_reconstruction:+.6f}")
    jump = max(abs(u[0] - field.vertex_reconstruction) for u in field.values)
    print(f"    largest vertex discontinuity: {jump:.6f}")
    print()

print("Reading the output:")
print(" * entry-basic: v(O)=0.5 sits 0.5 above the edge-2 limit (paying c2")
print("   and riding edge 2 beats both stalling and edge 1's running cost);")
print(" * entry-expensive: c2 >= 1/lambda, so parking at the vertex binds")
print("   and the discontinuity disappears against edge 1 only;")
print(" * entry-mixed / entry-free: the zero-cost edges' limits u_j(O) agree")
print("   and dominate the others; with all costs zero every limit agrees with v(O);")
print(" * exit-basic: leaving edge 1 is free, so its limit equals v(O).")
