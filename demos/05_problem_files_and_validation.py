"""The problem file format, the expression language, and hypothesis checks.

Problems are flat text files; the dynamics and running costs are formulas
in the position x and control a.  Before a problem is solved, its data are
validated against the hypotheses the method needs: finite bounded f and
ell, and sampled velocities at the vertex that straddle zero on every
edge (otherwise a state near the vertex could not reach or leave it in
every direction, and the coupled system degenerates).
"""

import junction_hjb as jh
from junction_hjb import exprlang

print("1. The expression language:")
for source in ("1 - a", "-x^2 + min(a, 0.5)", "exp(-x) * a"):
    tree = exprlang.parse(source)
    canon = exprlang.format_expr(tree)
    value = exprlang.evaluate(tree, 0.5, 1.0)
    print(f"   {source!r:28s} -> {canon:32s} at (x=0.5, a=1): {value:+.4f}")
try:
    exprlang.parse("speed * 2")
except exprlang.ExprSyntaxError as exc:
    print(f"   rejected: {exc}")
print()

print("2. A well-posed problem:")
text = """lambda = 0.5
regime = entry
costs = 0.2, 0.9, 0.4
[edge]
controls = -1, -0.5, 0.5, 1
f = a * (1 - 0.05 * x)
ell = 1 + 0.5 * a^2
[edge]
controls = -1, 0, 1
f = a
ell = abs(a - 0.3) + 0.1 * x
[edge]
controls = -1, 1
f = a * (1 + 0.1 * sin(x))
ell = cos(a) + 0.2 * x
"""
problem = jh.parse_problem(text)
report = jh.validate(problem)
print(f"   edges: {problem.n_edges}, discount rate: {problem.lam}")
print(f"   bound: {report.sup_bound:.3f}, f-Lipschitz: {report.f_lipschitz:.3f}, "
      f"margin: {report.margin:.3f}")
print(f"   violations: {list(report.violations) or 'none'}")
print()

print("3. Problems the validator rejects:")
bad = text.replace("controls = -1, 0, 1", "controls = 0.2, 1")
report = jh.validate(jh.parse_problem(bad))
print(f"   one-sided controls -> {report.violations}")
bad = text.replace("ell = 1 + 0.5 * a^2", "ell = 1 / x")
report = jh.validate(jh.parse_problem(bad))
print(f"   singular cost      -> {report.violations}")
print()

print("4. Canonical round-trip (load, format, load again):")
canon = jh.format_problem(problem)
assert jh.format_problem(jh.parse_problem(canon)) == canon
print(canon)
