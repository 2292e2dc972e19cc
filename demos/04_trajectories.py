"""Trajectory tools: explicit schedules, greedy rollouts, reachability.

A schedule is a piecewise-constant control, a plain tuple of
SchedulePieces.  evaluate_cost integrates the discounted running cost of a
hand-written one, detecting the switch events and charging their
discounted costs.  simulate rolls out the greedy one-step policy of a
solved field and returns both the realized cost and the schedule it
followed; both take the same Euler step, so the two tools can be played
against each other.  connect builds a schedule between any two points near
the vertex and reports its travel time.
"""

import math

import junction_hjb as jh
from junction_hjb.oracle import SchedulePiece

problem = jh.builtin_problem("entry-basic")
grid = jh.GridParams(h=0.01, l_max=4.0, dt=0.01)
field, _ = jh.solve(problem, grid, tol=1e-9)

print("1. A hand-written schedule from s = ln 2 on edge 1:")
ln2 = math.log(2)
schedule = (SchedulePiece(ln2, 1, -1.0), SchedulePiece(20.0 - ln2, 2, 1.0))
traj = jh.evaluate_cost(problem, jh.NetworkPoint(1, ln2), schedule, substeps=4000)
print(f"   drive to the vertex, then ride edge 2: cost {traj.cost:.4f}")
print(f"   closed form (1 - e^-ln2) + 0.5 e^-ln2 = {0.5 + 0.25:.4f}")
for ev in traj.switches:
    print(f"   {ev.kind} into edge {ev.edge} at t={ev.time:.3f}, "
          f"charged {ev.charged_cost:.4f}")
print(f"   horizon-truncation bound: {traj.tail_bound:.2e}")
print()

print("2. Greedy rollout of the solved field from (1, 1.0):")
rollout = jh.simulate(problem, jh.NetworkPoint(1, 1.0), field, horizon=20.0)
closed = 1 - 0.5 * math.exp(-1)
print(f"   realized cost {rollout.cost:.4f} vs value {closed:.4f}")
print(f"   switches: {[(ev.kind, ev.edge, round(ev.time, 2)) for ev in rollout.switches]}")
replay = jh.evaluate_cost(problem, jh.NetworkPoint(1, 1.0), rollout.schedule, substeps=4000)
print(f"   replaying its schedule through evaluate_cost: {replay.cost:.4f}")
print()

print("3. Any schedule is at least as expensive as the value function:")
for label, sched in [
    ("stand still", (SchedulePiece(20.0, 1, 0.0),)),
    ("run away   ", (SchedulePiece(20.0, 1, 1.0),)),
]:
    t = jh.evaluate_cost(problem, jh.NetworkPoint(1, 1.0), sched, substeps=4000)
    print(f"   {label}: cost {t.cost:.4f} >= {closed:.4f}")
print()

print("4. Reachability near the vertex:")
for x1, x2 in [
    (jh.NetworkPoint(1, 0.1), jh.NetworkPoint(1, 0.3)),
    (jh.NetworkPoint(1, 0.1), jh.NetworkPoint(2, 0.1)),
]:
    sched, tau = jh.connect(problem, x1, x2)
    d = jh.geodesic_distance(x1, x2)
    legs = [(p.edge, p.control, round(p.duration, 3)) for p in sched]
    print(f"   ({x1.edge},{x1.s}) -> ({x2.edge},{x2.s}): "
          f"tau={tau:.3f} <= 2*d + 2*snap = {2 * d + 0.01:.3f}, legs {legs}")
