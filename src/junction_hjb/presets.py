"""Built-in problem files for the two-edge benchmark junction.

The base problem moves at velocity a with controls {-1, 0, 1} on both
edges, charges running cost 1 on edge 1 and 1 - a on edge 2, and discounts
at rate 1.  Its value function is known in closed form, which makes the
variants below the standard cross-checks: a cheap entry cost (the value is
discontinuous at the vertex), an entry cost too expensive to ever pay, all
costs zero (the continuous junction problem), one zero cost (mixed
regime), and the exit-cost mirror.  The exit hold charges exit costs
(1, 0) and running cost 0.2 + x on edge 1: its u_1 = s - 0.8 + e^(-s)
tends to 0.2 at O while v(O) = 0, because hovering just off O on edge 1
pays no exit cost.
"""

from __future__ import annotations

from .model import Problem, parse_problem

__all__ = ["builtin_names", "builtin_spec", "builtin_problem"]

_ENTRY_BASIC = """\
lambda = 1.0
regime = entry            # or: exit
costs = 10.0, 0.5         # N entries, order = edge order
[edge]
controls = -1, 0, 1
f = a
ell = 1
[edge]
controls = -1, 0, 1
f = a
ell = 1 - a
"""


def _variant(regime: str, costs: str, ell_1: str = "1") -> str:
    return (
        f"lambda = 1.0\n"
        f"regime = {regime}\n"
        f"costs = {costs}\n"
        "[edge]\n"
        "controls = -1, 0, 1\n"
        "f = a\n"
        f"ell = {ell_1}\n"
        "[edge]\n"
        "controls = -1, 0, 1\n"
        "f = a\n"
        "ell = 1 - a\n"
    )


_SPECS = {
    "entry-basic": _ENTRY_BASIC,
    "entry-expensive": _variant("entry", "10.0, 2.0"),
    "entry-free": _variant("entry", "0.0, 0.0"),
    "entry-mixed": _variant("entry", "10.0, 0.0"),
    "exit-basic": _variant("exit", "0.0, 0.5"),
    "exit-hold": _variant("exit", "1.0, 0.0", ell_1="0.2 + x"),
}


def builtin_names() -> list[str]:
    return sorted(_SPECS)


def builtin_spec(name: str) -> str:
    try:
        return _SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown example {name!r}; known: {', '.join(builtin_names())}"
        ) from None


def builtin_problem(name: str) -> Problem:
    return parse_problem(builtin_spec(name))
