"""Seeded benchmark inputs.

make_random_problem is a copy of the generator in tests/conftest.py, kept
here so that an edit to the tests cannot move a benchmark workload.  With
numpy's default_rng(20260810) it yields the acceptance suite's problems.
"""

from __future__ import annotations

import hashlib

import numpy as np

from junction_hjb import model, presets
from junction_hjb.exprlang import format_number

ACCEPTANCE_SEED = 20260810


def fnum(v) -> str:
    return format_number(float(v))


def make_random_problem(rng: np.random.Generator, n_edges: int = 3) -> model.Problem:
    """Random validated junction problem: 3-5 controls per edge with both
    signs and magnitudes >= 0.7, degree <= 2 polynomial dynamics and costs,
    positive entry costs in [0.1, 2]."""
    lines = [
        "lambda = 1",
        "regime = entry",
        "costs = "
        + ", ".join(fnum(round(float(c), 3)) for c in rng.uniform(0.1, 2.0, n_edges)),
    ]
    for _ in range(n_edges):
        k = int(rng.integers(3, 6))
        controls = {-1.0, 1.0}
        while len(controls) < k:
            controls.add(
                float(np.sign(rng.uniform(-1, 1)) * round(rng.uniform(0.7, 0.95), 3))
            )
        g0 = round(float(rng.uniform(0.8, 1.2)), 4)
        g1 = round(float(rng.uniform(-0.04, 0.04)), 4)
        g2 = round(float(rng.uniform(0.0, 0.01)), 4)
        e0 = round(float(rng.uniform(0.2, 1.5)), 4)
        e1 = round(float(rng.uniform(-0.5, 0.5)), 4)
        e2 = round(float(rng.uniform(0.0, 0.5)), 4)
        e3 = round(float(rng.uniform(-0.2, 0.2)), 4)
        e4 = round(float(rng.uniform(0.0, 0.05)), 4)
        lines.append("[edge]")
        lines.append("controls = " + ", ".join(fnum(c) for c in sorted(controls)))
        lines.append(f"f = a * ({fnum(g0)} + {fnum(g1)} * x + {fnum(g2)} * x^2)")
        lines.append(
            f"ell = {fnum(e0)} + {fnum(e1)} * a + {fnum(e2)} * a^2"
            f" + {fnum(e3)} * x + {fnum(e4)} * x^2"
        )
    return model.parse_problem("\n".join(lines) + "\n")


def random_problems(seed: int, count: int) -> list[model.Problem]:
    """The first `count` problems of the seed's stream."""
    rng = np.random.default_rng(seed)
    return [make_random_problem(rng) for _ in range(count)]


def baseline_problems() -> list[tuple[str, model.Problem]]:
    """entry-basic (closed form) and the acceptance seed's first random
    problem: the two problems the solver baselines are quoted on."""
    return [
        ("entry-basic", model.parse_problem(presets.builtin_spec("entry-basic"))),
        ("random-0", random_problems(ACCEPTANCE_SEED, 1)[0]),
    ]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def problem_hash(problem: model.Problem) -> str:
    """Short digest of the canonical problem text, to prove identical inputs."""
    return digest(model.format_problem(problem))
