"""Discounted optimal control on junction networks with entry or exit costs.

The package solves the Hamilton-Jacobi system of a single junction (N
half-line edges glued at one vertex) where switching edges at the vertex
incurs a fixed, discounted cost.  The per-edge value limits are the fixed
point of a semi-Lagrangian scheme, computed by policy iteration; the value
at the vertex itself is reconstructed from them.  An independent brute-force MDP, trajectory
cost integration, reachability construction, and greedy simulation provide
cross-checks.
"""

from .exprlang import EvalError, ExprError, ExprSyntaxError, evaluate, format_expr, parse
from .hamiltonian import NoStationaryControlError, VertexAction, VertexBranch, VertexData, vertex_data
from .model import (
    AssumptionReport,
    CostRegime,
    EdgeSpec,
    Junction,
    NetworkPoint,
    Problem,
    SpecError,
    format_problem,
    geodesic_distance,
    load_problem,
    parse_problem,
    validate,
)
from .oracle import (
    OracleSolution,
    SchedulePiece,
    SwitchEvent,
    Trajectory,
    connect,
    evaluate_cost,
    oracle_solve,
    simulate,
)
from .presets import builtin_names, builtin_problem, builtin_spec
from .solver import (
    DiscreteSystem,
    GridParams,
    Policy,
    SolveReport,
    ValueField,
    build_system,
    constant_field,
    field_from_csv,
    field_from_json,
    field_to_csv,
    field_to_json,
    policy,
    problem_digest,
    residual,
    solve,
    sweep,
)

__version__ = "0.1.0"
