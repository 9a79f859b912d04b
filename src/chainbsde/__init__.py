"""Backward stochastic differential equations on finite-state Markov chains.

Solvers for equations of the form

    Y_t = phi(tau, X_tau) + int_t^tau f(X_s, s, Y_s, Z_s) ds - int_t^tau Z dM

where X is a continuous-time chain with a column-convention rate matrix
(``q[j, i]`` is the jump rate i -> j) and tau is the first hitting time of
a target set.  Markovian solutions collapse to algebraic or ODE systems on
the state space; this package solves those systems, computes the
hitting-time moment machinery behind the growth bounds, and ships four
turnkey applications (optimal control to absorption, stochastic shortest
paths, network message reliability, diode-circuit potentials) plus an
exact event-driven Monte Carlo validation harness and a CLI.
"""

from .chain import (
    ChainPath,
    RateMatrix,
    gamma_controlled,
    max_gamma,
    seminorm_sq,
    simulate_controlled_path,
    simulate_path,
    states_reaching,
    validate_rate_matrix,
)
from .drivers import (
    BalanceCertificate,
    ControlSet,
    MarkovianDriver,
    affine_driver,
    check_balanced,
    constant_driver,
    hamiltonian_inf,
    hamiltonian_sup,
    incremental_ratio,
    lipschitz_bound,
    measure_envelope_driver,
    reliability_driver,
    shift_invariance_defect,
    shortest_path_driver,
    truncate_driver,
    zero_driver,
)
from .ergodicity import (
    ConditionK,
    MomentReport,
    condition_K,
    exp_moment,
    expected_hitting_times,
    sample_box_member,
    worst_case_exp_moment,
)
from .errors import (
    AbsorbedOutsideTargetError,
    BoundViolatedError,
    ChainBsdeError,
    ColumnSumError,
    DimensionMismatchError,
    DisconnectedNodeError,
    DriverTimeDependentError,
    EmptyControlSetError,
    GammaNotCertifiableError,
    InputError,
    NegativeOffDiagonalError,
    NoConvergenceError,
    NoFiniteExponentError,
    NonFiniteEntryError,
    NonFiniteStateError,
    NotCertifiedError,
    NumericalError,
    PolicyValueMismatchError,
    SingularSystemError,
    StepTooLargeError,
    UnreachableTargetError,
)
from .solver import (
    ComparisonReport,
    GrowthReport,
    HittingProblem,
    SolutionField,
    TruncationDiagnostics,
    check_comparison,
    growth_bound_check,
    solve_backward_grid,
    solve_homogeneous,
    truncation_sequence,
)
from .apps import (
    ControlSolution,
    GraphSpec,
    policy_matrix,
    reliability,
    shortest_path_times,
    solve_control,
    stationary_policy_value,
    walk_matrix,
)
from .circuits import (
    CircuitSpec,
    Diode,
    Resistor,
    edge_currents,
    implied_matrix,
    kirchhoff_residuals,
    newton_nodal,
    parse_netlist,
    reference_matrix,
    solve_circuit,
)
from .montecarlo import McProblem, McReport, as_mc_problem, mc_validate
from .io import (
    fmt_value,
    load_chain,
    load_control,
    load_driver,
    load_graph,
    load_problem,
    load_reliability,
    read_csv,
    sha256_of,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # chain
    "RateMatrix", "ChainPath", "validate_rate_matrix", "gamma_controlled",
    "max_gamma", "seminorm_sq", "states_reaching", "simulate_path",
    "simulate_controlled_path",
    # drivers
    "MarkovianDriver", "ControlSet", "BalanceCertificate", "affine_driver",
    "zero_driver", "constant_driver", "hamiltonian_inf", "hamiltonian_sup",
    "reliability_driver",
    "shortest_path_driver", "measure_envelope_driver", "truncate_driver",
    "check_balanced", "lipschitz_bound", "incremental_ratio",
    "shift_invariance_defect",
    # solver
    "HittingProblem", "SolutionField", "TruncationDiagnostics",
    "ComparisonReport", "GrowthReport", "solve_homogeneous",
    "solve_backward_grid", "truncation_sequence", "check_comparison",
    "growth_bound_check",
    # ergodicity
    "MomentReport", "ConditionK", "expected_hitting_times", "exp_moment",
    "worst_case_exp_moment", "condition_K", "sample_box_member",
    # apps
    "ControlSolution", "GraphSpec", "walk_matrix", "policy_matrix",
    "stationary_policy_value", "solve_control", "shortest_path_times",
    "reliability",
    # circuits
    "Resistor", "Diode", "CircuitSpec", "parse_netlist", "reference_matrix",
    "implied_matrix", "solve_circuit", "newton_nodal", "edge_currents",
    "kirchhoff_residuals",
    # monte carlo
    "McProblem", "McReport", "as_mc_problem", "mc_validate",
    # io
    "load_chain", "load_driver", "load_problem", "load_graph",
    "load_reliability", "load_control", "write_csv", "read_csv",
    "fmt_value", "sha256_of",
    # errors
    "ChainBsdeError", "InputError", "NumericalError",
    "DimensionMismatchError", "NonFiniteEntryError",
    "NegativeOffDiagonalError", "ColumnSumError", "EmptyControlSetError",
    "GammaNotCertifiableError", "NotCertifiedError",
    "DriverTimeDependentError", "UnreachableTargetError",
    "AbsorbedOutsideTargetError", "StepTooLargeError",
    "NonFiniteStateError", "NoConvergenceError", "SingularSystemError",
    "NoFiniteExponentError", "PolicyValueMismatchError",
    "BoundViolatedError", "DisconnectedNodeError",
]
