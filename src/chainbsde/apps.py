"""Application solvers: control to a hitting time, shortest paths, reliability.

Each application is a thin pipeline over the core machinery: build the
right driver, pose the hitting problem, solve the stationary system, and
extract whatever decision data the application promises (a feedback policy
for control and reliability, two time parametrizations for shortest
paths).  Circuit potentials live in their own module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from ._linalg import solve_or_none
from .chain import RateMatrix, _split_target, states_reaching, validate_rate_matrix
from .drivers import (
    ControlSet,
    MarkovianDriver,
    hamiltonian_inf,
    reliability_driver,
    shortest_path_driver,
)
from .errors import (
    DimensionMismatchError,
    InputError,
    PolicyValueMismatchError,
    SingularSystemError,
    UnreachableTargetError,
)
from .solver import HittingProblem, SolutionField, solve_homogeneous

__all__ = [
    "ControlSolution",
    "GraphSpec",
    "walk_matrix",
    "policy_matrix",
    "stationary_policy_value",
    "solve_control",
    "shortest_path_times",
    "reliability",
]


@dataclass(frozen=True)
class ControlSolution:
    """Optimal value field together with the extracted feedback policy.

    ``policy`` maps each state to the label of a control attaining the
    Hamiltonian extremum there (stationary feedback; entries on target
    states are conventional since no decision is taken after absorption).
    ``matrix`` is the chain's generator under the policy, ready for
    simulation or an independent policy-value solve.
    """

    value: SolutionField
    policy: dict[int, str]
    policy_indices: tuple[int, ...]
    matrix: NDArray[np.float64]


@dataclass(frozen=True)
class GraphSpec:
    """Weighted digraph for the travel-time application.

    ``distances[i, j] > 0`` is the length of the directed edge i -> j; zero
    means no edge.  ``speedups`` lists alternative walk generators the
    traveller may switch to (the no-speed-up walk is always admissible).
    """

    distances: NDArray[np.float64]
    target: int
    speedups: tuple = ()
    node_names: tuple[str, ...] | None = None
    walk: RateMatrix = field(init=False, repr=False, default=None)

    def __post_init__(self):
        d = np.array(self.distances, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise DimensionMismatchError(f"distance matrix has shape {d.shape}")
        if not np.isfinite(d).all():
            raise InputError("distances contain non-finite entries")
        if (d < 0).any():
            raise InputError("distances must be nonnegative (zero = no edge)")
        d.setflags(write=False)
        object.__setattr__(self, "distances", d)
        n = d.shape[0]
        if not 0 <= int(self.target) < n:
            raise InputError(f"target node {self.target} out of range [0, {n})")
        object.__setattr__(self, "target", int(self.target))
        w = walk_matrix(d, names=self.node_names)
        reach = states_reaching(w, {self.target})
        if not reach.all():
            raise UnreachableTargetError([int(i) for i in np.flatnonzero(~reach)])
        object.__setattr__(self, "walk", w)
        mats = tuple(
            m if isinstance(m, RateMatrix) else validate_rate_matrix(np.array(m, dtype=float))
            for m in self.speedups
        )
        for m in mats:
            if m.n != n:
                raise DimensionMismatchError(
                    f"speed-up matrix has {m.n} states, graph has {n}"
                )
        object.__setattr__(self, "speedups", mats)

    @property
    def n(self) -> int:
        return self.distances.shape[0]


def walk_matrix(distances, names=None) -> RateMatrix:
    """Random-walk generator induced by edge lengths.

    From node i the walker jumps to neighbor j at rate
    ``(1/d[i,j]) / sum_k (1/d[i,k])``: nearer neighbors are proportionally
    likelier, and the total exit rate from every node with an outgoing
    edge normalizes to 1.  Nodes without outgoing edges are absorbing.
    """
    d = np.array(distances, dtype=float)
    n = d.shape[0]
    q = np.zeros((n, n))
    for i in range(n):
        out = [(j, 1.0 / d[i, j]) for j in range(n) if j != i and d[i, j] > 0.0]
        if not out:
            continue
        total = sum(wgt for _, wgt in out)
        for j, wgt in out:
            q[j, i] = wgt / total
        q[i, i] = -1.0
    return validate_rate_matrix(q, state_names=names)


def policy_matrix(cs: ControlSet, policy) -> NDArray[np.float64]:
    """Generator of the chain under a stationary policy: column x comes
    from the policy's control matrix at x."""
    pol = [int(u) for u in policy]
    n = cs.reference.n
    if len(pol) != n:
        raise DimensionMismatchError(f"policy length {len(pol)}, expected {n}")
    for u in pol:
        if not 0 <= u < cs.size:
            raise InputError(f"control index {u} out of range [0, {cs.size})")
    return _policy_generator(cs.matrices, pol)


def _policy_generator(mats, pol) -> NDArray[np.float64]:
    """Generator under a stationary policy: column x comes from ``mats[pol[x]]``."""
    return np.stack([mats[k].q[:, x] for x, k in enumerate(pol)], axis=1)


def stationary_policy_value(
    cs: ControlSet, chain: RateMatrix, target, terminal, policy, tol: float = 1e-10
) -> NDArray[np.float64]:
    """Value of a fixed stationary policy, solved independently of any
    Bellman iteration.

    With a cost table the system is linear in the value and solved
    directly; with a callable (y-dependent) cost the fixed-policy driver
    goes through the stationary nonlinear solver.
    """
    _check_reference(cs, chain)
    free, tgt = _split_target(chain, target)
    q_pol = policy_matrix(cs, policy)
    pol = [int(u) for u in policy]

    if callable(cs.cost):
        diff = q_pol - chain.q

        def fn(x, t, y, z):
            return float(cs.cost_value(t, y, x, pol[x]) + z @ diff[:, x])

        drv = MarkovianDriver(
            fn, c=cs.c, beta_hat=cs.beta_hat,
            time_dependent=bool(cs.cost_time_dependent),
        )
        p = HittingProblem(chain, frozenset(tgt.tolist()), terminal, drv)
        return solve_homogeneous(p, tol=tol).u

    n = chain.n
    phi = np.array(terminal, dtype=float)
    if phi.shape != (n,):
        raise DimensionMismatchError(f"terminal has shape {phi.shape}, expected ({n},)")
    u = phi.copy()
    u[free] = 0.0
    if free.size == 0:
        return u
    cost_f = np.array([cs.cost[x, pol[x]] for x in free])
    qT = q_pol.T
    uf = solve_or_none(
        qT[np.ix_(free, free)], -cost_f - qT[np.ix_(free, tgt)] @ phi[tgt]
    )
    if uf is None:
        raise SingularSystemError(
            "policy chain does not absorb", [int(i) for i in free]
        )
    u[free] = uf
    return u


def _check_reference(cs: ControlSet, chain: RateMatrix):
    if cs.reference.n != chain.n or not np.allclose(
        cs.reference.q, chain.q, rtol=0.0, atol=1e-12
    ):
        raise InputError("control set was certified against a different reference chain")


def solve_control(
    cs: ControlSet,
    chain: RateMatrix,
    target,
    terminal,
    tol: float = 1e-10,
    verify_tol: float = 1e-8,
) -> ControlSolution:
    """Optimal expected cost to absorption and the optimal feedback policy.

    Solves the stationary system for the lower-Hamiltonian driver
    ``min_u { cost(x, u) + z @ (A^u - A) e_x }``, reads the policy off the
    driver's active controls at the solution field, then re-derives
    the extracted policy's value by an independent fixed-policy solve and
    requires agreement within ``verify_tol``.

    Raises
    ------
    PolicyValueMismatchError
        If the independently evaluated policy value strays from the
        Bellman value (numerical failure or a non-attained minimum).
    """
    _check_reference(cs, chain)
    driver = hamiltonian_inf(cs)
    p = HittingProblem(chain, frozenset(target), terminal, driver)
    sol = solve_homogeneous(p, tol=tol)

    u = sol.u
    pol = tuple(driver.policy(u).tolist())
    check = stationary_policy_value(cs, chain, target, terminal, pol, tol=tol)
    gap = float(np.abs(check - u).max())
    if gap > verify_tol:
        raise PolicyValueMismatchError(gap, verify_tol)
    return ControlSolution(
        value=sol,
        policy={x: cs.labels[pol[x]] for x in range(chain.n)},
        policy_indices=pol,
        matrix=policy_matrix(cs, pol),
    )


def shortest_path_times(g: GraphSpec) -> tuple[SolutionField, SolutionField]:
    """Expected (optimal) travel times to the target node of a graph walk.

    Returns ``(full, remaining)``: ``remaining`` is the stationary field
    u' of expected remaining time; ``full``, the expected arrival time
    seen from time t, is exactly ``u' + t`` (mode "affine_time") because
    elapsed time is deterministic given the present.
    """
    mats = [g.walk] + list(g.speedups)
    driver = shortest_path_driver(g.walk, mats)
    p = HittingProblem(
        g.walk, frozenset({g.target}), np.zeros(g.n), driver
    )
    remaining = solve_homogeneous(p)
    full = SolutionField(
        "affine_time",
        remaining.u,
        residual=remaining.residual,
        iterations=remaining.iterations,
    )
    return full, remaining


def reliability(
    chain: RateMatrix,
    loss_rates,
    dead,
    target_node: int,
    controls: ControlSet | None = None,
) -> SolutionField | ControlSolution:
    """Probability that a message survives to the delivery node.

    The message moves along the chain, dies at rate ``loss_rates[x]`` in
    state x, is lost for good on the (possibly empty) ``dead`` set, and
    succeeds on reaching ``target_node``.  The value is the discounted
    indicator u(x) in [0, 1].  With ``controls``, routing maximizes the
    survival probability over the control family augmented with the
    reference chain (doing nothing is always admissible), and the
    maximizing feedback policy is returned alongside the field.
    """
    n = chain.n
    dead = frozenset(int(i) for i in dead)
    target_node = int(target_node)
    if target_node in dead:
        raise InputError(f"target node {target_node} is also marked dead")
    target = dead | {target_node}
    phi = np.zeros(n)
    phi[target_node] = 1.0

    mats: list[RateMatrix] = []
    labels: list[str] = []
    if controls is not None:
        _check_reference(controls, chain)
        mats = [chain] + list(controls.matrices)
        labels = ["reference"] + list(controls.labels)

    driver = reliability_driver(chain, loss_rates, control_matrices=mats or None)
    p = HittingProblem(chain, target, phi, driver)
    sol = solve_homogeneous(p)
    if controls is None:
        return sol

    pol = tuple(driver.policy(sol.u).tolist())
    return ControlSolution(
        value=sol,
        policy={x: labels[pol[x]] for x in range(n)},
        policy_indices=pol,
        matrix=_policy_generator(mats, pol),
    )
