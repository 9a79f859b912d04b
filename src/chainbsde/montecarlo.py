"""Monte Carlo validation of solver outputs.

Simulation is exact event-driven embedding (exponential holding times plus
a jump-chain draw), never time-discretized, so the only error in an
estimate is statistical.  Along each piecewise-constant path the functional

    acc = integral_0^tau exp(-int_0^s r) g(X_s) ds + exp(-int_0^tau r) phi(X_tau)

is accumulated in closed form interval by interval: on a holding interval
of length dt in state x the integral contributes
``exp(-D) g[x] (1 - exp(-r[x] dt)) / r[x]`` (the limit ``exp(-D) g[x] dt``
when ``r[x] = 0``), where D is the discount accumulated so far.  This is
the expectation representation of the time-zero solution value for drivers
of the decomposable form ``g(x) - r(x) y + z @ (B - A) e_x``: the tilt
``B`` moves into the simulated dynamics, the rest is pathwise integration.

Paths are batched per starting state and advanced in lockstep over numpy
arrays; each starting state draws from its own seeded stream so estimates
are reproducible and independent of which states are requested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .chain import RateMatrix, _split_target, states_reaching, validate_rate_matrix
from .errors import (
    DimensionMismatchError,
    InputError,
    NumericalError,
    UnreachableTargetError,
)
from .solver import HittingProblem

__all__ = ["McProblem", "McReport", "as_mc_problem", "mc_validate"]


@dataclass(frozen=True)
class McProblem:
    """A simulable value representation.

    ``chain`` carries the effective dynamics (any driver tilt or extracted
    policy already folded in), ``phi`` the terminal payoff read at the
    absorbing state, ``running`` the integrand g, and ``discount`` the
    state-dependent rate r.  ``discount`` may be negative (exponential
    moments of the hitting time are the r = -beta case).
    """

    chain: RateMatrix
    target: frozenset[int]
    phi: NDArray[np.float64]
    running: NDArray[np.float64] = None
    discount: NDArray[np.float64] = None

    def __post_init__(self):
        n = self.chain.n
        _free, tgt = _split_target(self.chain, self.target)
        object.__setattr__(self, "target", frozenset(tgt.tolist()))
        object.__setattr__(self, "phi", _vec(self.phi, n, "phi"))
        object.__setattr__(
            self, "running", _vec(self.running, n, "running", default=0.0)
        )
        object.__setattr__(
            self, "discount", _vec(self.discount, n, "discount", default=0.0)
        )
        reach = states_reaching(self.chain, self.target)
        if not reach.all():
            raise UnreachableTargetError(
                [int(i) for i in np.flatnonzero(~reach)]
            )


def _vec(v, n, name, default=None):
    if v is None:
        if default is None:
            raise InputError(f"{name} vector is required")
        arr = np.full(n, float(default))
    else:
        arr = np.array(v, dtype=float)
    if arr.shape != (n,):
        raise DimensionMismatchError(f"{name} has shape {arr.shape}, expected ({n},)")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class McReport:
    """Per-state MC estimates against solver values.

    z_scores are (estimate - value) / standard_error, zero where the
    standard error vanishes and the estimate matches exactly (degenerate
    or target states), infinite where it vanishes and they differ.
    """

    start_states: tuple[int, ...]
    estimates: NDArray[np.float64]
    standard_errors: NDArray[np.float64]
    values: NDArray[np.float64]
    z_scores: NDArray[np.float64]
    paths: int
    seed: int

    @property
    def max_abs_z(self) -> float:
        return float(np.abs(self.z_scores).max()) if self.z_scores.size else 0.0

    def within(self, sigmas: float = 3.0) -> bool:
        return self.max_abs_z <= sigmas


def as_mc_problem(p: HittingProblem) -> McProblem:
    """Simulable representation of a hitting problem, when one exists.

    Requires a time-independent vector terminal and a driver whose spec
    declares the decomposable form (affine, or uncontrolled reliability).
    Controlled problems are simulable only after a policy is fixed; build
    the McProblem from the collapsed policy matrix instead.
    """
    if not p.time_free_terminal:
        raise InputError("simulation requires a time-independent terminal value")
    spec = p.driver.spec or {}
    kind = spec.get("type")
    if kind == "affine":
        b = validate_rate_matrix(np.array(spec["b"]), state_names=p.chain.state_names)
        return McProblem(
            chain=b,
            target=p.target,
            phi=p.terminal_vector(0.0),
            running=np.array(spec["g"]),
            discount=np.array(spec["r"]),
        )
    if kind == "reliability" and not spec.get("controlled"):
        return McProblem(
            chain=p.chain,
            target=p.target,
            phi=p.terminal_vector(0.0),
            discount=np.array(spec["loss_rates"]),
        )
    raise InputError(
        f"driver spec {kind!r} has no simulable representation; "
        "collapse the policy into an effective rate matrix first"
    )


def mc_validate(
    problem: McProblem | HittingProblem,
    values,
    paths: int = 100_000,
    seed: int = 0,
    start_states=None,
    max_jumps: int = 1_000_000,
) -> McReport:
    """Estimate the time-zero value per starting state and score the solver.

    ``values`` is the solver's full n-vector.  Starting states on the
    target are scored exactly (the value is the terminal payoff itself).
    Each starting state uses the stream ``default_rng([seed, x0])``.
    """
    if isinstance(problem, HittingProblem):
        problem = as_mc_problem(problem)
    n = problem.chain.n
    vals = _vec(values, n, "values")
    if start_states is None:
        starts = list(range(n))
    else:
        starts = [int(x) for x in start_states]
        for x in starts:
            if not 0 <= x < n:
                raise InputError(f"start state {x} out of range [0, {n})")
    if int(paths) < 2:
        raise InputError("need at least 2 paths for a standard error")
    paths = int(paths)

    lam, cum = _jump_tables(problem.chain.q)
    target_mask = np.zeros(n, dtype=bool)
    target_mask[list(problem.target)] = True
    if (lam[~target_mask] <= 0.0).any():
        # free absorbing state: reachability validation already rejects
        # unreachable targets, so this is a trap outside the target
        trapped = [int(i) for i in np.flatnonzero((lam <= 0.0) & ~target_mask)]
        raise UnreachableTargetError(trapped)

    est = np.zeros(len(starts))
    se = np.zeros(len(starts))
    for k, x0 in enumerate(starts):
        if x0 in problem.target:
            est[k] = problem.phi[x0]
            continue
        samples = _batch(problem, lam, cum, target_mask, x0, paths, seed, max_jumps)
        est[k] = samples.mean()
        se[k] = samples.std(ddof=1) / np.sqrt(paths)

    diff = est - vals[starts]
    z = np.where(se > 0.0, diff / np.where(se > 0.0, se, 1.0), 0.0)
    degenerate = (se == 0.0) & (diff != 0.0)
    z[degenerate] = np.sign(diff[degenerate]) * np.inf
    return McReport(
        start_states=tuple(starts),
        estimates=est,
        standard_errors=se,
        values=vals[starts].copy(),
        z_scores=z,
        paths=paths,
        seed=int(seed),
    )


def _jump_tables(q: NDArray[np.float64]):
    """Exit rates and cumulative jump-chain rows, each divided by its own
    total so that it reaches exactly 1.0 at its last positive entry."""
    lam = -np.diag(q).copy()
    cum = np.maximum(q, 0.0).T.copy()  # row i = jump rates out of state i
    np.fill_diagonal(cum, 0.0)
    np.cumsum(cum, axis=1, out=cum)
    active = lam > 0.0
    cum[active] /= cum[active, -1:]
    return lam, cum


def _draw(cum_rows, u):
    """Per row, the first state whose cumulative entry exceeds ``u``:
    ``simulate_controlled_path``'s ``searchsorted(side="right")`` rule, which
    never lands on a zero-probability state."""
    return (cum_rows <= u[:, None]).sum(axis=1)


def _batch(
    p: McProblem, lam, cum, target_mask, x0: int, paths: int, seed: int, max_jumps: int
) -> NDArray[np.float64]:
    rng = np.random.default_rng([int(seed), int(x0)])
    state = np.full(paths, x0, dtype=np.int64)
    acc = np.zeros(paths)
    log_disc = np.zeros(paths)
    alive = np.ones(paths, dtype=bool)
    g, r = p.running, p.discount

    for _ in range(max_jumps):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        s = state[idx]
        rs = r[s]
        dt = rng.exponential(1.0, size=idx.size) / lam[s]
        rdt = rs * dt
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(rs != 0.0, -np.expm1(-rdt) / np.where(rs != 0.0, rs, 1.0), dt)
        acc[idx] += np.exp(-log_disc[idx]) * g[s] * w
        log_disc[idx] += rdt

        u = rng.random(idx.size)
        nxt = _draw(cum[s], u)
        state[idx] = nxt
        hit = target_mask[nxt]
        if hit.any():
            done = idx[hit]
            acc[done] += np.exp(-log_disc[done]) * p.phi[nxt[hit]]
            alive[done] = False
    else:
        raise NumericalError(
            f"{int(alive.sum())} of {paths} paths not absorbed within "
            f"{max_jumps} jumps"
        )
    return acc
