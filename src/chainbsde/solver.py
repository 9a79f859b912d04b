"""Solvers for backward equations stopped at hitting times.

Two routes to the solution field ``u`` with ``Y_t = u(t, X_t)``:

* :func:`solve_homogeneous` — time-independent data.  The field is constant
  in time and solves the algebraic system ``f(e_i, u_i, u) + (A^T u)_i = 0``
  off the target with ``u = phi`` on it; the martingale integrand is then
  the constant vector ``Z = u``.
* :func:`solve_backward_grid` — time-dependent data on a finite horizon.
  Classical fixed-step fourth-order Runge-Kutta on
  ``du/dt = -(f(t, u) + Ahat^T u)`` run backward from the horizon, where
  ``Ahat`` is the reference matrix with target columns zeroed (targets
  absorb).  Target entries carry the boundary value read at each stage's
  own time, so a time-dependent boundary is never differenced.

:func:`truncation_sequence` realizes the horizon-truncated approximations
whose terminal value vanishes on paths that have not yet been absorbed; the
successive gaps witness the convergence rate towards the untruncated
solution.  For time-independent data the truncations form a semigroup,
``u_T(0) = S(T - T') u_{T'}(0)``, so one backward sweep continued from
horizon to horizon passes through every truncation.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

from ._linalg import solve_or_none
from .chain import RateMatrix, _split_target, states_reaching
from .drivers import MarkovianDriver
from .errors import (
    BoundViolatedError,
    DimensionMismatchError,
    DriverTimeDependentError,
    InputError,
    NoConvergenceError,
    NonFiniteStateError,
    StepTooLargeError,
    UnreachableTargetError,
)

__all__ = [
    "HittingProblem",
    "SolutionField",
    "TruncationDiagnostics",
    "ComparisonReport",
    "GrowthReport",
    "solve_homogeneous",
    "solve_backward_grid",
    "truncation_sequence",
    "check_comparison",
    "growth_bound_check",
]


@dataclass(frozen=True)
class HittingProblem:
    """A backward equation driven to the hitting time of a target set.

    Parameters
    ----------
    chain : RateMatrix
        Reference dynamics (column convention).
    target : iterable of int
        Nonempty absorbing set whose hitting time stops the equation.
    terminal : array_like of shape (n,) or callable (t, x) -> float
        Boundary value on the target; a vector declares time-independent
        data.  Grid solving also reads the terminal entries of non-target
        states at the horizon.
    driver : MarkovianDriver
    k : float, optional
        Declared bound/growth constant of the data (defaults to the largest
        terminal magnitude for vector terminals).
    beta : float
        Declared tail exponent of the hitting time; must exceed the
        driver's free-term growth ``beta_hat``.
    require_reachable : bool
        When True (default) every non-target state must reach the target
        through the chain's support, which makes the hitting time finite;
        disable only for purely finite-horizon grid use.
    """

    chain: RateMatrix
    target: frozenset[int]
    terminal: object
    driver: MarkovianDriver
    k: float | None = None
    beta: float = 1.0
    require_reachable: bool = True
    free_states: NDArray[np.int_] = field(init=False, repr=False, default=None)
    target_states: NDArray[np.int_] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        n = self.chain.n
        free, tgt = _split_target(self.chain, self.target)
        object.__setattr__(self, "target", frozenset(tgt.tolist()))
        object.__setattr__(self, "target_states", tgt)
        object.__setattr__(self, "free_states", free)

        if callable(self.terminal):
            pass
        else:
            vec = np.array(self.terminal, dtype=float)
            if vec.shape != (n,):
                raise DimensionMismatchError(
                    f"terminal vector has shape {vec.shape}, expected ({n},)"
                )
            if not np.isfinite(vec).all():
                raise InputError("terminal vector contains non-finite entries")
            vec.setflags(write=False)
            object.__setattr__(self, "terminal", vec)
            if self.k is None:
                object.__setattr__(self, "k", float(np.abs(vec).max()))

        if self.driver.beta_hat >= self.beta:
            raise InputError(
                f"driver free-term growth beta_hat={self.driver.beta_hat!r} must be "
                f"strictly below the declared tail exponent beta={self.beta!r}"
            )

        if self.require_reachable:
            reach = states_reaching(self.chain, self.target)
            if not reach.all():
                raise UnreachableTargetError([int(i) for i in np.flatnonzero(~reach)])

    @property
    def time_free_terminal(self) -> bool:
        return not callable(self.terminal)

    def phi(self, t: float, x: int) -> float:
        if callable(self.terminal):
            return float(self.terminal(t, x))
        return float(self.terminal[x])

    def terminal_vector(self, t: float) -> NDArray[np.float64]:
        if callable(self.terminal):
            return np.array([float(self.terminal(t, x)) for x in range(self.chain.n)])
        return np.array(self.terminal, dtype=float)


@dataclass(frozen=True)
class SolutionField:
    """Solution of a hitting-time backward equation.

    ``mode == "homogeneous"``: ``u`` has shape (n,), constant in time, and
    ``z`` (the martingale integrand) equals ``u``.  ``mode == "time_grid"``:
    ``u`` has shape (steps+1, n) with ``u[k]`` the field at ``times[k]``.
    ``mode == "affine_time"``: the field at time t is ``u + t`` in every
    coordinate (total elapsed plus remaining time); differences between
    states, and hence the martingale integrand's action, match ``u``.
    Boundary values on target states are exact in all modes.
    """

    mode: str
    u: NDArray[np.float64]
    times: NDArray[np.float64] | None = None
    residual: float = float("nan")
    iterations: int = 0

    @property
    def z(self) -> NDArray[np.float64]:
        if self.mode == "time_grid":
            raise InputError("z is the constant field only for stationary solutions")
        return self.u

    def at_zero(self) -> NDArray[np.float64]:
        """Field at time zero (grid row 0, or the constant field)."""
        return self.u[0] if self.mode == "time_grid" else self.u

    def field_at(self, t: float) -> NDArray[np.float64]:
        """Field at time ``t`` (grid modes interpolate linearly in t)."""
        t = float(t)
        if self.mode == "homogeneous":
            return self.u
        if self.mode == "affine_time":
            return self.u + t
        lo, hi = float(self.times[0]), float(self.times[-1])
        if not lo <= t <= hi:
            raise InputError(f"t={t!r} outside the grid [{lo!r}, {hi!r}]")
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        k = min(max(k, 0), len(self.times) - 2)
        t0, t1 = self.times[k], self.times[k + 1]
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        return (1.0 - w) * self.u[k] + w * self.u[k + 1]


@dataclass(frozen=True)
class TruncationDiagnostics:
    """Time-zero values of horizon truncations and their successive gaps."""

    horizons: tuple[float, ...]
    values_at_zero: tuple[NDArray[np.float64], ...]
    successive_gaps: tuple[float, ...]


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of an ordered-solutions check.

    ``equality_states`` lists states where the two fields agree within the
    slack; ``strict_clause_ok`` records whether agreement there is explained
    by equal drivers along everything reachable, the only way equality can
    occur under ordered data.
    """

    hypothesis_ok: bool
    hypothesis_violations: tuple
    ordered: bool
    min_slack: float
    equality_states: tuple[int, ...]
    strict_clause_ok: bool


@dataclass(frozen=True)
class GrowthReport:
    """Largest |u| / bound ratio observed by :func:`growth_bound_check`."""

    max_ratio: float
    points_checked: int


def _require_time_free(p: HittingProblem) -> None:
    if p.driver.time_dependent:
        raise DriverTimeDependentError("driver")
    if not p.time_free_terminal:
        raise DriverTimeDependentError("terminal condition")


def solve_homogeneous(
    p: HittingProblem,
    tol: float = 1e-10,
    max_iter: int = 80,
    u0: NDArray[np.float64] | None = None,
) -> SolutionField:
    """Solve the stationary algebraic system for time-independent data.

    Damped Newton iteration on the non-target coordinates, started from the
    linear solve with the driver frozen at ``y = 0, z = 0`` (exact when the
    driver ignores its ``y`` and ``z`` arguments).  The driver enters only
    through ``field`` and ``jacobian``; built-in drivers give the active
    member's exact Jacobian, which makes Newton Howard's policy iteration.
    If Newton stalls, a fixed-point sweep alternating driver evaluation with
    the implicit linear solve of the absorbed system takes over.

    Returns
    -------
    SolutionField
        Homogeneous field with the independently re-evaluated residual.

    Raises
    ------
    DriverTimeDependentError, NoConvergenceError
    """
    _require_time_free(p)

    n = p.chain.n
    free = p.free_states
    tgt = p.target_states
    phi = p.terminal_vector(0.0)

    if free.size == 0:
        return SolutionField("homogeneous", phi, residual=0.0, iterations=0)

    aT = p.chain.q.T
    aT_ff = aT[np.ix_(free, free)]
    aT_ft = aT[np.ix_(free, tgt)]
    boundary_flow = aT_ft @ phi[tgt]

    def assemble(uf: NDArray[np.float64]) -> NDArray[np.float64]:
        u = phi.copy()
        u[free] = uf
        return u

    def residual_vec(u: NDArray[np.float64]) -> NDArray[np.float64]:
        return p.driver.field(0.0, u, free) + aT[free] @ u

    if u0 is not None:
        u0 = np.asarray(u0, dtype=float)
        if u0.shape != (n,):
            raise DimensionMismatchError(f"u0 has shape {u0.shape}, expected ({n},)")
        u = phi.copy()
        u[free] = u0[free]
    else:
        frozen = p.driver.field(0.0, np.zeros(n), free)
        uf = solve_or_none(aT_ff, -frozen - boundary_flow)
        u = assemble(uf) if uf is not None else phi.copy()

    iterations = 0
    F = residual_vec(u)

    # Newton with halving damping
    stalled = False
    for _ in range(max_iter):
        resid = float(np.abs(F).max())
        if resid < tol:
            break
        iterations += 1
        step = solve_or_none(p.driver.jacobian(0.0, u, free) + aT_ff, -F)
        if step is None:
            stalled = True
            break
        alpha = 1.0
        improved = False
        while alpha > 2.0**-40:
            trial = u.copy()
            trial[free] += alpha * step
            Ft = residual_vec(trial)
            mt = float(np.abs(Ft).max()) if np.isfinite(Ft).all() else np.inf
            if mt < resid:
                u, F = trial, Ft
                improved = True
                break
            alpha *= 0.5
        if not improved:
            stalled = True
            break
    else:
        stalled = True

    if stalled and float(np.abs(F).max()) >= tol:
        u, F, extra = _picard(p, u, residual_vec, assemble, aT_ff, boundary_flow, tol)
        iterations += extra

    resid = float(np.abs(residual_vec(u)).max())
    if not resid < tol:
        raise NoConvergenceError(resid, iterations)
    return SolutionField("homogeneous", u, residual=resid, iterations=iterations)


def _picard(p, u, residual_vec, assemble, aT_ff, boundary_flow, tol, max_sweeps=500):
    free = p.free_states
    best_u = u
    best = float(np.abs(residual_vec(u)).max())
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        uf = solve_or_none(aT_ff, -p.driver.field(0.0, u, free) - boundary_flow)
        if uf is None:
            break
        u = assemble(uf)
        r = float(np.abs(residual_vec(u)).max())
        if r < best:
            best, best_u = r, u
        if r < tol:
            return u, residual_vec(u), sweeps
    return best_u, residual_vec(best_u), sweeps


def solve_backward_grid(
    p: HittingProblem, horizon: float, steps: int
) -> SolutionField:
    """Integrate the backward field equation on a fixed time grid.

    Fourth-order Runge-Kutta with step ``h = horizon / steps`` run from the
    terminal data at the horizon down to time zero.  The step must satisfy
    the accuracy guard ``h * max_i |q[i, i]| <= 0.1``.  Target states carry
    the boundary value: every stage reads it at the stage's own time (the
    boundary is evaluated on target states only), and it is re-imposed
    exactly after every step.

    Raises
    ------
    StepTooLargeError, NonFiniteStateError
    """
    if not horizon > 0.0:
        raise InputError(f"horizon must be positive, got {horizon!r}")
    if int(steps) < 1:
        raise InputError(f"steps must be >= 1, got {steps!r}")
    steps = int(steps)
    h = horizon / steps
    if h * p.chain.max_rate > 0.1 + 1e-12:
        raise StepTooLargeError(h, p.chain.max_rate)

    n = p.chain.n
    free = p.free_states
    tgt = p.target_states
    ahat = p.chain.q.copy()
    ahat[:, tgt] = 0.0  # targets absorb
    ahatT = ahat.T
    fixed = p.terminal[tgt] if p.time_free_terminal else None

    def boundary(t: float) -> NDArray[np.float64]:
        return fixed if fixed is not None else np.array([p.phi(t, x) for x in tgt])

    def slope(t: float, w: NDArray[np.float64]) -> NDArray[np.float64]:
        # w is the field at time t, advanced in s = horizon - t
        w[tgt] = boundary(t)
        dw = ahatT @ w
        dw[free] += p.driver.field(t, w, free)
        dw[tgt] = 0.0
        return dw

    u = np.empty((steps + 1, n))
    w = p.terminal_vector(horizon)
    u[steps] = w
    t = horizon
    for k in range(steps):
        k1 = slope(t, w)
        k2 = slope(t - 0.5 * h, w + 0.5 * h * k1)
        k3 = slope(t - 0.5 * h, w + 0.5 * h * k2)
        k4 = slope(t - h, w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = horizon - (k + 1) * h
        w[tgt] = boundary(t)
        if not np.isfinite(w).all():
            raise NonFiniteStateError(t)
        u[steps - 1 - k] = w

    times = np.array([horizon * k / steps for k in range(steps + 1)])
    return SolutionField(
        "time_grid", u, times=times, residual=float("nan"), iterations=steps
    )


def truncation_sequence(
    p: HittingProblem, horizons: Sequence[float], dt: float = 0.01
) -> TruncationDiagnostics:
    """Time-zero values of the horizon-truncated equations.

    For each horizon ``T`` the terminal value is the boundary value on
    already-absorbed states and zero on states still alive at ``T`` (the
    truncated data vanish unless the target was hit in time).  With
    time-independent data the backward flow ``S`` is a semigroup, so
    ``u_T(0) = S(T - T') u_{T'}(0)``: each horizon continues from the one
    before with one grid solve over the gap, at most ``dt`` per step.  The
    same data make the truncations converge to the stationary solution, so
    a callable terminal or a time-dependent driver raises
    :class:`DriverTimeDependentError`, as in :func:`solve_homogeneous`.  Gaps are
    max-abs differences of consecutive time-zero fields over non-target
    states.
    """
    _require_time_free(p)
    hs = [float(t) for t in horizons]
    if len(hs) < 2:
        raise InputError("need at least two horizons")
    if any(b <= a for a, b in zip(hs, hs[1:])):
        raise InputError("horizons must be strictly increasing")
    if not hs[0] > 0.0:
        raise InputError("horizons must be positive")

    max_rate = p.chain.max_rate
    step_cap = dt if max_rate == 0.0 else min(dt, 0.1 / max_rate)
    w = np.zeros(p.chain.n)
    w[p.target_states] = p.terminal[p.target_states]
    values = []
    for lo, hi in zip([0.0, *hs], hs):
        steps = max(1, int(np.ceil((hi - lo) / step_cap)))
        # copied, so that the grid of each gap is not kept alive
        w = solve_backward_grid(replace(p, terminal=w), hi - lo, steps).u[0].copy()
        values.append(w)
    free = p.free_states
    gaps = [
        float(np.abs((b - a)[free]).max()) if free.size else 0.0
        for a, b in zip(values, values[1:])
    ]
    return TruncationDiagnostics(tuple(hs), tuple(values), tuple(gaps))


def check_comparison(
    p1: HittingProblem,
    p2: HittingProblem,
    sol1: SolutionField,
    sol2: SolutionField,
    slack: float = 1e-9,
    samples: int = 200,
    seed: int = 0,
) -> ComparisonReport:
    """Check that ordered data produced ordered solutions.

    Samples random ``(x, t, y, z)`` points to verify ``f1 >= f2`` and checks
    the boundary order on target states; violations are reported, not
    raised.  Then asserts ``sol1 >= sol2 - slack`` everywhere, reports the
    minimal slack, the equality set, and whether equality is explained by
    driver equality along every state reachable from it.
    """
    if p1.chain.n != p2.chain.n or p1.target != p2.target:
        raise InputError("comparison requires the same chain dimension and target")
    if not np.allclose(p1.chain.q, p2.chain.q, rtol=0.0, atol=1e-14):
        raise InputError("comparison requires the same reference chain")
    if sol1.mode != sol2.mode or sol1.u.shape != sol2.u.shape:
        raise InputError("solutions must share mode and shape")

    n = p1.chain.n
    rng = np.random.default_rng(seed)
    violations = []
    both_static = (
        not p1.driver.time_dependent
        and not p2.driver.time_dependent
        and p1.time_free_terminal
        and p2.time_free_terminal
    )
    for _ in range(int(samples)):
        x = int(rng.integers(n))
        t = 0.0 if both_static else float(rng.exponential(1.0))
        y = float(rng.normal(0.0, 2.0))
        z = rng.normal(0.0, 2.0, size=n)
        f1 = p1.driver.eval(x, t, y, z)
        f2 = p2.driver.eval(x, t, y, z)
        if f1 < f2 - 1e-12:
            violations.append(("driver", x, t, f1, f2))
    for x in p1.target_states:
        ts = [0.0] if both_static else [0.0, 0.5, 1.0, 2.0]
        for t in ts:
            if p1.phi(t, int(x)) < p2.phi(t, int(x)) - 1e-12:
                violations.append(("terminal", int(x), t, p1.phi(t, int(x)), p2.phi(t, int(x))))

    diff = sol1.u - sol2.u
    min_slack = float(diff.min())
    ordered = bool(min_slack >= -slack)

    if sol1.mode == "time_grid":
        eq_mask = (np.abs(diff) <= slack).all(axis=0)
    else:
        eq_mask = np.abs(diff) <= slack
    equality_states = tuple(int(i) for i in np.flatnonzero(eq_mask))

    strict_ok = True
    if equality_states and sol1.mode == "homogeneous":
        u1, u2 = sol1.u, sol2.u
        support = p1.chain.support.copy()
        support[:, p1.target_states] = False  # absorbed states do not move on
        for i in equality_states:
            if i in p1.target:
                continue
            f1 = p1.driver.eval(i, 0.0, u1[i], u1)
            f2 = p2.driver.eval(i, 0.0, u2[i], u2)
            if abs(f1 - f2) > 1e-9:
                strict_ok = False
                break
            successors = np.flatnonzero(support[:, i])
            if any(not eq_mask[j] for j in successors):
                strict_ok = False
                break

    return ComparisonReport(
        hypothesis_ok=not violations,
        hypothesis_violations=tuple(violations),
        ordered=ordered,
        min_slack=min_slack,
        equality_states=equality_states,
        strict_clause_ok=strict_ok,
    )


def growth_bound_check(
    p: HittingProblem,
    sol: SolutionField,
    K: Callable[[float], float],
    c: float | None = None,
) -> GrowthReport:
    """Assert ``|u(t)[x]| <= (1 + c) * K(t)`` at every computed point.

    ``c`` defaults to the driver's declared ``y``-Lipschitz constant.
    Raises :class:`BoundViolatedError` at the first offending point,
    otherwise reports the largest ratio observed.
    """
    cc = p.driver.c if c is None else float(c)
    if sol.mode == "time_grid":
        points: Iterable[tuple[float, NDArray[np.float64]]] = zip(sol.times, sol.u)
    else:
        points = [(0.0, sol.at_zero())]
    count = sol.u.size
    max_ratio = 0.0
    for t, row in points:
        bound = (1.0 + cc) * float(K(float(t)))
        if bound <= 0.0:
            raise InputError(f"bound K({t!r}) must be positive")
        worst = float(np.abs(row).max())
        if worst > bound:
            x = int(np.argmax(np.abs(row)))
            raise BoundViolatedError(float(t), x, float(row[x]), bound)
        max_ratio = max(max_ratio, worst / bound)
    return GrowthReport(max_ratio=max_ratio, points_checked=count)
