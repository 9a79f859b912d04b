"""Hitting-time moments, exact and worst-case over balanced intensity tilts.

For a chain absorbed in a target set, the mean hitting time and the
exponential moment h(x) = E[e^{beta*tau} | X_0 = x] solve linear systems on
the non-target states.  The worst-case exponential moment ranges over every
rate matrix whose jump intensities stay within ratio [gamma, 1/gamma] of
the reference, entry by entry; the supremum is a Bellman fixed point
computed by policy iteration over that family's per-column boxes.

The box family deliberately uses the intensity-ratio constraints rather
than the one-sided margin relation: the measure family the bounds must
dominate tilts each intensity within [gamma, 1/gamma], and at gamma = 1 the
box family collapses to the reference matrix alone, which is the degenerate
behavior the worst-case moment must have.  Because each column's
constraints are an axis-aligned box (the zero-sum constraint only sets the
diagonal), the maximizing vertex is found coordinatewise with no vertex
enumeration or LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._linalg import solve_or_none
from .chain import (
    RateMatrix,
    _box_argmax,
    _split_target,
    states_reaching,
    validate_rate_matrix,
)
from .errors import InputError, NoFiniteExponentError, SingularSystemError

__all__ = [
    "MomentReport",
    "ConditionK",
    "expected_hitting_times",
    "exp_moment",
    "worst_case_exp_moment",
    "condition_K",
    "sample_box_member",
]

@dataclass(frozen=True)
class MomentReport:
    """Exponential hitting-time moment h(x) = E[e^{beta*tau} | X_0 = x].

    ``finite`` is False when the exponent sits at or beyond the abscissa of
    convergence (singular system or a nonpositive solution component);
    ``values`` is None in that case.  ``worst_case`` marks a supremum over
    the gamma-ratio family rather than the reference chain, with ``gamma``
    set and ``worst_member`` the maximizing rate matrix.
    """

    beta: float
    values: NDArray[np.float64] | None
    finite: bool
    worst_case: bool = False
    gamma: float | None = None
    worst_member: NDArray[np.float64] | None = None
    iterations: int = 0


@dataclass(frozen=True)
class ConditionK:
    """Envelope K(t) = k (1+t)^{1+beta} for conditional hitting-time moments.

    Dominates E[(1 + tau)^{1+beta} | F_t] under every intensity tilt within
    ratio gamma, and k also dominates the conditional terminal magnitude
    for data bounded by it.  ``k_tilde`` plays the same role for the
    compounded moment E[K(tau)^{1+beta_tilde} | F_t] at the exponent
    ``beta_compound`` = (1+beta)(1+beta_tilde) - 1.

    ``derivation`` records the exact constant used; ``abscissa`` is the
    located convergence abscissa of the worst-case exponential moment and
    ``beta_prime`` = abscissa/2 the exponent actually evaluated.
    """

    k: float
    beta: float
    beta_tilde: float
    k_tilde: float
    beta_compound: float
    gamma: float
    abscissa: float
    beta_prime: float
    h_sup: float
    derivation: str

    def bound(self, t: float) -> float:
        """K(t) = k (1+t)^{1+beta}; nondecreasing in t, inf once the
        double range is exceeded."""
        if t < 0.0:
            raise InputError(f"time must be nonnegative, got {t!r}")
        try:
            return self.k * (1.0 + t) ** (1.0 + self.beta)
        except OverflowError:
            return math.inf

    def bound_tilde(self, t: float) -> float:
        """K_tilde(t) = k_tilde (1+t)^{1+beta_compound}."""
        if t < 0.0:
            raise InputError(f"time must be nonnegative, got {t!r}")
        try:
            return self.k_tilde * (1.0 + t) ** (1.0 + self.beta_compound)
        except OverflowError:
            return math.inf


def expected_hitting_times(a: RateMatrix, target) -> NDArray[np.float64]:
    """Mean time to reach the target from every state (zero on the target).

    Solves sum_j q[j][x] (m[j] - m[x]) = -1 off the target with m = 0 on
    it, which is the generator identity for the additive functional t.

    Raises
    ------
    SingularSystemError
        If some state cannot reach the target (the mean is infinite there).
    """
    free, _tgt = _split_target(a, target)
    n = a.n
    m = np.zeros(n)
    if free.size == 0:
        return m
    reach = states_reaching(a, target)
    if not reach.all():
        raise SingularSystemError(
            "mean hitting time is infinite: target unreachable",
            [int(i) for i in np.flatnonzero(~reach)],
        )
    aT_ff = a.q.T[np.ix_(free, free)]
    mf = solve_or_none(aT_ff, -np.ones(free.size))
    if mf is None or (mf <= 0.0).any():
        bad = free if mf is None else free[~(mf > 0.0)]
        raise SingularSystemError(
            "hitting-time system is numerically singular",
            [int(i) for i in bad],
        )
    m[free] = mf
    return m


def _resolvent_solve(q, free, tgt, beta):
    """h on free states for the matrix q, or None when not a finite moment.

    Solves (beta I + q^T_ff) h_f = -q^T_ft 1: the generator identity for
    e^{beta t} stopped at absorption.  Nonpositive components or a singular
    system mean beta is at or past the abscissa of convergence.
    """
    qT = q.T
    m = qT[np.ix_(free, free)].copy()
    m[np.diag_indices(free.size)] += beta
    rhs = -qT[np.ix_(free, tgt)].sum(axis=1)
    hf = solve_or_none(m, rhs)
    if hf is None or (hf <= 0.0).any():
        return None
    return hf


def exp_moment(a: RateMatrix, target, beta: float) -> MomentReport:
    """Exponential moment of the hitting time under the reference chain.

    Finiteness is part of the report, not an error: ``finite`` is False at
    or beyond the abscissa of convergence.
    """
    beta = float(beta)
    if not beta > 0.0:
        raise InputError(f"beta must be positive, got {beta!r}")
    free, tgt = _split_target(a, target)
    if free.size == 0:
        return MomentReport(beta, np.ones(a.n), True)
    hf = _resolvent_solve(a.q, free, tgt, beta)
    if hf is None:
        return MomentReport(beta, None, False)
    h = np.ones(a.n)
    h[free] = hf
    return MomentReport(beta, h, True)


def worst_case_exp_moment(
    a: RateMatrix, gamma: float, target, beta: float
) -> MomentReport:
    """Supremum of the exponential hitting-time moment over the ratio family.

    Policy iteration: evaluate the incumbent rate matrix's moment, then for
    every free state's column push each intensity q[j][x] to the box end
    gamma*q or q/gamma that increases the moment (up when h[j] > h[x], down
    when h[j] < h[x], unchanged on ties), repeating until the policy is a
    fixed point.  The fixed point dominates the moment under every
    intensity process confined to the same ratio band.

    ``finite = False`` as soon as any visited member's moment diverges,
    since that member alone already drives the supremum to infinity.
    """
    beta = float(beta)
    gamma = float(gamma)
    if not beta > 0.0:
        raise InputError(f"beta must be positive, got {beta!r}")
    if not 0.0 < gamma <= 1.0:
        raise InputError(f"gamma must be in (0, 1], got {gamma!r}")
    free, tgt = _split_target(a, target)
    if free.size == 0:
        return MomentReport(beta, np.ones(a.n), True, worst_case=True, gamma=gamma)

    n = a.n
    policy = a.q.copy()
    iterations = 0
    h = None
    for _ in range(500):
        hf = _resolvent_solve(policy, free, tgt, beta)
        if hf is None:
            return MomentReport(
                beta, None, False, worst_case=True, gamma=gamma,
                worst_member=policy, iterations=iterations,
            )
        h = np.ones(n)
        h[free] = hf
        new = policy.copy()
        new[:, free] = _box_argmax(a, gamma, h, free, policy[:, free])
        if np.array_equal(new, policy):
            break
        policy = new
        iterations += 1
    # h evaluates the incumbent; on the (unreached in practice) iteration
    # cap it lags the last improvement by one sweep, still a family member.
    return MomentReport(
        beta, h, True, worst_case=True, gamma=gamma,
        worst_member=policy, iterations=iterations,
    )


def sample_box_member(
    a: RateMatrix, gamma: float, seed: int = 0, rng: np.random.Generator | None = None
) -> RateMatrix:
    """Random member of the ratio family: each intensity scaled by a factor
    drawn log-uniformly from [gamma, 1/gamma], diagonals rebalanced."""
    if not 0.0 < gamma <= 1.0:
        raise InputError(f"gamma must be in (0, 1], got {gamma!r}")
    if rng is None:
        rng = np.random.default_rng(seed)
    q = a.q.copy()
    n = a.n
    factors = gamma ** rng.uniform(-1.0, 1.0, size=(n, n))
    off = ~np.eye(n, dtype=bool)
    q[off] *= factors[off]
    q[np.diag_indices(n)] = 0.0
    q[np.diag_indices(n)] = -q.sum(axis=0)
    return validate_rate_matrix(q, state_names=a.state_names)


def _poly_exp_constant(beta: float, beta_prime: float) -> float:
    # sup_{s >= 0} (1+s)^{1+beta} e^{-beta_prime s}, attained at
    # s* = (1+beta)/beta_prime - 1 when that is positive, else at s = 0.
    if beta_prime >= 1.0 + beta:
        return 1.0
    log_sup = (1.0 + beta) * math.log((1.0 + beta) / beta_prime) + (
        beta_prime - (1.0 + beta)
    )
    # past the double range the envelope still exists; report it as inf
    # rather than raising OverflowError
    if log_sup > 709.0:
        return math.inf
    return math.exp(log_sup)


def condition_K(
    a: RateMatrix,
    gamma: float,
    target,
    beta: float,
    beta_tilde: float | None = None,
) -> ConditionK:
    """Polynomial envelope for hitting-time moments uniform over the family.

    Locates the convergence abscissa of the worst-case exponential moment
    (doubling to bracket, then 40 bisection steps), evaluates the moment at
    beta_prime = abscissa / 2, and converts to the polynomial bound through
    the exact inequality

        (1 + s)^{1+beta} <= C(beta, beta_prime) * e^{beta_prime * s},
        C(b, b') = max(1, ((1+b)/b')^{1+b} * e^{b' - (1+b)}),

    giving k = C(beta, beta_prime) * sup_x h(x) and K(t) = k(1+t)^{1+beta}.
    The compounded envelope uses the same h with the compounded exponent:
    k_tilde = k^{1+beta_tilde} * C(beta_compound, beta_prime) * sup_x h(x).

    Raises
    ------
    NoFiniteExponentError
        If no positive exponent yields a finite worst-case moment (the
        target is not reachable under the family, so no envelope exists).
    """
    beta = float(beta)
    if not beta > 0.0:
        raise InputError(f"beta must be positive, got {beta!r}")
    bt = beta if beta_tilde is None else float(beta_tilde)
    if not bt > 0.0:
        raise InputError(f"beta_tilde must be positive, got {bt!r}")
    beta2 = (1.0 + beta) * (1.0 + bt) - 1.0
    free, _tgt = _split_target(a, target)

    note = (
        "k = sup_x h(x; beta') * max(1, ((1+beta)/beta')^(1+beta)"
        " * exp(beta' - (1+beta))), the exact supremum of"
        " (1+s)^(1+beta) e^(-beta' s)"
    )

    if free.size == 0:
        return ConditionK(
            k=1.0, beta=beta, beta_tilde=bt, k_tilde=1.0, beta_compound=beta2,
            gamma=float(gamma), abscissa=math.inf, beta_prime=math.inf,
            h_sup=1.0, derivation=note,
        )

    def finite(b: float) -> bool:
        return worst_case_exp_moment(a, gamma, target, b).finite

    lo, hi = 0.0, 1.0
    if finite(hi):
        lo = hi
        for _ in range(60):
            hi *= 2.0
            if not finite(hi):
                break
            lo = hi
        else:
            hi = lo  # never diverged within the bracket cap; use the last finite point
    if hi > lo:
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if finite(mid):
                lo = mid
            else:
                hi = mid
    abscissa = lo
    if abscissa <= 1e-12:
        raise NoFiniteExponentError(
            "no positive exponent gives a finite worst-case moment; "
            "the target is not uniformly reachable under the ratio family"
        )

    beta_prime = abscissa / 2.0
    report = worst_case_exp_moment(a, gamma, target, beta_prime)
    if not report.finite:
        # halve once more; beta_prime sits strictly inside the finite bracket
        beta_prime /= 2.0
        report = worst_case_exp_moment(a, gamma, target, beta_prime)
    h_sup = float(report.values.max())
    k = _poly_exp_constant(beta, beta_prime) * h_sup
    k = max(k, 1.0)
    try:
        k_tilde = k ** (1.0 + bt) * _poly_exp_constant(beta2, beta_prime) * h_sup
    except OverflowError:
        # k is representable but its compound power is not
        k_tilde = math.inf
    return ConditionK(
        k=k, beta=beta, beta_tilde=bt, k_tilde=k_tilde, beta_compound=beta2,
        gamma=float(gamma), abscissa=abscissa, beta_prime=beta_prime,
        h_sup=h_sup, derivation=note,
    )
