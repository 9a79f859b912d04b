"""Finite-state continuous-time Markov chains.

Rate matrices use the column convention throughout the package: entry
``q[j, i]`` is the jump rate from state ``i`` to state ``j``, so every
**column** sums to zero and ``q.T`` is the generator acting on functions of
the state.  Most textbooks put sources on rows; transpose when importing
matrices from such sources.

States are plain integer indices in ``range(n)``.  Optional ``state_names``
are carried for reporting only and never affect the numerics.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    AbsorbedOutsideTargetError,
    ColumnSumError,
    DimensionMismatchError,
    InputError,
    NegativeOffDiagonalError,
    NonFiniteEntryError,
)

__all__ = [
    "RateMatrix",
    "ChainPath",
    "validate_rate_matrix",
    "gamma_controlled",
    "max_gamma",
    "seminorm_sq",
    "states_reaching",
    "simulate_path",
    "simulate_controlled_path",
]

# Column residuals below this times max(1, off-diagonal mass) are renormalized
# into the diagonal; larger ones are rejected as modeling errors, not noise.
_RENORM_WINDOW = 1e-9
# Off-diagonal entries may undershoot zero by at most this before rejection.
_OFFDIAG_SLACK = 1e-12
# The ratio-box rule keeps the incumbent intensity where |h[j] - h[x]| is below this.
_TIE = 1e-14
# Least positive control level max_gamma reports.
_GAMMA_FLOOR = 1e-12


@dataclass(frozen=True)
class RateMatrix:
    """A validated rate matrix in column convention.

    Do not construct directly; use :func:`validate_rate_matrix`, which
    normalizes, checks structure, and freezes the array.
    """

    n: int
    q: NDArray[np.float64]
    state_names: tuple[str, ...] | None = None

    @property
    def exit_rates(self) -> NDArray[np.float64]:
        """Total jump rate out of each state (``-diag(q)``)."""
        return -np.diag(self.q)

    @property
    def max_rate(self) -> float:
        """Largest total exit rate, ``max_i |q[i, i]|``."""
        return float(np.max(-np.diag(self.q))) if self.n else 0.0

    @property
    def support(self) -> NDArray[np.bool_]:
        """Boolean adjacency: ``support[j, i]`` iff a direct jump i -> j exists."""
        s = self.q > 0.0
        np.fill_diagonal(s, False)
        return s

    def column(self, i: int) -> NDArray[np.float64]:
        return self.q[:, i]

    def name_of(self, i: int) -> str:
        if self.state_names is not None:
            return self.state_names[i]
        return str(i)


def validate_rate_matrix(
    q: object, state_names: Sequence[str] | None = None
) -> RateMatrix:
    """Validate and normalize a rate matrix given in column convention.

    Parameters
    ----------
    q : array_like, shape (n, n)
        Candidate rate matrix; ``q[j, i]`` is the rate of jumping from state
        ``i`` to state ``j``.
    state_names : sequence of str, optional
        Labels carried along for reporting.

    Returns
    -------
    RateMatrix
        Validated matrix with read-only storage.  Column residuals with
        magnitude below ``1e-9 * max(1, m)``, m the column's off-diagonal
        mass, are absorbed into the diagonal so that every column sums to
        zero to within ``1e-12 * max(1, m)``; larger residuals raise.

    Raises
    ------
    DimensionMismatchError, NonFiniteEntryError, NegativeOffDiagonalError,
    ColumnSumError
    """
    arr = np.array(q, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(
            f"rate matrix must be square, got shape {arr.shape}"
        )
    n = arr.shape[0]
    if n == 0:
        raise DimensionMismatchError("rate matrix must have at least one state")

    bad = ~np.isfinite(arr)
    if bad.any():
        j, i = np.argwhere(bad)[0]
        raise NonFiniteEntryError(int(j), int(i))

    off = arr.copy()
    np.fill_diagonal(off, 0.0)
    big_neg = off < -_OFFDIAG_SLACK
    if big_neg.any():
        j, i = np.argwhere(big_neg)[0]
        raise NegativeOffDiagonalError(int(j), int(i), float(arr[j, i]))
    small_neg = off < 0.0
    if small_neg.any():
        # undershoot within the slack is parsing noise: clamp to zero.
        arr[small_neg] = off[small_neg] = 0.0

    residuals = arr.sum(axis=0)
    excess = np.abs(residuals) / _column_window(off)
    if (excess > 1.0).any():
        col = int(np.argmax(excess))
        raise ColumnSumError(col, float(residuals[col]))
    # absorb the residual into the diagonal so columns sum to zero exactly
    # up to one rounding step (well inside the 1e-12 * max(1, m) contract).
    arr[np.diag_indices(n)] -= residuals

    if state_names is not None:
        names = tuple(str(s) for s in state_names)
        if len(names) != n:
            raise DimensionMismatchError(
                f"{len(names)} state names for {n} states"
            )
    else:
        names = None

    arr.setflags(write=False)
    return RateMatrix(n=n, q=arr, state_names=names)


def gamma_controlled(a: RateMatrix, b: RateMatrix, gamma: float) -> bool:
    """Whether ``b`` is gamma-controlled by ``a``.

    True iff ``b - gamma*a`` is itself a rate matrix (nonnegative
    off-diagonals, zero column sums) whose diagonal entries are all at most
    ``-gamma``.  Calling this in both directions checks the symmetric
    relation used for control families.

    Parameters
    ----------
    a, b : RateMatrix
        Matrices of the same dimension.
    gamma : float
        Level in ``(0, 1]``.
    """
    if not 0.0 < gamma <= 1.0:
        raise InputError(f"gamma must lie in (0, 1], got {gamma!r}")
    if a.n != b.n:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.n} vs {b.n} states"
        )
    d = b.q - gamma * a.q
    off = d.copy()
    np.fill_diagonal(off, 0.0)
    if (off < -_OFFDIAG_SLACK).any():
        return False
    if (np.abs(d.sum(axis=0)) > _column_window(off)).any():
        return False
    return bool(np.all(np.diag(d) <= -gamma + _OFFDIAG_SLACK))


def max_gamma(a: RateMatrix, bs: Iterable[RateMatrix]) -> float:
    """Largest gamma in (0, 1] with ``a`` and every ``b`` mutually gamma-controlled.

    Each condition of :func:`gamma_controlled` on ``(p, r)`` bounds gamma
    from above: by ``r[j, x] / p[j, x]`` where ``p`` jumps x -> j, and by
    ``lambda_r[x] / (1 + lambda_p[x])`` on the exit rates.  The level is the
    least bound over (p, r) = (a, b), (b, a) and every member, a few
    roundings below it and capped at 1 (1.0 for an empty family).  A least
    bound under 1e-12 (a support mismatch or an absorbing state, so every
    chain with an absorbing target) gives 1e-12 if the family is controlled
    at that floor, else 0.0.
    """
    members = list(bs)
    level = np.inf
    for b in members:
        if b.n != a.n:
            raise DimensionMismatchError(f"dimension mismatch: {a.n} vs {b.n} states")
        for p, r in ((a, b), (b, a)):
            jumps = p.support
            level = min(level, (r.q[jumps] / p.q[jumps]).min(initial=np.inf),
                        (r.exit_rates / (1.0 + p.exit_rates)).min())
    # at large rates the predicate's sums round by more than its 1e-12 slack
    level = min(1.0, float(level) * (1.0 - 4.0 * np.finfo(float).eps))
    if level >= _GAMMA_FLOOR:
        return level
    floor_holds = all(
        gamma_controlled(a, b, _GAMMA_FLOOR) and gamma_controlled(b, a, _GAMMA_FLOOR)
        for b in members
    )
    return _GAMMA_FLOOR if floor_holds else 0.0


def seminorm_sq(a: RateMatrix, x: int, z: object) -> float:
    """Squared jump seminorm of the vector ``z`` at state ``x``.

    Equals ``sum_{j != x} (z[j] - z[x])^2 * q[j, x]``, the predictable
    quadratic variation rate of ``z`` integrated against the chain's
    compensated jump martingale while the chain sits in ``x``.  It is
    invariant under adding a constant to ``z`` and vanishes exactly when
    ``z`` is constant on ``x`` and its one-jump neighbors.
    """
    _check_state(x, a.n)
    zv = np.asarray(z, dtype=float)
    if zv.shape != (a.n,):
        raise DimensionMismatchError(
            f"z has shape {zv.shape}, expected ({a.n},)"
        )
    col = a.q[:, x]
    d = zv - zv[x]
    d[x] = 0.0
    return float(np.dot(d * d, np.maximum(col, 0.0)))


def states_reaching(a: RateMatrix, target: Iterable[int]) -> NDArray[np.bool_]:
    """Boolean mask of states from which the target set is reachable.

    Graph search on the support of ``a``; target states are trivially
    included.
    """
    mask = np.zeros(a.n, dtype=bool)
    for i in target:
        _check_state(i, a.n)
        mask[int(i)] = True
    return _reach(a.support, mask)


def _reach(support: NDArray[np.bool_], mask: NDArray[np.bool_]) -> NDArray[np.bool_]:
    """``mask`` grown by every state with a path into it, where
    ``support[j, i]`` means a direct step i -> j (depth-first search)."""
    unseen = ~mask
    stack = np.flatnonzero(mask).tolist()
    while stack:
        j = stack.pop()
        # unseen predecessors of j: states i with a direct step i -> j
        preds = np.flatnonzero(support[j] & unseen)
        unseen[preds] = False
        stack.extend(preds.tolist())
    return ~unseen


@dataclass(frozen=True)
class ChainPath:
    """One realized trajectory.

    ``states`` has one more entry than ``jump_times``; ``states[0]`` is the
    initial state and ``states[k]`` is occupied on
    ``[jump_times[k-1], jump_times[k])``.  ``terminal_time`` is the moment of
    absorption into the target, or the horizon when the path was stopped
    unabsorbed.
    """

    jump_times: tuple[float, ...]
    states: tuple[int, ...]
    terminal_time: float
    absorbed: bool

    def __post_init__(self):
        if len(self.states) != len(self.jump_times) + 1:
            raise InputError("states must have exactly one more entry than jump_times")
        times = self.jump_times
        for k in range(1, len(times)):
            if not times[k] > times[k - 1]:
                raise InputError("jump times must be strictly increasing")
        for k in range(1, len(self.states)):
            if self.states[k] == self.states[k - 1]:
                raise InputError("consecutive states must differ")
        if times and times[0] <= 0.0:
            raise InputError("jump times must be positive")

    def rows(self) -> list[tuple[float, int]]:
        """(time, state) rows suitable for CSV export."""
        out = [(0.0, self.states[0])]
        out.extend((t, s) for t, s in zip(self.jump_times, self.states[1:]))
        return out


def simulate_path(
    a: RateMatrix,
    x0: int,
    target: Iterable[int],
    horizon: float | None = None,
    seed: int = 0,
) -> ChainPath:
    """Simulate the chain exactly, jump by jump, until the target or horizon.

    Holding times are exponential with the state's exit rate and the next
    state is drawn from the embedded jump distribution; nothing is
    discretized.  The path stops at the first entry into ``target`` or at
    ``horizon``, whichever comes first.

    Raises
    ------
    AbsorbedOutsideTargetError
        If the path reaches a state with zero exit rate that is not in the
        target and no horizon was given.
    """
    return simulate_controlled_path(lambda _s: a, x0, target, horizon, seed)


def simulate_controlled_path(
    controls: Callable[[int], RateMatrix] | Sequence[RateMatrix],
    x0: int,
    target: Iterable[int],
    horizon: float | None = None,
    seed: int = 0,
) -> ChainPath:
    """Simulate under a state-feedback choice of rate matrix.

    ``controls`` maps the current state to the rate matrix in force while
    the chain sits there (a sequence is indexed by state).  With a constant
    map this reproduces :func:`simulate_path` draw for draw: the same seed
    yields the identical path.
    """
    tset = frozenset(int(i) for i in target)
    if horizon is None and not tset:
        raise InputError("need a positive horizon or a nonempty target")
    if horizon is not None and not horizon > 0.0:
        raise InputError(f"horizon must be positive, got {horizon!r}")

    if callable(controls):
        control_for = controls
    else:
        mats = list(controls)
        control_for = lambda s: mats[s]  # noqa: E731

    first = control_for(int(x0))
    n = first.n
    _check_state(int(x0), n)
    for i in tset:
        _check_state(i, n)

    rng = np.random.default_rng(seed)
    x = int(x0)
    if x in tset:
        return ChainPath((), (x,), 0.0, absorbed=True)

    t = 0.0
    times: list[float] = []
    states: list[int] = [x]
    while True:
        col = control_for(x).q[:, x]
        rate = -col[x]
        if rate <= 0.0:
            if horizon is None:
                raise AbsorbedOutsideTargetError(x, t)
            return ChainPath(tuple(times), tuple(states), float(horizon), absorbed=False)
        dt = rng.exponential(1.0 / rate)
        if horizon is not None and t + dt >= horizon:
            return ChainPath(tuple(times), tuple(states), float(horizon), absorbed=False)
        t += dt
        probs = np.maximum(col, 0.0)
        probs[x] = 0.0
        nonzero = np.flatnonzero(probs)
        cum = np.cumsum(probs[nonzero])
        cum /= cum[-1]
        k = min(int(np.searchsorted(cum, rng.random(), side="right")), len(nonzero) - 1)
        x = int(nonzero[k])
        times.append(t)
        states.append(x)
        if x in tset:
            return ChainPath(tuple(times), tuple(states), t, absorbed=True)


def _split_target(a: RateMatrix, target) -> tuple[NDArray[np.int_], NDArray[np.int_]]:
    """Sorted free and target state indices of a nonempty, in-range target set."""
    tset = frozenset(int(i) for i in target)
    if not tset:
        raise InputError("target set must be nonempty")
    for i in tset:
        if not 0 <= i < a.n:
            raise InputError(f"target state {i} out of range [0, {a.n})")
    mask = np.zeros(a.n, dtype=bool)
    mask[list(tset)] = True
    return np.flatnonzero(~mask), np.flatnonzero(mask)


def _box_argmax(a: RateMatrix, gamma: float, h, cols, incumbent) -> NDArray[np.float64]:
    """Columns ``cols`` of the member of the ratio box around ``a`` that
    maximizes ``h @ B e_x`` column by column.

    Each intensity ``q[j, x]`` goes up to ``q/gamma`` where ``h`` rises
    toward j (``h[j] - h[x] > _TIE``), down to ``gamma*q`` where it falls,
    and keeps ``incumbent[j, k]`` (column k is state ``cols[k]``) on ties;
    the diagonal rebalances each column.
    """
    q = a.q[:, cols]
    rise = h[:, None] - h[cols]
    block = np.where(rise > _TIE, q / gamma, np.where(rise < -_TIE, gamma * q, incumbent))
    diag = (cols, np.arange(len(cols)))
    block[diag] = 0.0
    block[diag] = -block.sum(axis=0)
    return block


def _column_window(off: NDArray[np.float64]) -> NDArray[np.float64]:
    """Column-sum window for the off-diagonal part ``off``: rounding grows with the rates."""
    return _RENORM_WINDOW * np.maximum(1.0, off.sum(axis=0))


def _check_state(i: int, n: int) -> None:
    if not 0 <= int(i) < n:
        raise InputError(f"state index {i} out of range [0, {n})")
