"""Drivers for chain-driven backward equations.

A driver is a map ``f(x, t, y, z)`` where ``x`` is the current state, ``y``
the current solution value and ``z`` a vector over states (only differences
``z[j] - z[x]`` ever matter; every constructor here produces drivers that are
exactly invariant under adding a constant to ``z``).

Solvers call only ``field(t, u, rows)``, the values ``f(x, t, u[x], u)`` at
``rows``, and ``jacobian(t, u, rows)``, their derivative in ``u[rows]``; by
default these loop over ``fn`` and difference it forward.  Every built-in
constructor but the measure envelope returns instead a min or max over members
``cost[x, k] - r[x] * y + z @ (A^k - A) e_x``, evaluated for all states at
once, with the active member's exact Jacobian and ``policy(u)``, the one rule
for which member is active (lowest index on ties).

The key structural property is *balance at level gamma*: every increment in
``z`` can be written against a jump-intensity vector whose components stay
within a factor ``[gamma, 1/gamma]`` of the reference chain's rates.  Balance
is what lets hitting-time estimates transfer from the reference chain to the
controlled/tilted dynamics, and it is preserved by pointwise infima and
suprema over finite control families, which is why Hamiltonians built below
inherit it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .chain import RateMatrix, _box_argmax, max_gamma
from .errors import (
    DimensionMismatchError,
    EmptyControlSetError,
    GammaNotCertifiableError,
    InputError,
    NotCertifiedError,
)

__all__ = [
    "MarkovianDriver",
    "ControlSet",
    "BalanceCertificate",
    "affine_driver",
    "zero_driver",
    "constant_driver",
    "hamiltonian_inf",
    "hamiltonian_sup",
    "reliability_driver",
    "shortest_path_driver",
    "measure_envelope_driver",
    "truncate_driver",
    "check_balanced",
    "lipschitz_bound",
    "incremental_ratio",
    "shift_invariance_defect",
]


@dataclass(frozen=True)
class MarkovianDriver:
    """A driver ``f(x, t, y, z)`` with declared growth metadata.

    Parameters
    ----------
    fn : callable
        ``fn(x, t, y, z) -> float`` with ``z`` a vector over states.
    c : float
        Lipschitz constant of ``f`` in ``y``; for monotone drivers the
        incremental ratio ``-(f(y) - f(y')) / (y - y')`` lies in ``[0, c]``.
    beta_hat : float
        Growth exponent of the free term: ``|f(x, t, 0, 0)| <= const * (1 + t^beta_hat)``.
    monotone : bool
        Declared nonincreasing dependence on ``y``.
    time_dependent : bool
        Whether ``f`` genuinely depends on ``t``; stationary solvers reject
        time-dependent drivers.
    spec : dict or None
        Declarative payload for serialization (present for file-loadable
        drivers), ignored by the numerics.
    """

    fn: Callable[[int, float, float, NDArray[np.float64]], float]
    c: float = 0.0
    beta_hat: float = 0.0
    monotone: bool = True
    time_dependent: bool = False
    spec: dict | None = field(default=None, compare=False)

    def eval(self, x: int, t: float, y: float, z: object) -> float:
        return float(self.fn(int(x), float(t), float(y), np.asarray(z, dtype=float)))

    __call__ = eval

    def field(self, t: float, u: NDArray[np.float64], rows) -> NDArray[np.float64]:
        """``f(x, t, u[x], u)`` for every state ``x`` in ``rows``."""
        return np.array([self.eval(x, t, u[x], u) for x in rows], dtype=float)

    def jacobian(self, t: float, u: NDArray[np.float64], rows) -> NDArray[np.float64]:
        """Derivative of ``field(t, u, rows)`` in ``u[rows]`` by forward differences."""
        f0 = self.field(t, u, rows)
        jac = np.empty((len(rows), len(rows)))
        for k, j in enumerate(rows):
            h = 1e-7 * max(1.0, abs(u[j]))
            up = u.copy()
            up[j] += h
            jac[:, k] = (self.field(t, up, rows) - f0) / h
        return jac


@dataclass(frozen=True)
class _ControlFamily(MarkovianDriver):
    """Pointwise min (``sense=+1``) or max (``sense=-1``) over the members
    ``cost[x, k] - r[x] * y + z @ tilt[k, :, x]``.

    ``cost`` is an ``(n, m)`` table, or ``ControlSet.cost_value`` for a
    callable cost, which is then tabulated on every call and keeps the
    forward-difference Jacobian since it may depend on ``y``.
    """

    fn: Callable = field(init=False, default=None, repr=False)
    cost: object = field(default=None, compare=False, repr=False)
    r: NDArray[np.float64] = field(default=None, compare=False, repr=False)
    tilt: NDArray[np.float64] = field(default=None, compare=False, repr=False)
    sense: int = 1

    def __post_init__(self):
        object.__setattr__(self, "fn", self._at)

    def _members(self, t, y, rows, drift):
        """Member values at ``rows`` given ``y`` and ``drift = z @ tilt`` there."""
        if callable(self.cost):
            cost = np.array(
                [[self.cost(t, yi, x, k) for k in range(len(self.tilt))]
                 for x, yi in zip(rows.tolist(), y.tolist())]
            ).reshape(len(rows), len(self.tilt))
        else:
            cost = self.cost[rows]
        return cost - (self.r[rows] * y)[:, None] + drift

    def _at(self, x, t, y, z):
        vals = self._members(t, np.array([y]), np.array([x]), (self.tilt[:, :, x] @ z)[None])
        return float(vals.min() if self.sense > 0 else vals.max())

    def field(self, t, u, rows):
        vals = self._members(t, u[rows], rows, (u @ self.tilt)[:, rows].T)
        return vals.min(axis=1) if self.sense > 0 else vals.max(axis=1)

    def policy(self, u: NDArray[np.float64]) -> NDArray[np.int_]:
        """Index of the active member at every state for the field ``u``
        (``y = u[x]``, ``z = u``, ``t = 0``), lowest index on ties."""
        vals = self._members(0.0, u, np.arange(u.size), (u @ self.tilt).T)
        return vals.argmin(axis=1) if self.sense > 0 else vals.argmax(axis=1)

    def jacobian(self, t, u, rows):
        if callable(self.cost):
            return super().jacobian(t, u, rows)
        active = self.policy(u)[rows]
        return self.tilt[active[:, None], rows[None, :], rows[:, None]] - np.diag(self.r[rows])


@dataclass(frozen=True)
class ControlSet:
    """A finite family of controlled rate matrices with running costs.

    ``cost`` is either an ``(n_states, n_controls)`` table of running costs
    or a callable ``cost(t, y, x, u) -> float``.  The mutual control level
    ``gamma`` against the reference chain is computed at construction; a
    family with no admissible level is rejected, since none of the hitting
    estimates would transfer to it.
    """

    labels: tuple[str, ...]
    matrices: tuple[RateMatrix, ...]
    cost: object
    reference: RateMatrix
    c: float = 0.0
    beta_hat: float = 0.0
    cost_time_dependent: bool | None = None
    gamma: float = field(init=False, default=0.0)

    def __post_init__(self):
        if len(self.matrices) == 0:
            raise EmptyControlSetError()
        if len(self.labels) != len(self.matrices):
            raise DimensionMismatchError(
                f"{len(self.labels)} labels for {len(self.matrices)} matrices"
            )
        n = self.reference.n
        for m in self.matrices:
            if m.n != n:
                raise DimensionMismatchError(
                    f"control matrix has {m.n} states, reference has {n}"
                )
        if not callable(self.cost):
            table = np.array(self.cost, dtype=float)
            if table.shape != (n, len(self.matrices)):
                raise DimensionMismatchError(
                    f"cost table shape {table.shape}, expected ({n}, {len(self.matrices)})"
                )
            table.setflags(write=False)
            object.__setattr__(self, "cost", table)
            if self.cost_time_dependent is None:
                object.__setattr__(self, "cost_time_dependent", False)
        elif self.cost_time_dependent is None:
            object.__setattr__(self, "cost_time_dependent", True)
        g = max_gamma(self.reference, self.matrices)
        if g <= 0.0:
            raise GammaNotCertifiableError(
                "no gamma in (0, 1] relates every control matrix to the reference; "
                "control matrices must keep the reference's jump structure"
            )
        object.__setattr__(self, "gamma", float(g))

    @property
    def size(self) -> int:
        return len(self.matrices)

    def cost_value(self, t: float, y: float, x: int, u: int) -> float:
        if callable(self.cost):
            return float(self.cost(t, y, x, u))
        return float(self.cost[x, u])


@dataclass(frozen=True)
class BalanceCertificate:
    """Result of sampling-based balance certification.

    A pass is evidence (witnesses found at every sample), a fail is
    conclusive (a sample where no admissible witness exists).  Each stored
    witness ``lam`` sums to zero and keeps componentwise ratios against the
    reference column inside ``[gamma, 1/gamma]``, each entry up to 1e-9.
    """

    gamma: float
    passed: bool
    samples: int
    witnesses: tuple = ()
    failures: tuple = ()


def affine_driver(
    a: RateMatrix,
    b: RateMatrix | object | None = None,
    g: object | None = None,
    r: object | None = None,
) -> MarkovianDriver:
    """Driver ``f(x, t, y, z) = z @ (B - A) e_x + g[x] - r[x] * y``.

    ``b`` defaults to the reference itself (no intensity tilt), ``g`` to
    zeros (no running reward), ``r`` to zeros (no discounting).  ``r`` must
    be nonnegative so the driver is monotone in ``y``.
    """
    n = a.n
    bq = _as_matrix(b, a)
    gv = _as_vector(g, n, "g")
    rv = _as_vector(r, n, "r")
    if (rv < 0).any():
        raise InputError("discount rates r must be nonnegative")
    return _ControlFamily(
        cost=gv[:, None],
        r=rv,
        tilt=(bq - a.q)[None],
        c=float(rv.max()) if n else 0.0,
        spec={
            "type": "affine",
            "b": bq.tolist(),
            "g": gv.tolist(),
            "r": rv.tolist(),
        },
    )


def zero_driver(a: RateMatrix) -> MarkovianDriver:
    """The identically-zero driver (harmonic extension / hitting laws)."""
    return affine_driver(a)


def constant_driver(a: RateMatrix, value: float) -> MarkovianDriver:
    """Driver ``f = value`` everywhere (e.g. +1 accumulates elapsed time)."""
    return affine_driver(a, g=np.full(a.n, float(value)))


def hamiltonian_inf(cs: ControlSet, a: RateMatrix | None = None) -> MarkovianDriver:
    """Lower Hamiltonian ``min_u { cost(t,y,x,u) + z @ (A^u - A) e_x }``.

    The minimum over a finite family of drivers that are balanced at the
    family's gamma is again balanced at that gamma, so the Hamiltonian
    inherits the certification level of the control set.  Ties resolve to
    the lowest control index.
    """
    return _hamiltonian(cs, a, sign=+1)


def hamiltonian_sup(cs: ControlSet, a: RateMatrix | None = None) -> MarkovianDriver:
    """Upper Hamiltonian ``max_u { cost(t,y,x,u) + z @ (A^u - A) e_x }``.

    Equal to the negation of the lower Hamiltonian applied to negated costs
    and negated ``z``.  Ties resolve to the lowest control index.
    """
    return _hamiltonian(cs, a, sign=-1)


def _hamiltonian(cs: ControlSet, a: RateMatrix | None, sign: int) -> MarkovianDriver:
    ref = cs.reference if a is None else a
    if ref.n != cs.reference.n:
        raise DimensionMismatchError("reference dimension differs from control set")
    return _ControlFamily(
        cost=cs.cost_value if callable(cs.cost) else cs.cost,
        r=np.zeros(ref.n),
        tilt=np.stack([m.q - ref.q for m in cs.matrices]),
        sense=sign,
        c=float(cs.c),
        beta_hat=float(cs.beta_hat),
        time_dependent=bool(cs.cost_time_dependent),
        spec={"type": "hamiltonian_inf" if sign > 0 else "hamiltonian_sup"},
    )


def reliability_driver(
    a: RateMatrix,
    loss_rates: object,
    control_matrices: Sequence[RateMatrix] | None = None,
) -> MarkovianDriver:
    """Driver ``-loss[x] * y`` plus, when controlled, ``max_u z @ (A^u - A) e_x``.

    The solution of the associated stationary system is the expected
    discounted indicator of reaching the delivery node, i.e. the survival
    probability of a signal that dies at rate ``loss[x]`` in state ``x``.
    """
    rv = _as_vector(loss_rates, a.n, "loss_rates")
    if (rv < 0).any():
        raise InputError("loss rates must be nonnegative")
    mats = list(control_matrices) if control_matrices else [a]
    return _ControlFamily(
        cost=np.zeros((a.n, len(mats))),
        r=rv,
        tilt=np.stack([m.q - a.q for m in mats]),
        sense=-1,
        c=float(rv.max()),
        spec={
            "type": "reliability",
            "loss_rates": rv.tolist(),
            "controlled": bool(control_matrices),
        },
    )


def shortest_path_driver(
    a: RateMatrix, control_matrices: Sequence[RateMatrix] | None = None
) -> MarkovianDriver:
    """Driver ``min_u z @ (A^u - A) e_x + 1`` for remaining travel time.

    With the singleton family this is the constant driver 1; the +1
    accumulates elapsed time so the stationary solution is the (optimal)
    expected remaining time to the destination.
    """
    mats = list(control_matrices) if control_matrices else [a]
    return _ControlFamily(
        cost=np.ones((a.n, len(mats))),
        r=np.zeros(a.n),
        tilt=np.stack([m.q - a.q for m in mats]),
        spec={"type": "shortest_path"},
    )


def measure_envelope_driver(a: RateMatrix, gamma: float) -> MarkovianDriver:
    """Upper envelope ``sup { z @ (B - A) e_x }`` over the gamma ratio family.

    The supremum ranges over matrices whose off-diagonal columns stay within
    a factor ``[gamma, 1/gamma]`` of the reference, the Markov members of
    the gamma measure family.  It is attained at ``B*(z)``, the ratio-box
    member that ``worst_case_exp_moment`` also picks (the reference on
    ties), and has the closed form
    ``sum_{j != x} q[j, x] * ((1/gamma - 1) (z_j - z_x)^+ + (1 - gamma) (z_x - z_j)^+)``.
    """
    if not 0.0 < gamma <= 1.0:
        raise InputError(f"gamma must lie in (0, 1], got {gamma!r}")

    def fn(x: int, t: float, y: float, z: NDArray[np.float64]) -> float:
        col = _box_argmax(a, gamma, z, [x], a.q[:, [x]])[:, 0]
        # columns sum to zero, so recentring z changes nothing but rounding
        return float((z - z[x]) @ (col - a.q[:, x]))

    return MarkovianDriver(
        fn,
        c=0.0,
        beta_hat=0.0,
        monotone=True,
        time_dependent=False,
        spec={"type": "measure_envelope", "gamma": gamma},
    )


def truncate_driver(d: MarkovianDriver, bound: float) -> MarkovianDriver:
    """Clamp ``y`` and the recentered ``z`` into ``[-bound, bound]``.

    The truncated driver evaluates ``d`` at ``clip(y)`` and at
    ``clip(z - z[x])``; recentering first makes the clamp respect the
    constant-shift invariance, so the truncation agrees with ``d`` exactly
    whenever ``|y|`` and the recentered components are within the bound, and
    converges pointwise to ``d`` as the bound grows.
    """
    if not bound > 0.0:
        raise InputError(f"truncation bound must be positive, got {bound!r}")
    b = float(bound)

    def fn(x: int, t: float, y: float, z: NDArray[np.float64]) -> float:
        yc = min(max(y, -b), b)
        zc = np.clip(z - z[x], -b, b)
        return d.fn(x, t, yc, zc)

    return MarkovianDriver(
        fn,
        c=d.c,
        beta_hat=d.beta_hat,
        monotone=d.monotone,
        time_dependent=d.time_dependent,
        spec={"type": "truncated", "bound": b, "inner": d.spec},
    )


def check_balanced(
    d: MarkovianDriver,
    a: RateMatrix,
    gamma: float,
    samples: int = 200,
    seed: int = 0,
    scale: float = 1.0,
) -> BalanceCertificate:
    """Sampling-based certification that ``d`` is balanced at level ``gamma``.

    For each sampled ``(x, t, y, z, z')`` the increment
    ``f(z) - f(z')`` must be representable as ``(z - z') @ (lam - A e_x)``
    with ``lam`` supported on the coordinates reachable from ``x``, summing
    to zero, and with componentwise ratios ``lam_j / (A e_x)_j`` inside
    ``[gamma, 1/gamma]`` (0/0 counts as 1), each bound widened by 1e-9.

    The sample is decided in closed form.  On ``J``, the states ``x`` jumps
    to plus ``x`` itself, the admissible ``lam`` form the box
    ``[lo, hi]`` cut by the plane ``sum(lam) = 0``, so ``delta @ lam`` with
    ``delta = z - z'`` fills an interval ``[m, M]``.  Maximizing a linear
    objective over a box under one budget constraint is a continuous
    knapsack: start from ``lo`` and pour the mass ``-sum(lo)`` into the
    capacities ``hi - lo``, highest ``delta`` first; an exchange argument
    shows no feasible point does better (Dantzig, Oper. Res. 5(2), 1957).
    Pouring lowest ``delta`` first gives ``m``.  The set is never empty,
    since the reference column lies in it.  The sample passes iff the
    required value ``f(z) - f(z') + delta @ (A e_x)`` lies in ``[m, M]``, up
    to the rounding of the dot products, and its witness is the point on
    the segment between the two greedy vertices that meets the identity.
    A pass is evidence of balance; a fail carries a concrete counterexample
    and is conclusive.
    """
    if not 0.0 < gamma <= 1.0:
        raise InputError(f"gamma must lie in (0, 1], got {gamma!r}")
    rng = np.random.default_rng(seed)
    n = a.n
    slack = 1e-9
    witnesses: list[tuple] = []
    failures: list[tuple] = []
    for _ in range(int(samples)):
        x = int(rng.integers(n))
        t = float(rng.exponential(1.0))
        y = float(rng.normal(0.0, scale))
        z = rng.normal(0.0, scale, size=n)
        zp = rng.normal(0.0, scale, size=n)
        ok, lam, reason = _find_witness(d, a, gamma, x, t, y, z, zp, slack)
        if ok:
            if len(witnesses) < 10:
                witnesses.append((x, t, z.copy(), zp.copy(), lam))
        else:
            failures.append((x, t, z.copy(), zp.copy(), reason))
    return BalanceCertificate(
        gamma=float(gamma),
        passed=not failures,
        samples=int(samples),
        witnesses=tuple(witnesses),
        failures=tuple(failures),
    )


def _find_witness(d, a, gamma, x, t, y, z, zp, slack):
    q = a.q[:, x]
    idx = np.union1d(np.flatnonzero(q > 0.0), [x])
    delta = (z - zp)[idx]
    df = d.eval(x, t, y, z) - d.eval(x, t, y, zp)
    # increment identity: delta @ lam = df + delta @ q, zero total mass
    value = df + float((z - zp) @ q)
    qJ = q[idx]
    lo = np.minimum(gamma * qJ, qJ / gamma) - slack
    hi = np.maximum(gamma * qJ, qJ / gamma) + slack
    order = np.argsort(delta)
    lam_lo, lam_hi = _greedy_fill(lo, hi, order), _greedy_fill(lo, hi, order[::-1])
    least, most = float(delta @ lam_lo), float(delta @ lam_hi)
    # rounding of the dot products on either side of the comparison
    tol = 4.0 * len(idx) * np.finfo(float).eps * (
        abs(df) + float(np.abs(delta) @ (np.abs(qJ) + np.maximum(-lo, hi)))
    )
    if not least - tol <= value <= most + tol:
        return False, None, (
            f"no admissible witness: increment {df!r} at state {x} cannot be matched "
            f"with intensity ratios in [{gamma}, {1.0 / gamma}]"
        )
    theta = min(max((value - least) / (most - least), 0.0), 1.0) if most > least else 0.0
    lam = np.zeros(a.n)
    lam[idx] = theta * lam_hi + (1.0 - theta) * lam_lo
    return True, lam, ""


def _greedy_fill(lo, hi, order):
    """``lo`` plus the mass ``-sum(lo)`` poured into the capacities
    ``hi - lo`` in ``order``: the vertex of ``{lo <= lam <= hi, sum(lam) = 0}``
    that is extreme for any objective sorted by ``order``."""
    poured = np.minimum(np.cumsum((hi - lo)[order]), -lo.sum())
    lam = lo.copy()
    lam[order] += np.diff(poured, prepend=0.0)
    return lam


def lipschitz_bound(
    d: MarkovianDriver,
    a: RateMatrix,
    gamma: float,
    certificate: BalanceCertificate | None = None,
) -> float:
    """Lipschitz constant of a balanced driver against the jump seminorm.

    Returns ``sqrt(max_i |q[i, i]|) * sqrt(1/gamma)``: balance lets every
    increment be written against scaled intensities, the scaling factor is
    controlled by ``1/gamma``, and the seminorm absorbs the remaining state
    dependence through the worst total jump rate.  Requires a passing
    certificate at a level at least ``gamma`` (balance at a higher level
    implies balance at any lower one).
    """
    if certificate is None or not certificate.passed:
        raise NotCertifiedError(
            "driver carries no passing balance certificate; run check_balanced first"
        )
    if certificate.gamma < gamma - 1e-12:
        raise NotCertifiedError(
            f"certificate level {certificate.gamma!r} is below requested {gamma!r}"
        )
    if not 0.0 < gamma <= 1.0:
        raise InputError(f"gamma must lie in (0, 1], got {gamma!r}")
    return float(np.sqrt(a.max_rate / gamma))


def incremental_ratio(
    d: MarkovianDriver, x: int, t: float, y1: float, y2: float, z: object
) -> float:
    """``-(f(y1) - f(y2)) / (y1 - y2)``; lies in ``[0, c]`` for monotone drivers."""
    if y1 == y2:
        raise InputError("incremental ratio needs two distinct y values")
    zv = np.asarray(z, dtype=float)
    return float(-(d.eval(x, t, y1, zv) - d.eval(x, t, y2, zv)) / (y1 - y2))


def shift_invariance_defect(
    d: MarkovianDriver, n: int, samples: int = 100, seed: int = 0, scale: float = 1.0
) -> float:
    """Largest observed ``|f(x,t,y,z + alpha) - f(x,t,y,z)|`` over random samples."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(int(samples)):
        x = int(rng.integers(n))
        t = float(rng.exponential(1.0))
        y = float(rng.normal(0.0, scale))
        z = rng.normal(0.0, scale, size=n)
        alpha = float(rng.normal(0.0, 10.0 * scale))
        worst = max(worst, abs(d.eval(x, t, y, z + alpha) - d.eval(x, t, y, z)))
    return worst


def _as_matrix(b, a: RateMatrix) -> NDArray[np.float64]:
    if b is None:
        return a.q
    if isinstance(b, RateMatrix):
        if b.n != a.n:
            raise DimensionMismatchError(f"matrix has {b.n} states, expected {a.n}")
        return b.q
    arr = np.asarray(b, dtype=float)
    if arr.shape != (a.n, a.n):
        raise DimensionMismatchError(f"matrix shape {arr.shape}, expected ({a.n}, {a.n})")
    return arr


def _as_vector(v, n: int, name: str) -> NDArray[np.float64]:
    if v is None:
        return np.zeros(n)
    arr = np.asarray(v, dtype=float)
    if arr.shape != (n,):
        raise DimensionMismatchError(f"{name} has shape {arr.shape}, expected ({n},)")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr
